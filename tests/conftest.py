import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import kanoa.optimizer
from kanoa.allocation import AllocatorConfig
from kanoa.optimizer import nsga2_run, prepare_search
from kanoa.parser import parse_problem
from kanoa.reporting import PipelineConfig
from kanoa.validation import validate_problem

FIXTURES = Path(__file__).parent.parent / "fixtures"


@pytest.fixture(scope="session")
def hospital_path():
    return FIXTURES / "hospital.kanoa"


@pytest.fixture(scope="session")
def hospital_text(hospital_path):
    return hospital_path.read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def hospital(hospital_text):
    return validate_problem(parse_problem(hospital_text))


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


@pytest.fixture(scope="session")
def hospital_calls(hospital):
    """(args, kwargs, reference result) of every ``schedule_cluster`` call
    of a hospital run at the default config, GA seed 0.  The run is driven
    by ``helpers.reference_schedule``, which always builds and solves the
    full model, so it takes the same path as a real run exactly when the
    two agree."""
    from helpers import reference_schedule

    calls = []

    def record(*args, **kwargs):
        ref = reference_schedule(*args, **kwargs)
        calls.append((args, kwargs, ref))
        return ref

    cfg = PipelineConfig(seed=0)
    real = kanoa.optimizer.schedule_cluster
    kanoa.optimizer.schedule_cluster = record
    try:
        space = prepare_search(
            hospital, AllocatorConfig(max_allocations=cfg.allocations), cfg.ga(),
            state_cap=cfg.state_cap,
        )
        nsga2_run(space, cfg.ga())
    finally:
        kanoa.optimizer.schedule_cluster = real
    return calls
