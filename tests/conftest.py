import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from kanoa.parser import parse_problem
from kanoa.reporting import PipelineConfig, run
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
def hospital_reference_run(hospital_path, tmp_path_factory):
    """(calls, out) of a hospital run at the default config, GA seed 0,
    written to ``out``, on ``helpers.install_reference_pipeline``: every
    ``score_cluster`` and ``schedule_cluster`` call builds and solves the
    full model, and the ranking and the final front compare every pair of
    members, so the run takes the same path as a real run exactly when
    the two agree.  ``calls`` lists (args, kwargs, reference result) per
    ``score_cluster`` call, feasible or not."""
    from helpers import install_reference_pipeline, reference_score

    calls = []

    def record(*args, **kwargs):
        ref = reference_score(*args, **kwargs)
        calls.append((args, kwargs, ref))
        return ref

    out = tmp_path_factory.mktemp("hospital_reference") / "out"
    with pytest.MonkeyPatch.context() as mp:
        install_reference_pipeline(mp, score=record)
        run(hospital_path, PipelineConfig(seed=0), out)
    return calls, out


@pytest.fixture(scope="session")
def hospital_calls(hospital_reference_run):
    """Every ``score_cluster`` call of :func:`hospital_reference_run`."""
    return hospital_reference_run[0]
