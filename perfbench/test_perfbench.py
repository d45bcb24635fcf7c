"""Tests of the benchmark's own pieces: generators, hypervolume, tracer.

Run from the repository root with ``src`` on PYTHONPATH:

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import itertools
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import missions  # noqa: E402
from hv import hypervolume_3d  # noqa: E402
from spans import TARGETS, Tracer  # noqa: E402

from kanoa.parser import parse_problem  # noqa: E402
from kanoa.taskgraph import expand_mission  # noqa: E402
from kanoa.validation import validate_problem  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["relay", "fleet"])
@pytest.mark.parametrize("seed", [0, 1, 17, 12345])
def test_generator_is_deterministic_and_valid(workload, seed):
    text = missions.mission_text(workload, seed)
    assert text == missions.mission_text(workload, seed)
    assert text != missions.mission_text(workload, seed + 1)
    validate_problem(parse_problem(text))


def _shape(text: str) -> list[str]:
    """The text with every number blanked: what the seed must not change."""
    out = []
    for line in text.splitlines():
        words = line.split()
        if words[:1] == ["loc"]:
            words = words[:2]
        elif words[:1] == ["robot"]:
            words = words[:4]
        elif words[:1] == ["can"]:
            words = words[:2]
        out.append(" ".join(words))
    return out


@pytest.mark.parametrize("workload", ["relay", "fleet"])
def test_seed_changes_only_numbers(workload):
    assert _shape(missions.mission_text(workload, 0)) == _shape(
        missions.mission_text(workload, 99)
    )


def test_relay_mix_is_half_pick_drop():
    v = validate_problem(parse_problem(missions.relay_text(3)))
    kinds = [m.task_id for m in v.problem.mission_tasks]
    assert len(v.problem.robots) == 4 and len(kinds) == 12
    assert kinds.count("deliver") == 6 and kinds.count("inspect") == 6
    _, pairs = expand_mission(v)
    assert len(pairs) == 6  # one pick -> drop order per delivery


def test_fleet_is_single_robot_tasks_at_one_depot():
    v = validate_problem(parse_problem(missions.fleet_text(5)))
    assert len(v.problem.robots) == 10 and len(v.problem.mission_tasks) == 30
    assert {r.initial_loc for r in v.problem.robots} == {"depot"}
    assert all(t.robots_needed == 1 for t in v.problem.atomic_tasks)
    assert not v.problem.compound_tasks


def test_basket_keeps_ga_seeds_and_varies_missions():
    a = missions.basket("relay", 0)
    b = missions.basket("relay", 1)
    assert [s for _, s in a] == [s for _, s in b] == list(range(missions.BASKET["relay"]))
    assert not {t for t, _ in a} & {t for t, _ in b}
    hospital = missions.basket("hospital", 7, ROOT)
    assert {t for t, _ in hospital} == {(ROOT / missions.HOSPITAL).read_text()}


def _hv_inclusion_exclusion(points, ref):
    """Union volume of the boxes [p, ref] by inclusion-exclusion."""
    boxes = [p for p in points if all(a < r for a, r in zip(p, ref))]
    total = 0.0
    for size in range(1, len(boxes) + 1):
        for subset in itertools.combinations(boxes, size):
            corner = [max(c) for c in zip(*subset)]
            volume = 1.0
            for c, r in zip(corner, ref):
                volume *= r - c
            total += (-1) ** (size + 1) * volume
    return total


@pytest.mark.parametrize("seed", range(40))
def test_hypervolume_matches_inclusion_exclusion(seed):
    rng = random.Random(seed)
    n = rng.randint(0, 8)
    # integer grid coordinates make ties and duplicates common
    points = [tuple(rng.randint(0, 6) / 2 for _ in range(3)) for _ in range(n)]
    ref = (3.0, 3.0, 3.0) if seed % 2 else (2.5, 3.5, 3.0)
    assert hypervolume_3d(points, ref) == pytest.approx(_hv_inclusion_exclusion(points, ref))


def test_hypervolume_single_box_and_outside_points():
    assert hypervolume_3d([(0.5, 1.0, 2.0)], (1.0, 2.0, 4.0)) == pytest.approx(0.5 * 1 * 2)
    assert hypervolume_3d([(1.0, 0.0, 0.0)], (1.0, 2.0, 4.0)) == 0.0
    assert hypervolume_3d([], (1.0, 1.0, 1.0)) == 0.0


def test_tracer_records_nested_spans_and_restores(tmp_path):
    import kanoa.reporting
    import kanoa.scheduling

    originals = {(m, a): getattr(sys.modules[m], a) for m, a, _ in TARGETS}
    tracer = Tracer()
    tracer.install({"mdp": lambda args, mdp: mdp.n_states})
    try:
        assert kanoa.scheduling.build_mdp is not originals[("kanoa.scheduling", "build_mdp")]
        report = tracer.span(
            "reporting",
            kanoa.reporting.run,
            ROOT / "fixtures" / "minimal.kanoa",
            kanoa.reporting.PipelineConfig(allocations=2, permutations=2, population=4,
                                           generations=1),
            tmp_path,
        )
    finally:
        tracer.restore()
    assert report.front.entries
    assert all(getattr(sys.modules[m], a) is f for (m, a), f in originals.items())
    inclusive, own, calls = tracer.totals()
    assert calls["reporting"] == 1 and calls["optimizer"] == 1
    assert calls["mdp"] == len(tracer.notes["mdp"]) > 0
    # self times partition the root span
    assert sum(own.values()) == pytest.approx(inclusive["reporting"])
    names = {s[0] for s in tracer.spans}
    parents = {tracer.spans[s[3]][0] for s in tracer.spans if s[0] == "mdp"}
    assert parents == {"scheduling"} and "parser" in names
    assert not tracer.missing and not tracer.errors
