import random
import resource
import signal
import subprocess
import sys

import pytest
from helpers import compound_chain_text, many_locations_text
from oracles import reference_find_cycles, travel_time

import kanoa.validation
from kanoa.errors import InvariantViolation, ValidationError
from kanoa.parser import parse_problem
from kanoa.problem import CompoundTaskDef, ValidatedProblem, euclidean_ceil
from kanoa.validation import (
    MAX_INSTANCES,
    MAX_NESTING,
    _find_cycles,
    validate_problem,
)

BASE = """
world {{ loc a (0, 0) loc b (3, 4) {world} }}
tasks {{ atomic t robots 1 {tasks} }}
robots {{ robot r at a velocity 1 {{ can t time 2 prob {prob} }} {robots} }}
mission {{ task {mission_task} at a; {constraints} }}
"""


def make(world="", tasks="", robots="", prob="0.9", mission_task="t",
         constraints="time 10"):
    return parse_problem(
        BASE.format(world=world, tasks=tasks, robots=robots, prob=prob,
                    mission_task=mission_task, constraints=constraints)
    )


def errors_of(spec):
    with pytest.raises(ValidationError) as info:
        validate_problem(spec)
    return info.value.problems


def test_valid_problem_passes():
    v = validate_problem(make())
    assert v.time_available == 10


def test_missing_time_constraint_raises_on_access():
    spec = validate_problem(make()).problem
    untimed = ValidatedProblem(spec._replace(constraints=()))
    assert untimed.max_idle("r") is None
    with pytest.raises(InvariantViolation, match="time constraint"):
        untimed.time_available


def test_self_cyclic_compound():
    spec = make(tasks="compound c = { c }", mission_task="c")
    assert any("cyclic task definition" in e for e in errors_of(spec))


def test_mutual_cycle():
    spec = make(tasks="compound c1 = { c2 } compound c2 = { c1 }")
    msgs = errors_of(spec)
    assert any("cyclic" in e and "c1" in e for e in msgs)


def test_cycle_reports_every_compound_on_it():
    # c3 lies on c1 -> c3 -> c2 -> c1, off the path a depth-first search
    # takes to its first back edge
    spec = make(tasks="compound c1 = { c2, c3 } compound c2 = { c1 } "
                      "compound c3 = { c2 }",
                mission_task="c1")
    assert [e for e in errors_of(spec) if "cyclic" in e] == [
        f"cyclic task definition involving '{c}'" for c in ("c1", "c2", "c3")
    ]


def test_find_cycles_matches_reachability_reference():
    rng = random.Random("find-cycles")
    found = 0
    for _ in range(1000):
        ids = [f"c{i}" for i in range(rng.randint(1, 8))]
        pool = ids + ["t", "unknown"]
        compound_by_id = {}
        for cid in ids:
            subtasks = tuple(rng.choice(pool) for _ in range(rng.randint(1, 3)))
            compound_by_id[cid] = CompoundTaskDef(cid, subtasks, False)
        expected = reference_find_cycles(compound_by_id)
        assert _find_cycles(compound_by_id) == expected
        found += bool(expected)
    assert 100 < found < 900


@pytest.mark.parametrize("tasks, cyclic", [
    ("compound c = { c }", ["c"]),
    ("compound c1 = { c2, t } compound c2 = { c1 }", ["c1", "c2"]),
], ids=["self", "pair"])
def test_cyclic_definitions_return_promptly(tasks, cyclic):
    # d reaches the cycle, so it gets no shape; e reaches none
    spec = make(
        tasks=f"{tasks} compound d = {{ {cyclic[0]} }} compound e = {{ t, t }}",
        mission_task="d",
    )

    def hung(signum, frame):
        raise TimeoutError("cycle check did not return")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(5)
    try:
        compound_by_id = {c.id: c for c in spec.compound_tasks}
        shape = {}
        assert _find_cycles(compound_by_id, shape) == cyclic
        msgs = errors_of(spec)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert shape == {"e": (1, 2)}
    assert msgs == [f"cyclic task definition involving '{c}'" for c in cyclic]


@pytest.mark.parametrize("reverse", [False, True], ids=["upward", "downward"])
def test_nesting_up_to_limit_accepted(reverse):
    v = validate_problem(parse_problem(compound_chain_text(MAX_NESTING, reverse)))
    assert v.problem.mission_tasks[0].task_id == f"c{MAX_NESTING - 1}"


@pytest.mark.parametrize("reverse", [False, True], ids=["upward", "downward"])
def test_nesting_beyond_limit_rejected(reverse):
    spec = parse_problem(compound_chain_text(MAX_NESTING + 1, reverse))
    assert errors_of(spec) == [
        f"mission task 'c{MAX_NESTING}' nests compound tasks {MAX_NESTING + 1} "
        f"deep; the limit is {MAX_NESTING}"
    ]


def test_nesting_depth_follows_deepest_branch(monkeypatch):
    # c3 reaches an atomic task through c2 and c1 on its longest branch;
    # a mission task named twice is reported once
    monkeypatch.setattr(kanoa.validation, "MAX_NESTING", 2)
    spec = make(
        tasks="compound c1 = { t } compound c2 = ordered { c1, t } "
              "compound c3 = { t, c2, c1 }",
        mission_task="c3",
        constraints="task c3 at b; task c2 at b; task c1 at a; time 10",
    )
    assert errors_of(spec) == [
        "mission task 'c3' nests compound tasks 3 deep; the limit is 2"
    ]


def test_instance_count_follows_expansion(monkeypatch):
    # d expands to 3 instances, e to 2 * 3 and f to 3 * 3 + 2; the mission
    # adds two atomic tasks
    monkeypatch.setattr(kanoa.validation, "MAX_INSTANCES", 10)
    tasks = ("compound d = ordered { t, t, t } compound e = { d, d } "
             "compound f = ordered { d, t, d, t, d }")
    mission = "task t at b; task t at b; time 10"
    validate_problem(make(tasks=tasks, mission_task="e", constraints=mission))
    assert errors_of(make(tasks=tasks, mission_task="f", constraints=mission)) == [
        "mission expands to 13 task instances; the limit is 10"
    ]


def test_instance_limit_rejects_doubling_chain():
    # c13 expands to 2 ** 14 instances in only 14 levels
    defs = ["compound c0 = ordered { t, t }"] + [
        f"compound c{i} = ordered {{ c{i - 1}, c{i - 1} }}" for i in range(1, 14)
    ]
    spec = make(tasks=" ".join(defs), mission_task="c13")
    assert errors_of(spec) == [
        f"mission expands to 16384 task instances; the limit is {MAX_INSTANCES}"
    ]


def test_probability_out_of_range():
    assert any("1.3" in e for e in errors_of(make(prob="1.3")))


def test_duplicate_ids_reported():
    spec = make(world="loc a (9, 9)", robots="robot r at b velocity 2 { can t time 1 prob 1 }")
    msgs = errors_of(spec)
    assert any("duplicate location id 'a'" in e for e in msgs)
    assert any("duplicate robot id 'r'" in e for e in msgs)


def test_dangling_references():
    spec = make(mission_task="ghost")
    assert any("unknown task 'ghost'" in e for e in errors_of(spec))


def test_missing_time_budget():
    spec = make(constraints="maxidle all 5")
    assert any("exactly one time budget" in e for e in errors_of(spec))


def test_capability_coverage():
    spec = make(tasks="atomic heavy robots 2", mission_task="heavy",
                robots="robot s at b velocity 1 { can heavy time 1 prob 1 }")
    msgs = errors_of(spec)
    assert any("needs 2 robots but only 1" in e for e in msgs)


def test_malformed_boundary_rect():
    spec = make(constraints="time 10; boundary all (5, 0) (0, 5)")
    assert any("not well-formed" in e for e in errors_of(spec))


def test_distance_completion_euclidean_ceil():
    # a=(0,0), b=(3,4): no declared entry, filled as exactly 5
    v = validate_problem(make())
    assert v.distance("a", "b") == 5
    assert v.distance("b", "a") == 5


def test_distance_completion_never_overwrites():
    v = validate_problem(make(world="dist a b = 9"))
    assert v.distance("a", "b") == 9


@pytest.mark.parametrize(
    "name", ["constraints", "hospital", "infeasible_time", "minimal"]
)
def test_every_fixture_pair_reads_declared_or_straight_line(fixtures_dir, name):
    spec = parse_problem((fixtures_dir / f"{name}.kanoa").read_text())
    v = validate_problem(spec)
    declared = {}
    for d in spec.distances:
        declared[(d.frm, d.to)] = declared[(d.to, d.frm)] = d.distance
    for a in spec.locations:
        for b in spec.locations:
            want = 0 if a == b else declared.get((a.id, b.id), euclidean_ceil(a, b))
            assert v.distance(a.id, b.id) == v.distance(b.id, a.id) == want


MANY_LOCATIONS = """
import sys, tracemalloc
from kanoa.cli import main
from kanoa.parser import parse_problem
from kanoa.validation import validate_problem

spec = parse_problem(open(sys.argv[1], encoding="utf-8").read())
tracemalloc.start()
v = validate_problem(spec)
print(tracemalloc.get_traced_memory()[1], v.distance("l0", "l19999"), flush=True)
tracemalloc.stop()
sys.exit(main(["plan", "--input", sys.argv[1], "--out", sys.argv[2],
               "--allocations", "1", "--permutations", "1", "--pop", "4",
               "--gens", "1"]))
"""


def test_many_locations_validate_small_and_plan(tmp_path):
    # validation used to store all 20,000 * 19,999 directed location pairs
    # and ran out of a 2 GB address-space limit; the child gets 1 GB
    mission = tmp_path / "many.kanoa"
    mission.write_text(many_locations_text(20_000), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-c", MANY_LOCATIONS, str(mission), str(tmp_path / "out")],
        capture_output=True, text=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(
            resource.RLIMIT_AS, (1 << 30, 1 << 30)
        ),
    )
    assert proc.returncode == 0, proc.stderr
    peak, far = proc.stdout.split()[:2]
    assert int(peak) < 20_000 * 1024  # under 1 KB per location
    assert int(far) == 223  # l19999 is at (199, 99): ceil(sqrt(199^2 + 99^2))
    assert (tmp_path / "out" / "plan_0.json").exists()


def test_duplicate_distance_pair():
    spec = make(world="dist a b = 9 dist b a = 9")
    assert any("duplicate distance entry" in e for e in errors_of(spec))


def test_error_order_deterministic():
    spec = make(prob="1.3", mission_task="ghost", constraints="maxidle all 5")
    assert errors_of(spec) == errors_of(spec)


def test_travel_time_ceiling():
    v = validate_problem(make(robots="robot q at b velocity 2 { can t time 1 prob 1 }"))
    r = v.robot("q")
    # distance 5 at velocity 2 -> ceil(2.5) = 3
    assert travel_time(v, r, "a", "b") == 3
    assert travel_time(v, r, "b", "b") == 0


def test_max_idle_tightest_applies(fixtures_dir):
    v = validate_problem(
        parse_problem((fixtures_dir / "constraints.kanoa").read_text())
    )
    assert v.max_idle("beta") == 10
    assert v.max_idle("alpha") == 20
    assert v.location_allowed("gamma", "east")
    assert not v.location_allowed("gamma", "north")  # outside gamma's boundary
