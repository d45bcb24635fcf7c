import csv
import io
import json
import os
import random
import re
import resource
import signal
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from helpers import (
    assert_golden_artifacts, compound_chain_text, perfbench_mission, wide_joint_task_text,
)
from oracles import encode, pareto_document, pareto_table, plan_document
from hypothesis import given, settings
from hypothesis import strategies as st

import kanoa.cli
from kanoa.allocation import MAX_ALLOCATED_INSTANCES, AllocatorConfig
from kanoa.cli import _FIELDS, _read_config, _resolve, build_parser
from kanoa.cli import main as cli_main
from kanoa.gantt import _TEXT_MAX_SPAN, emit_gantt, format_gantt_text
from kanoa.mdp import DEFAULT_STATE_CAP
from kanoa.optimizer import (
    MAX_POPULATION, Chromosome, GaConfig, Objectives, ParetoEntry, ParetoFront,
)
from kanoa.plans import Plan, PlanEvent
from kanoa.reporting import (
    PipelineConfig, RunReport, render_csv, render_json, render_plan_json, run,
)
from kanoa.validation import MAX_INSTANCES

GOLDEN = Path(__file__).parent / "golden"

FAST = PipelineConfig(
    allocations=4, permutations=4, population=8, generations=2, seed=0
)


@pytest.fixture(scope="module")
def hospital_run(hospital_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("hospital_run")
    report = run(hospital_path, FAST, out)
    return report, out


def test_artifacts_exist(hospital_run):
    report, out = hospital_run
    names = {p.name for p in out.iterdir()}
    assert {"pareto.csv", "pareto.json", "report.txt", "instances.json"} <= names
    for k in range(len(report.front.entries)):
        assert f"plan_{k}.json" in names
        assert f"plan_{k}.svg" in names


def test_csv_and_json_identical_data(hospital_run):
    report, out = hospital_run
    with open(out / "pareto.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    data = json.loads((out / "pareto.json").read_text())["entries"]
    assert len(rows) == len(data)
    for row, entry in zip(rows, data):
        assert int(row["Allocation"]) == entry["allocation"]
        assert int(row["Permutation"]) == entry["permutation"]
        assert float(row["Probability of failure"]) == entry["probability_of_failure"]
        assert int(row["Idling"]) == entry["idling"]
        assert int(row["Travel"]) == entry["travel"]


def test_csv_header_matches_table_columns(hospital_run):
    _, out = hospital_run
    header = (out / "pareto.csv").read_text().splitlines()[0]
    assert header == "Allocation,Permutation,Probability of failure,Idling,Travel"


def test_front_sorted(hospital_run):
    report, _ = hospital_run
    keys = [e.objectives.as_tuple() for e in report.front.entries]
    assert keys == sorted(keys)


def test_rerun_byte_identical(hospital_path, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run(hospital_path, FAST, out_a)
    run(hospital_path, FAST, out_b)
    for name in ("pareto.csv", "pareto.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_plan_json_schema(hospital_run):
    report, out = hospital_run
    payload = json.loads((out / "plan_0.json").read_text())
    assert set(payload) == {"allocation", "permutation", "objectives", "timelines"}
    for robot, events in payload["timelines"].items():
        clock = 0
        for ev in events:
            assert ev["start"] == clock
            clock = ev["end"]
            assert ev["kind"] in {"travel", "execute", "idle", "jointSync"}


def test_dump_flags(hospital_path, tmp_path):
    cfg = PipelineConfig(
        allocations=3, permutations=3, population=8, generations=2, seed=0,
        dump_allocations=True, dump_mdp=True,
    )
    report = run(hospital_path, cfg, tmp_path)
    assert (tmp_path / "allocations.json").exists()
    allocs = json.loads((tmp_path / "allocations.json").read_text())
    assert len(allocs) == 3
    for entry in report.front.entries:
        a, p = entry.chromosome.alloc_idx, entry.chromosome.perm_idx
        assert (tmp_path / f"mdp_{a}_{p}_0.txt").exists()


def test_run_report_fields(hospital_run):
    report, _ = hospital_run
    assert isinstance(report, RunReport)
    assert RunReport._fields == ("front", "timings", "allocation_count")
    assert report.front.entries
    assert report.allocation_count == FAST.allocations


def test_run_report_timings_name_every_stage(hospital_run):
    # the benchmark's setup_s adds every stage but optimize
    report, _ = hospital_run
    assert list(report.timings) == ["parse", "validate", "expand", "allocate", "optimize"]
    assert all(secs >= 0 for secs in report.timings.values())


@pytest.mark.parametrize("name, allocations, searched", [
    ("minimal.kanoa", 30, 1),  # one feasible allocation
    ("hospital.kanoa", 3, 3),
])
def test_run_report_allocation_count(fixtures_dir, tmp_path, name, allocations, searched):
    cfg = PipelineConfig(
        allocations=allocations, permutations=2, population=4, generations=1,
        dump_allocations=True,
    )
    report = run(fixtures_dir / name, cfg, tmp_path)
    assert report.allocation_count == searched
    assert len(json.loads((tmp_path / "allocations.json").read_text())) == searched
    text = (tmp_path / "report.txt").read_text()
    assert f"\nallocations searched: {searched}\n" in text


def test_mdp_dump_format(hospital_path, tmp_path):
    cfg = PipelineConfig(
        allocations=3, permutations=3, population=8, generations=2, seed=0,
        dump_mdp=True,
    )
    report = run(hospital_path, cfg, tmp_path)
    a, p = (report.front.entries[0].chromosome.alloc_idx,
            report.front.entries[0].chromosome.perm_idx)
    lines = (tmp_path / f"mdp_{a}_{p}_0.txt").read_text().splitlines()
    assert lines[0].startswith("mdp states=")
    labels = [l for l in lines if l.startswith("label ")]
    assert any(l.startswith("label done") for l in labels)
    assert any(l.startswith("label success") for l in labels)
    body = [l for l in lines[1:] if not l.startswith("label ")]
    for line in body:
        parts = line.split()
        assert len(parts) == 6  # state action prob state' travel idle
        int(parts[0]); float(parts[2]); int(parts[3]); int(parts[4]); int(parts[5])


# -- gantt --------------------------------------------------------------------


def small_plan():
    return Plan({
        "r1": (PlanEvent("travel", 0, 3, None, "dock", "room1"),
               PlanEvent("idle", 3, 5),
               PlanEvent("jointSync", 5, 9, "lift_0"),
               PlanEvent("travel", 9, 12, None, "room1", "room2"),
               PlanEvent("execute", 12, 16, "scan_0")),
        "r2": (PlanEvent("travel", 0, 5, None, "dock", "room1"),
               PlanEvent("jointSync", 5, 9, "lift_0")),
    })


def test_gantt_golden_bytes():
    got = emit_gantt(small_plan(), title="golden")
    assert got == (GOLDEN / "gantt_small.svg").read_text()


def test_gantt_empty_plan_header_only():
    svg = emit_gantt(Plan({}), title="empty")
    assert svg.startswith("<svg")
    assert "rect x=" not in svg  # no bars
    assert "empty" in svg


def test_gantt_deterministic():
    assert emit_gantt(small_plan()) == emit_gantt(small_plan())


def test_text_gantt_shape():
    text = format_gantt_text(small_plan())
    lines = text.splitlines()
    assert lines[0].lstrip().startswith("r1")
    assert "J" in lines[0] and "#" in lines[0]
    assert lines[1].count("J") == 4


def test_text_gantt_width_limit():
    def solo(span):
        return Plan({"r1": (PlanEvent("execute", 0, span, "t_0"),)})

    chart = format_gantt_text(solo(_TEXT_MAX_SPAN)).splitlines()
    assert chart[0] == f"{'r1':>8} |{'#' * _TEXT_MAX_SPAN}|"
    assert format_gantt_text(solo(_TEXT_MAX_SPAN + 1)) == (
        f"makespan {_TEXT_MAX_SPAN + 1} is too wide for a text chart "
        f"of {_TEXT_MAX_SPAN} columns\n"
    )


def test_cli_long_makespan_keeps_report_small(fixtures_dir, tmp_path, capsys):
    mission = tmp_path / "long.kanoa"
    mission.write_text(
        (fixtures_dir / "minimal.kanoa").read_text(encoding="utf-8")
        .replace("can check time 3", "can check time 900000")
        .replace("time 10\n", "time 1000000\n")
    )
    out = tmp_path / "out"
    code = cli_main(["plan", "--input", str(mission), "--out", str(out),
                     "--permutations", "1"])
    assert code == 0, capsys.readouterr().err
    assert json.loads((out / "pareto.json").read_text())["entries"] == [{
        "allocation": 0, "permutation": 0, "probability_of_failure": 0.09999999999999998,
        "idling": 0, "travel": 0,
    }]
    report = (out / "report.txt").read_text()
    assert len(report) < 4096
    assert "makespan 900000 is too wide for a text chart" in report


def test_svg_gantt_width_is_capped(fixtures_dir, tmp_path):
    """A 900,000,000-unit plan is drawn on the canvas of a 1,000-unit one:
    9 px per unit plus the 90 px lane labels and the 30 px right margin."""
    mission = tmp_path / "long.kanoa"
    mission.write_text(
        (fixtures_dir / "minimal.kanoa").read_text(encoding="utf-8")
        .replace("can check time 3", "can check time 900000000")
        .replace("time 10\n", "time 1000000000\n")
    )
    out = tmp_path / "out"
    run(mission, PipelineConfig(permutations=1), out)
    svg = (out / "plan_0.svg").read_text()
    width = int(re.search(r'<svg [^>]*width="(\d+)"', svg).group(1))
    assert width <= 9000 + 90 + 30
    bars = re.findall(r'<rect x="(\d+)" y="\d+" width="(\d+)"', svg)
    assert bars and all(int(x) + int(w) <= width for x, w in bars)


# -- cli ----------------------------------------------------------------------


def test_cli_success_exit_zero(hospital_path, tmp_path, capsys):
    code = cli_main([
        "plan", "--input", str(hospital_path), "--out", str(tmp_path),
        "--allocations", "3", "--permutations", "3",
        "--pop", "8", "--gens", "2", "--seed", "0",
    ])
    assert code == 0
    assert (tmp_path / "pareto.csv").exists()
    assert "pareto front" in capsys.readouterr().out


def test_cli_syntax_error_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.kanoa"
    bad.write_text("world { loc }")
    code = cli_main(["plan", "--input", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert "bad.kanoa" in err and "expected" in err


def test_cli_validation_error_exit_one(tmp_path, capsys):
    bad = tmp_path / "invalid.kanoa"
    bad.write_text(
        "world { loc a (0,0) } tasks { atomic t robots 1 }"
        " robots { robot r at a velocity 1 { can t time 1 prob 1.7 } }"
        " mission { task t at a; time 5 }"
    )
    code = cli_main(["plan", "--input", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "1.7" in capsys.readouterr().err


def test_cli_missing_file_exit_one(tmp_path, capsys):
    code = cli_main(["plan", "--input", str(tmp_path / "nope.kanoa"),
                     "--out", str(tmp_path / "o")])
    assert code == 1


def test_cli_infeasible_exit_two(fixtures_dir, tmp_path, capsys):
    code = cli_main([
        "plan", "--input", str(fixtures_dir / "infeasible_time.kanoa"),
        "--out", str(tmp_path),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "no feasible plan: no feasible chromosome among 20 evaluated (20 infeasible)\n"


def test_cli_state_cap_exit_one_names_the_cap(fixtures_dir, tmp_path, capsys):
    # the search builds no model; the failure-lumped chain built for the
    # front's plan of minimal.kanoa has 2 states
    code = cli_main([
        "plan", "--input", str(fixtures_dir / "minimal.kanoa"),
        "--out", str(tmp_path), "--state-cap", "1",
    ])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: state cap 1 exceeded for cluster {r1}\n"
    )


def test_cli_dump_over_state_cap_exit_one(fixtures_dir, tmp_path, capsys):
    # the front's 2-state chains fit under the cap, but --dump-mdp writes
    # the full model, which has 4
    code = cli_main([
        "plan", "--input", str(fixtures_dir / "minimal.kanoa"),
        "--out", str(tmp_path), "--state-cap", "3", "--dump-mdp",
    ])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: cannot write mdp_0_0_0.txt: the full model of cluster {r1} "
        "exceeds the state cap of 3\n"
    )
    assert (tmp_path / "pareto.csv").exists()
    assert not list(tmp_path.glob("mdp_*.txt"))


def test_cli_out_of_memory_exit_one(fixtures_dir, tmp_path, capsys, monkeypatch):
    # a run that exhausts memory ends in one line naming what to lower
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(kanoa.cli, "run", exhausted)
    code = cli_main([
        "plan", "--input", str(fixtures_dir / "minimal.kanoa"), "--out", str(tmp_path),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err == (
        "error: out of memory while planning; lower --allocations, "
        "--permutations or --pop\n"
    )
    assert "Traceback" not in err


def test_cli_non_utf8_input_exit_one(tmp_path, capsys):
    bad = tmp_path / "latin.kanoa"
    bad.write_bytes(b"\xff\xfe")
    code = cli_main(["plan", "--input", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad} is not UTF-8 text") and err.count("\n") == 1


def test_cli_no_eligible_robot_exit_two(tmp_path, capsys):
    # the only robot's boundary excludes the only task location
    mission = tmp_path / "fenced.kanoa"
    mission.write_text(
        "world { loc depot (0,0) loc ward (5,0) }"
        " tasks { atomic check robots 1 }"
        " robots { robot r1 at depot velocity 1 { can check time 3 prob 0.9 } }"
        " mission { task check at ward; time 10; boundary r1 (-1, -1) (1, 1) }"
    )
    code = cli_main(["plan", "--input", str(mission), "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err == (
        "no feasible plan: instance 'check_0' needs 1 robots "
        "but only 0 are eligible\n"
    )


@pytest.mark.parametrize("flags", [
    ["--pop", "5"], ["--allocations", "0"], ["--permutations", "0"],
    ["--state-cap", "0"],
])
def test_cli_bad_config_value_exit_one(hospital_path, tmp_path, capsys, flags):
    code = cli_main(["plan", "--input", str(hospital_path),
                     "--out", str(tmp_path), *flags])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "pareto.csv").exists()


def test_cli_bad_env_seed_exit_one(hospital_path, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("KANOA_SEED", "abc")
    code = cli_main(["plan", "--input", str(hospital_path), "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: KANOA_SEED must be an integer, got 'abc'\n"
    )


@pytest.mark.parametrize("raw", ["2.9", "true", '"abc"', "null"])
def test_cli_bad_config_file_value_exit_one(hospital_path, tmp_path, capsys, raw):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"gens": {raw}}}')
    code = cli_main(["plan", "--input", str(hospital_path),
                     "--out", str(tmp_path), "--config", str(cfg)])
    assert code == 1
    got = json.loads(raw)
    assert capsys.readouterr().err == (
        f"error: config key 'gens' must be an integer, got {got!r}\n"
    )


@pytest.mark.parametrize("raw", ["5", "[1]", '{"population": 7}'])
def test_cli_bad_config_file_shape_exit_one(fixtures_dir, tmp_path, capsys, raw):
    # a config file holds one JSON object with only the documented keys
    # ("pop", not the PipelineConfig field name "population")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(raw)
    out = tmp_path / "out"
    code = cli_main(["plan", "--input", str(fixtures_dir / "minimal.kanoa"),
                     "--out", str(out), "--config", str(cfg)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {cfg} ") and err.count("\n") == 1
    assert not out.exists()


def test_cli_non_utf8_config_exit_one(fixtures_dir, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b"\xff\xfe")
    code = cli_main(["plan", "--input", str(fixtures_dir / "minimal.kanoa"),
                     "--out", str(tmp_path / "out"), "--config", str(cfg)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config {cfg}: ")
    assert err.count("\n") == 1


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
)
CONFIG_BYTES = st.one_of(
    # mostly objects over the known keys, so values reach _resolve
    st.dictionaries(st.sampled_from(sorted(_FIELDS)), JSON_VALUES, max_size=6),
    st.dictionaries(st.sampled_from(sorted(_FIELDS)) | st.text(), JSON_VALUES),
    JSON_VALUES,
).map(lambda value: json.dumps(value).encode()) | st.binary(max_size=40)
# what os.environ can hold: no NUL, no lone surrogate
ENV_TEXT = st.integers().map(str) | st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00")
)
ENV_VALUES = st.dictionaries(
    st.sampled_from([f"KANOA_{key.upper()}" for key in _FIELDS]), ENV_TEXT
)


PLAN_ARGS = build_parser().parse_args(["plan", "--input", "m", "--out", "o"])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(raw=CONFIG_BYTES, env=ENV_VALUES)
def test_config_inputs_build_or_raise_value_error(raw, env):
    """A config file's bytes and KANOA_* values either build a
    PipelineConfig or raise ValueError, which main reports as exit 1."""
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, env):
        path = Path(tmp) / "cfg.json"
        path.write_bytes(raw)
        try:
            cfg = PipelineConfig(**_resolve(PLAN_ARGS, _read_config(path)))
        except ValueError:
            return
    assert isinstance(cfg.seed, int) and 4 <= cfg.population <= MAX_POPULATION


def test_config_defaults():
    cfg = PipelineConfig()
    assert (cfg.allocations, cfg.permutations, cfg.population, cfg.generations,
            cfg.seed, cfg.state_cap, cfg.dump_allocations, cfg.dump_mdp) == (
        30, 20, 50, 5, 0, DEFAULT_STATE_CAP, False, False)
    ga = GaConfig()
    assert (ga.population_size, ga.generations, ga.permutations_per_allocation,
            ga.seed) == (50, 5, 20, 0)
    assert AllocatorConfig().max_allocations == 30


@pytest.mark.parametrize("make, kwargs", [
    (GaConfig, {"population_size": 5}),
    (GaConfig, {"population_size": 2}),
    (GaConfig, {"population_size": MAX_POPULATION + 2}),
    (GaConfig, {"generations": -1}),
    (GaConfig, {"permutations_per_allocation": 0}),
    (AllocatorConfig, {"max_allocations": 0}),
    (PipelineConfig, {"population": 7}),
    (PipelineConfig, {"population": MAX_POPULATION + 2}),
    (PipelineConfig, {"population": 2}),
    (PipelineConfig, {"generations": -1}),
    (PipelineConfig, {"permutations": 0}),
    (PipelineConfig, {"allocations": 0}),
    (PipelineConfig, {"state_cap": 0}),
])
def test_config_rejects_out_of_range(make, kwargs):
    with pytest.raises(ValueError):
        make(**kwargs)


def test_config_accepts_smallest_values():
    cfg = PipelineConfig(allocations=1, permutations=1, population=4, generations=0,
                         state_cap=1)
    assert (cfg.allocations, cfg.permutations, cfg.population, cfg.generations,
            cfg.state_cap) == (1, 1, 4, 0, 1)
    ga = cfg.ga()
    assert (ga.population_size, ga.generations, ga.permutations_per_allocation,
            ga.seed) == (4, 0, 1, 0)


def test_config_accepts_largest_population():
    assert GaConfig(population_size=MAX_POPULATION).population_size == MAX_POPULATION
    assert PipelineConfig(population=MAX_POPULATION).ga().population_size == (
        MAX_POPULATION
    )


@pytest.mark.parametrize("source", ["flag", "env", "config"])
def test_cli_population_limit_exit_one(fixtures_dir, tmp_path, source):
    # a population of 100 million ran out of memory drawing its first
    # members and left instances.json behind; the child gets 768 MB of
    # address space, so a broken limit fails the test, not the machine
    out = tmp_path / "out"
    argv = [sys.executable, "-m", "kanoa.cli", "plan",
            "--input", str(fixtures_dir / "minimal.kanoa"), "--out", str(out),
            "--gens", "1"]
    env = dict(os.environ)
    if source == "flag":
        argv += ["--pop", "100000000"]
    elif source == "env":
        env["KANOA_POP"] = "100000000"
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"pop": 100000000}')
        argv += ["--config", str(cfg)]
    proc = subprocess.run(
        argv, capture_output=True, text=True, timeout=60, env=env,
        preexec_fn=lambda: resource.setrlimit(
            resource.RLIMIT_AS, (768 << 20, 768 << 20)
        ),
    )
    assert proc.returncode == 1
    assert proc.stderr == f"error: population_size must be at most {MAX_POPULATION}\n"
    assert not out.exists()


FIXTURE_TEXTS = {
    p.name: p.read_text(encoding="utf-8")
    for p in sorted((Path(__file__).parent.parent / "fixtures").glob("*.kanoa"))
}
TOKEN = re.compile(r"[A-Za-z_]\w*|\d+(?:\.\d+)?|\S")
# numbers that no fixture holds, malformed ones among them
ODD_NUMBERS = ["-1", "0", "0.0", "1.5", "99999", "1e3", "2.", "0.", "1.2.3", "0.9.5"]
# digits of other scripts, and a comment that runs to the end of its line
ODD_TEXT = ["²", "١", "1.²", "// c"]
VOCAB = sorted(
    {m.group() for text in FIXTURE_TEXTS.values() for m in TOKEN.finditer(text)}
    | set(ODD_NUMBERS) | set(ODD_TEXT)
)


@st.composite
def mutated_missions(draw):
    """A fixture's text with one token replaced or deleted, or one line
    duplicated.  Half the draws aim at a number, and a third of the
    replacements are odd numbers and a third odd text: number literals are
    where hand-found bugs were."""
    text = FIXTURE_TEXTS[draw(st.sampled_from(sorted(FIXTURE_TEXTS)))]
    kind = draw(st.sampled_from(["replace", "delete", "duplicate"]))
    if kind == "duplicate":
        lines = text.splitlines(keepends=True)
        i = draw(st.integers(0, len(lines) - 1))
        return "".join(lines[: i + 1] + lines[i:])
    tokens = list(TOKEN.finditer(text))
    numbers = [t for t in tokens if t.group()[0].isdigit()]
    token = draw(st.sampled_from(numbers) | st.sampled_from(tokens))
    new = ""
    if kind == "replace":
        new = draw(
            st.sampled_from(ODD_NUMBERS) | st.sampled_from(ODD_TEXT)
            | st.sampled_from(VOCAB)
        )
    return text[: token.start()] + new + text[token.end():]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(text=mutated_missions())
def test_mutated_missions_end_in_exit_code_and_diagnostics(text):
    """A mutated mission plans (exit 0, silent stderr) or is refused
    (exit 1 or 2) with diagnostics only: no traceback reaches the user."""
    with tempfile.TemporaryDirectory() as tmp:
        mission = Path(tmp) / "mission.kanoa"
        mission.write_text(text, encoding="utf-8")
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = cli_main([
                "plan", "--input", str(mission), "--out", str(Path(tmp) / "out"),
                "--allocations", "2", "--permutations", "2", "--pop", "4",
                "--gens", "1", "--seed", "0", "--state-cap", "20000",
            ])
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2)
    if code == 0:
        assert lines == []
    else:
        assert lines
        for line in lines:
            assert line.startswith((str(mission), "error:", "no feasible plan:")), line


INVALID_MISSION = (
    "world { loc a (0,0) } tasks { atomic t robots 1 }"
    " robots { robot r at a velocity 1 { can t time 1 prob 1.7 } }"
    " mission { task t at a; time 5 }"
)


@pytest.mark.parametrize("content", [
    None, b"\xff\xfe", b"world { loc }", INVALID_MISSION.encode(),
], ids=["missing", "non_utf8", "syntax", "validation"])
def test_cli_rejected_input_leaves_no_out_dir(tmp_path, capsys, content):
    mission = tmp_path / "mission.kanoa"
    if content is not None:
        mission.write_bytes(content)
    out = tmp_path / "out"
    code = cli_main(["plan", "--input", str(mission), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("old, new", [
    ("prob 0.9", "prob 0.9.5"), ("velocity 1", "velocity 1.2.3"),
], ids=["prob", "velocity"])
def test_cli_number_with_two_dots_exit_one(fixtures_dir, tmp_path, capsys, old, new):
    mission = tmp_path / "mission.kanoa"
    text = (fixtures_dir / "minimal.kanoa").read_text(encoding="utf-8")
    mission.write_text(text.replace(old, new), encoding="utf-8")
    out = tmp_path / "out"
    code = cli_main(["plan", "--input", str(mission), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "malformed number" in err
    assert not out.exists()


@pytest.mark.parametrize("old, new", [
    ("prob 0.9", "prob 0."), ("velocity 1", "velocity 2."),
], ids=["prob", "velocity"])
def test_cli_number_ending_in_dot_exit_one(fixtures_dir, tmp_path, capsys, old, new):
    mission = tmp_path / "mission.kanoa"
    text = (fixtures_dir / "minimal.kanoa").read_text(encoding="utf-8")
    mission.write_text(text.replace(old, new), encoding="utf-8")
    out = tmp_path / "out"
    code = cli_main(["plan", "--input", str(mission), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"malformed number {new.split()[-1]!r}" in err
    assert not out.exists()


# past Python's limit of 4,300 digits in an integer string
NINES = "9" * 5000


@pytest.mark.parametrize("old, new, at", [
    ("time 10", f"time {NINES}", "15:8"),
    ("(0, 0)", f"({NINES}, 0)", "3:14"),
    ("velocity 1", f"velocity {NINES}", "9:30"),
    ("velocity 1", f"velocity 1/{NINES}", "9:32"),
    ("velocity 1", f"velocity 1.{NINES}", "9:30"),
], ids=["time", "coordinate", "velocity", "denominator", "decimal"])
def test_cli_number_past_digit_limit_exit_one(fixtures_dir, tmp_path, capsys, old, new, at):
    mission = tmp_path / "mission.kanoa"
    text = (fixtures_dir / "minimal.kanoa").read_text(encoding="utf-8")
    mission.write_text(text.replace(old, new), encoding="utf-8")
    out = tmp_path / "out"
    code = cli_main(["plan", "--input", str(mission), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"{mission}:{at}: number too long")
    assert not out.exists()


@pytest.mark.parametrize("extra, message", [
    (["--out", "o", "--pop", "abc"], "argument --pop: invalid int value: 'abc'"),
    ([], "the following arguments are required: --out"),
    (["--out", "o", "--seed", NINES], "argument --seed: invalid int value"),
], ids=["pop_not_integer", "missing_out", "seed_past_digit_limit"])
def test_cli_argument_error_exit_one(tmp_path, capsys, monkeypatch, extra, message):
    """A command-line error is an input error: exit 1 and one line, not
    argparse's exit 2, which would read as "no feasible plan"."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        cli_main(["plan", "--input", "m", *extra])
    assert info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"kanoa plan: error: {message}")
    assert not (tmp_path / "o").exists()


def test_cli_help_still_exit_zero(capsys):
    with pytest.raises(SystemExit) as info:
        cli_main(["plan", "--help"])
    assert info.value.code == 0
    assert "--input" in capsys.readouterr().out


@pytest.mark.parametrize("old, new, position", [
    ("(0, 0)", "(0, ²)", "3:17: unexpected character '²'"),
    ("velocity 1", "velocity ١", "9:30: unexpected character '١'"),
    ("velocity 1", "velocity 1.²", "9:32: unexpected character '²'"),
], ids=["superscript", "arabic_indic", "superscript_after_dot"])
def test_cli_non_ascii_digit_exit_one(fixtures_dir, tmp_path, capsys, old, new, position):
    mission = tmp_path / "mission.kanoa"
    text = (fixtures_dir / "minimal.kanoa").read_text(encoding="utf-8")
    mission.write_text(text.replace(old, new), encoding="utf-8")
    out = tmp_path / "out"
    code = cli_main(["plan", "--input", str(mission), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"{mission}:{position}\n"
    assert not out.exists()


@pytest.mark.parametrize("depth, reverse", [(600, False), (1200, True)],
                         ids=["600_upward", "1200_downward"])
def test_cli_deep_nesting_exit_one(tmp_path, capsys, depth, reverse):
    # the upward chain used to overflow the recursion of mission expansion,
    # the downward one that of the cycle check
    mission = tmp_path / "deep.kanoa"
    mission.write_text(compound_chain_text(depth, reverse))
    out = tmp_path / "out"
    code = cli_main(["plan", "--input", str(mission), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"{mission}: mission task 'c{depth - 1}' nests compound tasks {depth} "
        "deep; the limit is 100\n"
    )
    assert not out.exists()


def test_cli_instance_limit_exit_one_quickly(tmp_path):
    # 14 levels of c{i} = ordered { c{i-1}, c{i-1} } expand to 16,384
    # instances; the limit must reject them before anything expands.  The
    # child gets 1 GB of address space, so a broken limit fails the test
    # instead of exhausting the machine.
    defs = ["compound c0 = ordered { x, x }"] + [
        f"compound c{i} = ordered {{ c{i - 1}, c{i - 1} }}" for i in range(1, 14)
    ]
    mission = tmp_path / "doubling.kanoa"
    mission.write_text(
        "world { loc a (0,0) } tasks { atomic x robots 1 " + " ".join(defs) + " }"
        " robots { robot r at a velocity 1 { can x time 1 prob 1 } }"
        " mission { task c13 at a; time 40000 }"
    )
    out = tmp_path / "out"
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "kanoa.cli", "plan", "--input", str(mission),
         "--out", str(out), "--allocations", "1", "--permutations", "1",
         "--pop", "4", "--gens", "1"],
        capture_output=True, text=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(
            resource.RLIMIT_AS, (1 << 30, 1 << 30)
        ),
    )
    assert time.perf_counter() - started < 10
    assert proc.returncode == 1
    assert proc.stderr == (
        f"{mission}: mission expands to 16384 task instances; "
        f"the limit is {MAX_INSTANCES}\n"
    )
    assert not out.exists()


def test_cli_allocation_limit_exit_one_quickly(hospital_path, tmp_path, capsys):
    # hospital has 19,131,876 feasible allocations of 14 instances; drawing
    # two million of them ran out of a 2 GB address-space limit, so the
    # request must be refused before any allocation is drawn
    class Hung(Exception):  # not an OSError, which the CLI would report
        pass

    def hung(signum, frame):
        raise Hung("the allocation limit did not stop the run")

    out = tmp_path / "out"
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(5)
    try:
        code = cli_main(["plan", "--input", str(hospital_path), "--out", str(out),
                         "--allocations", "2000000", "--permutations", "2",
                         "--pop", "4", "--gens", "1"])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 1
    assert capsys.readouterr().err == (
        f"{hospital_path}: 2000000 allocations of 14 task instances exceed the "
        f"limit of {MAX_ALLOCATED_INSTANCES} allocated instances; request at "
        f"most {MAX_ALLOCATED_INSTANCES // 14} allocations\n"
    )
    assert not out.exists()


def test_cli_large_population_front_is_quick(fixtures_dir, tmp_path, capsys):
    # every member of minimal's population is feasible, with one objective
    # vector; comparing every member with every other took 4-27 s, while
    # the whole run takes about 0.2 s
    class Hung(Exception):  # not an OSError, which the CLI would report
        pass

    def hung(signum, frame):
        raise Hung("the final front took too long")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(2)
    try:
        code = cli_main(["plan", "--input", str(fixtures_dir / "minimal.kanoa"),
                         "--out", str(tmp_path / "out"), "--pop", "2000",
                         "--gens", "1"])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 0, capsys.readouterr().err


def test_cli_allocation_limit_counts_feasible_allocations(fixtures_dir, tmp_path, capsys):
    # minimal has one feasible allocation, so a huge request draws just it
    out = tmp_path / "out"
    code = cli_main(["plan", "--input", str(fixtures_dir / "minimal.kanoa"),
                     "--out", str(out), "--allocations", "10000000",
                     "--dump-allocations"])
    assert code == 0, capsys.readouterr().err
    assert len(json.loads((out / "allocations.json").read_text())) == 1


def test_cli_wide_cluster_trips_state_cap_quickly(tmp_path):
    # one task for 80 robots at once.  The front's chain has 82 states, so
    # the run plans; the full model that --dump-mdp writes holds every
    # subset of arrived robots, 241 slots and up to 80 choices a state.
    # Counting plain states, it ran out of a 2 GB address-space limit
    # before the cap tripped; the child gets 1 GB.
    mission = tmp_path / "wide.kanoa"
    mission.write_text(wide_joint_task_text(80))

    def plan(out, *extra):
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "kanoa.cli", "plan", "--input", str(mission),
             "--out", str(out), "--allocations", "1", "--permutations", "1",
             "--pop", "4", "--gens", "0", *extra],
            capture_output=True, text=True, timeout=60,
            preexec_fn=lambda: resource.setrlimit(
                resource.RLIMIT_AS, (1 << 30, 1 << 30)
            ),
        )
        assert time.perf_counter() - started < 30
        return proc

    proc = plan(tmp_path / "out")
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "plan_0.json").exists()

    proc = plan(tmp_path / "dump", "--dump-mdp")
    assert proc.returncode == 1
    robots = ",".join(sorted(f"r{i}" for i in range(80)))
    assert proc.stderr == (
        "error: cannot write mdp_0_0_0.txt: the full model of cluster "
        f"{{{robots}}} exceeds the state cap of {DEFAULT_STATE_CAP}\n"
    )
    assert not list((tmp_path / "dump").glob("mdp_*.txt"))


def test_cli_nesting_at_limit_plans(tmp_path, capsys):
    mission = tmp_path / "deep.kanoa"
    mission.write_text(compound_chain_text(100, reverse=True))
    code = cli_main(["plan", "--input", str(mission), "--out", str(tmp_path / "out"),
                     "--allocations", "1", "--permutations", "1", "--pop", "4",
                     "--gens", "1"])
    assert code == 0, capsys.readouterr().err
    timeline = json.loads((tmp_path / "out" / "plan_0.json").read_text())["timelines"]["r"]
    assert [ev["instance"] for ev in timeline] == [f"x_{i}" for i in range(101)]


@pytest.mark.parametrize("seed", [0, 1])
def test_constraints_golden_artifacts(fixtures_dir, tmp_path, seed):
    """pareto.csv, pareto.json and plan_*.json of ``kanoa plan --input
    fixtures/constraints.kanoa --seed N`` at the default config, byte for
    byte.  Every golden plan has jointSync and idle events.  Seed 0 also
    runs with ``--dump-mdp``: its two model dumps hold every action kind
    (task, travel, idle, sync and recover)."""
    cfg = PipelineConfig(seed=seed, dump_mdp=seed == 0)
    run(fixtures_dir / "constraints.kanoa", cfg, tmp_path)
    assert_golden_artifacts(GOLDEN / f"constraints_seed{seed}", tmp_path)


# Single-robot tasks only, so every model is a bare chain and the NSGA-II
# ranking is most of the run.  Robot r3 cannot wipe, and a budget of 20
# leaves many chromosomes infeasible.
SOLO_TASKS = """
world { loc depot (0,0) loc a (6,0) loc b (0,8) loc c (6,8) loc d (3,4) }
tasks { atomic scan robots 1 atomic wipe robots 1 }
robots {
  robot r1 at depot velocity 1 { can scan time 2 prob 0.95 can wipe time 3 prob 0.9 }
  robot r2 at depot velocity 2 { can scan time 3 prob 0.85 can wipe time 2 prob 0.97 }
  robot r3 at c velocity 1 { can scan time 1 prob 0.8 }
}
mission {
  task scan at a; task wipe at b; task scan at c; task wipe at d; task scan at d
  time 20
}
"""


def test_solo_tasks_golden_artifacts(tmp_path):
    """The NSGA-II front of a 60-chromosome space searched by a population
    of 40 for 6 generations: up to 8 fronts per ranking, and up to 70 of
    the 80 members of a combined population repeat another's chromosome."""
    mission = tmp_path / "solo.kanoa"
    mission.write_text(SOLO_TASKS)
    cfg = PipelineConfig(
        allocations=10, permutations=6, population=40, generations=6, seed=0
    )
    out = tmp_path / "out"
    run(mission, cfg, out)
    assert_golden_artifacts(GOLDEN / "solo_tasks_seed0", out)


@pytest.mark.parametrize("shape", ["fleet", "relay"])
def test_benchmark_shaped_golden_artifacts(tmp_path, shape):
    """The front of a small run of a benchmark-shaped mission, stored with
    its mission text: ``perfbench/missions.fleet_text(3)`` (single-robot
    tasks, ten robots) and ``relay_text(3)`` (pick -> drop orders that
    couple robots), at ``--allocations 6 --permutations 4 --pop 12 --gens 4
    --seed 2``."""
    golden = GOLDEN / f"{shape}_seed2"
    cfg = PipelineConfig(allocations=6, permutations=4, population=12, generations=4, seed=2)
    run(golden / "mission.kanoa", cfg, tmp_path)
    assert_golden_artifacts(golden, tmp_path)


# -- the template writers against json.dumps and csv.writer ---------------------

# identifiers with non-ASCII letters (the tokenizer accepts any Unicode
# letter), one outside the Basic Multilingual Plane, and characters json
# escapes by name
NAMES = ["r1", "küche", "Ωmega_2", "仓库", "x_ß", "𝔘bot", 'q"uote', "back\\slash", "tab\tnl\n"]
P_FAILS = [0.0, 1.0, 5e-324, 0.1 + 0.2] + [1 - 0.9**k for k in range(1, 9)]


def random_entry(rng):
    timelines = {}
    for robot in rng.sample(NAMES, rng.randint(0, 4)):
        clock, events = 0, []
        for _ in range(rng.randint(0, 4)):
            end = clock + rng.choice([0, 1, rng.randrange(10**6)])
            events.append(PlanEvent(
                rng.choice(["travel", "execute", "idle", "jointSync"]), clock, end,
                *(rng.choice([None, *NAMES]) for _ in range(3)),
            ))
            clock = end
        timelines[robot] = tuple(events)
    p_fail = rng.choice(P_FAILS + [rng.random()])
    return ParetoEntry(
        Chromosome(rng.randrange(10**4), rng.randrange(10**4)),
        Objectives(p_fail, rng.randrange(10**6), rng.randrange(10**9)),
        Plan(timelines),
    )


def test_template_writers_equal_json_and_csv_on_random_fronts():
    """plan_<k>.json and pareto.json are ``json.dumps(doc, indent=2)``
    and a newline, and pareto.csv is ``csv.writer``'s table, byte for
    byte: empty fronts, timelines and robots, events with and without
    instance, from and to, and every p_fail of ``P_FAILS``."""
    rng = random.Random(5)
    seen = set()
    for _ in range(400):
        front = ParetoFront(tuple(random_entry(rng) for _ in range(rng.randint(0, 4))))
        assert render_json(front) == encode(pareto_document(front))
        assert render_csv(front) == pareto_table(front)
        for entry in front.entries:
            assert render_plan_json(entry) == encode(plan_document(entry))
            seen.add(entry.objectives.p_fail)
            seen.update(k for tl in plan_document(entry)["timelines"].values()
                        for ev in tl for k in ev)
    assert set(P_FAILS) <= seen
    assert {"instance", "from", "to"} <= seen


UNICODE_IDS = """
world { loc küche (0,0) loc säal (3,4) loc 仓库 (6,0) }
tasks { atomic wäsche robots 1 atomic λift robots 2 }
robots {
  robot röbi at küche velocity 1 { can wäsche time 2 prob 0.9 can λift time 1 prob 0.8 }
  robot 机器 at 仓库 velocity 3/2 { can wäsche time 3 prob 0.95 can λift time 2 prob 0.9 }
}
mission { task wäsche at säal; task λift at 仓库; time 40 }
"""


def test_artifacts_of_non_ascii_ids_are_json_dumps_bytes(tmp_path):
    """A mission whose robot, location and task ids hold non-ASCII
    letters writes ASCII JSON, ``\\uXXXX`` escapes included, equal to
    re-encoding each file with ``json.dumps(indent=2)``."""
    mission = tmp_path / "unicode.kanoa"
    mission.write_text(UNICODE_IDS, encoding="utf-8")
    run(mission, PipelineConfig(allocations=4, permutations=4, population=8), tmp_path / "out")
    written = sorted((tmp_path / "out").glob("*.json"))
    assert "plan_0.json" in [p.name for p in written]
    for path in written:
        raw = path.read_bytes()
        assert raw.isascii()
        assert raw.decode() == encode(json.loads(raw)), path.name
    assert "\\u00e4" in (tmp_path / "out" / "plan_0.json").read_text()


def test_reused_out_dir_keeps_only_this_runs_artifacts(fixtures_dir, tmp_path):
    """A second run into the same directory removes the first run's plans
    beyond its own front, its model dumps and allocations.json, and leaves
    every file that is not one of kanoa's artifact names."""
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    first = ["plan", "--input", str(fixtures_dir / "hospital.kanoa"), "--out", str(out),
             "--dump-mdp", "--dump-allocations"]
    assert cli_main(first) == 0
    names = {p.name for p in out.iterdir()}
    assert {"plan_1.json", "plan_1.svg", "allocations.json"} <= names
    assert any(n.startswith("mdp_") for n in names)
    foreign = {"notes.txt": "kept", "plan_01.json": "{}", "plan_x.svg": "", "mdp_1.txt": ""}
    for name, text in foreign.items():
        (out / name).write_text(text)
    for d in (out, fresh):
        args = ["plan", "--input", str(fixtures_dir / "minimal.kanoa"), "--out", str(d)]
        assert cli_main(args) == 0
    assert {p.name for p in out.iterdir()} == {p.name for p in fresh.iterdir()} | set(foreign)
    for name, text in foreign.items():
        assert (out / name).read_text() == text



@pytest.mark.parametrize("mission, flags, code, left", [
    ("infeasible_time", [], 2, {"instances.json"}),
    ("minimal", ["--state-cap", "1"], 1, {"instances.json"}),
    ("minimal", ["--state-cap", "3", "--dump-mdp"], 1,
     {"instances.json", "pareto.csv", "pareto.json", "report.txt", "plan_0.json", "plan_0.svg"}),
], ids=["infeasible", "state_cap", "dump_over_cap"])
def test_failed_run_into_reused_out_dir_leaves_only_its_own_files(
    fixtures_dir, tmp_path, capsys, mission, flags, code, left
):
    """A run that fails into a directory holding an earlier front leaves
    the files the same run leaves in a fresh directory, and every file
    that is not one of kanoa's artifact names: none of the earlier
    plans, tables, dumps or allocations.json."""
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    first = ["plan", "--input", str(fixtures_dir / "minimal.kanoa"), "--out", str(out),
             "--dump-mdp", "--dump-allocations"]
    assert cli_main(first) == 0
    assert {"plan_0.json", "mdp_0_0_0.txt", "allocations.json"} <= {p.name for p in out.iterdir()}
    foreign = {"notes.txt": "kept", "plan_01.json": "{}", "mdp_1.txt": ""}
    for name, text in foreign.items():
        (out / name).write_text(text)
    capsys.readouterr()
    for d in (out, fresh):
        args = ["plan", "--input", str(fixtures_dir / f"{mission}.kanoa"), "--out", str(d)]
        assert cli_main(args + flags) == code
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 2 and errors[0] == errors[1]
    assert {p.name for p in fresh.iterdir()} == left
    assert {p.name for p in out.iterdir()} == left | set(foreign)
    for name, text in foreign.items():
        assert (out / name).read_text() == text

def test_cli_env_override(hospital_path, tmp_path, monkeypatch):
    monkeypatch.setenv("KANOA_ALLOCATIONS", "2")
    monkeypatch.setenv("KANOA_PERMUTATIONS", "2")
    monkeypatch.setenv("KANOA_POP", "4")
    monkeypatch.setenv("KANOA_GENS", "1")
    code = cli_main(["plan", "--input", str(hospital_path),
                     "--out", str(tmp_path), "--dump-allocations"])
    assert code in (0, 2)  # tiny budgets may or may not find a plan
    allocs = json.loads((tmp_path / "allocations.json").read_text())
    assert len(allocs) == 2


def test_cli_config_file_and_flag_precedence(hospital_path, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"allocations": 2, "permutations": 2,
                               "pop": 4, "gens": 1}))
    out = tmp_path / "out"
    code = cli_main([
        "plan", "--input", str(hospital_path), "--out", str(out),
        "--config", str(cfg), "--allocations", "3", "--dump-allocations",
    ])
    assert code in (0, 2)
    allocs = json.loads((out / "allocations.json").read_text())
    assert len(allocs) == 3  # flag beats config file


def test_import_does_not_load_numpy():
    # numpy is a test-only dependency; the shipped package must not need it
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, kanoa; print('numpy' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_import_does_not_load_dataclasses():
    # kanoa's records are named tuples and __slots__ classes; dataclasses,
    # and the inspect module it pulls in, would add to every run's start-up
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; before = set(sys.modules); import kanoa; "
         "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("mission", ["hospital", "relay"])
def test_artifacts_do_not_depend_on_hash_seed(hospital_path, tmp_path, mission):
    """Runs under ``PYTHONHASHSEED`` 0 and 1 write the same bytes to every
    artifact but report.txt, whose timings differ, so no set or dict
    order of strings reaches a file.  The relay mission is sub-instance 0
    of the benchmark's basket, at its config."""
    args = ["--dump-mdp", "--dump-allocations"]
    if mission == "hospital":
        path = hospital_path
    else:
        text, cfg = perfbench_mission("relay")
        path = tmp_path / "relay.kanoa"
        path.write_text(text, encoding="utf-8")
        args += ["--allocations", str(cfg.allocations), "--permutations",
                 str(cfg.permutations), "--pop", str(cfg.population),
                 "--gens", str(cfg.generations), "--seed", str(cfg.seed)]
    written = []
    for hash_seed in ("0", "1"):
        out = tmp_path / f"out{hash_seed}"
        proc = subprocess.run(
            [sys.executable, "-m", "kanoa.cli", "plan", "--input", str(path),
             "--out", str(out), *args],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONHASHSEED=hash_seed),
        )
        assert proc.returncode == 0, proc.stderr
        written.append({p.name: p.read_bytes() for p in out.iterdir()})
    first, second = written
    assert sorted(first) == sorted(second)
    assert any(name.startswith("mdp_") for name in first)
    for name in sorted(first):
        if name != "report.txt":
            assert first[name] == second[name], name


def test_console_script_installed(hospital_path, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "kanoa.cli", "plan",
         "--input", str(hospital_path), "--out", str(tmp_path),
         "--allocations", "2", "--permutations", "2", "--pop", "4", "--gens", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode in (0, 2)
