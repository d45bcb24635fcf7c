"""Layered benchmark of ``kanoa.reporting.run``.

Usage, from the root of a kanoa checkout:

    python3 perfbench/run.py --workload {hospital,relay,fleet} --seed N \
        --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all --seed N --seconds S

A closed loop with one client: each run is a fresh ``child.py`` process,
started only after the previous one ended.  The seed picks a basket of
sub-instances (mission text and ``PipelineConfig.seed``); the loop cycles
through the basket until ``--seconds`` have passed, and always runs the
whole basket plus one repeat of its first member.  Runs of the same
sub-instance must write byte-identical pareto.csv, pareto.json and
plan_*.json.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json:

* ``plan_s``: wall time of the ``reporting.run`` call;
* ``setup_s``: ``import kanoa`` plus every ``RunReport.timings`` stage
  before the search (parse, validate, expand, allocate);
* ``peak_rss_mb``: the child's peak resident memory;
* ``front_hv``: hypervolume of the returned front over the box from the
  origin to (1, R*T, sum of v_r*T), a share in [0, 1].

``plan_s``, ``peak_rss_mb`` and ``front_hv`` are the mean over the basket of
each sub-instance's median; ``setup_s`` is the median over all runs.

``--trace 1`` instead runs the first sub-instance once traced (see
``spans.py``) and then untraced until the time is up, and reports the
per-layer metrics, ``trace.overhead`` being traced over untraced plan time
minus one.  A run fails when the child raises, when its front breaks a
check in ``child.check_front`` or when its artifacts differ from those of
an earlier run of the same sub-instance; ``failed / attempted`` is the
fail ratio.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
record, with machine info, config, every run and its samples, is written
to ``perfbench/out/<workload>-s<seed>/result.json`` and the spans of the
traced run to ``spans.json`` beside its artifacts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import missions

HERE = Path(__file__).resolve().parent
SPEC = "BENCHMARK.json"  # names and units of the metrics to report
COMPARED = ("pareto.csv", "pareto.json")
# one child may not outlive the 180 s a benchmark run is allowed
CHILD_TIMEOUT_S = 150


def machine_info(root: Path) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "commit": commit,
    }


def artifacts(out: Path) -> dict[str, bytes]:
    names = list(COMPARED) + sorted(p.name for p in out.glob("plan_*.json"))
    return {n: (out / n).read_bytes() for n in names if (out / n).is_file()}


def import_numpy_s(stderr: str) -> float:
    """Cumulative ``numpy`` import time from ``-X importtime`` output."""
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "numpy":
            return int(parts[1]) / 1e6
    return 0.0


class Bench:
    """The basket of one benchmark run and every child run made so far."""

    def __init__(self, root: Path, workload: str, seed: int, work: Path):
        self.root = root
        self.config = ",".join(str(x) for x in missions.CONFIGS[workload])
        self.work = work
        self.missions, self.seeds = [], []
        for j, (text, ga_seed) in enumerate(missions.basket(workload, seed, root)):
            path = work / f"mission-{j}.kanoa"
            path.write_text(text, encoding="utf-8")
            self.missions.append(path)
            self.seeds.append(ga_seed)
        self.runs: list[dict] = []
        self.first: dict[int, dict[str, bytes]] = {}

    def run(self, j: int, trace: bool = False) -> dict:
        """Plan sub-instance ``j`` in a fresh child and check its artifacts."""
        out = self.work / f"run-{len(self.runs)}"
        cmd = [sys.executable]
        if trace:
            cmd += ["-X", "importtime"]
        cmd += [
            str(HERE / "child.py"), "--mission", str(self.missions[j]), "--out", str(out),
            "--seed", str(self.seeds[j]), "--config", self.config,
        ]
        if trace:
            cmd.append("--trace")
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        started = time.perf_counter()
        rec = {"sub": j, "seed": self.seeds[j], "trace": trace}
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=env, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            rec.update(json.loads(proc.stdout.strip().splitlines()[-1]))
        except subprocess.TimeoutExpired:
            rec["error"] = f"child still running after {CHILD_TIMEOUT_S} s"
        except (IndexError, json.JSONDecodeError):
            rec["error"] = f"child exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
        rec["wall_s"] = time.perf_counter() - started
        if trace and "error" not in rec:
            rec["import_numpy_s"] = import_numpy_s(proc.stderr)
        if "error" not in rec:
            got = artifacts(out)
            if j in self.first:
                first = self.first[j]
                differing = sorted(n for n in set(got) | set(first) if got.get(n) != first.get(n))
                if differing:
                    rec.setdefault("problems", []).append(
                        f"artifacts differ from an earlier run of sub-instance {j}: {differing}")
            else:
                self.first[j] = got
        rec["failed"] = "error" in rec or bool(rec.get("problems"))
        self.runs.append(rec)
        return rec


def summarise(values: list[float]) -> dict:
    """Median, maximum and the highest percentile with at least ten samples
    beyond it (nearest rank; there is none below 20 samples)."""
    values = sorted(values)
    n = len(values)
    out = {"n": n, "median": statistics.median(values), "max": values[-1]}
    supported = [p for p in (50, 75, 90, 95, 99) if n * (1 - p / 100) >= 10]
    if supported:
        p = supported[-1]
        out[f"p{p}"] = values[math.ceil(n * p / 100) - 1]
    return out


def basket_mean(runs: list[dict], key: str) -> tuple[float, list[float]]:
    """Mean over the basket of each sub-instance's median, so that every
    sub-instance weighs the same however often it ran."""
    per_sub: dict[int, list[float]] = {}
    for r in runs:
        per_sub.setdefault(r["sub"], []).append(r[key])
    medians = [statistics.median(v) for _, v in sorted(per_sub.items())]
    return statistics.fmean(medians), medians


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="layered benchmark of kanoa.reporting.run")
    ap.add_argument("--workload", required=True, choices=[*missions.CONFIGS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    needed = [root / "src" / "kanoa" / "__init__.py", root / missions.HOSPITAL, root / SPEC]
    if not all(p.is_file() for p in needed):
        print(f"error: {root} is not a kanoa checkout (needs src/kanoa, fixtures/ and "
              f"{SPEC}); run from the repository root", file=sys.stderr)
        return 2
    spec = json.loads((root / SPEC).read_text(encoding="utf-8"))
    if args.workload == "all":
        return run_all(spec, root, args.seed, args.seconds)
    result, record = bench_one(spec, root, args.workload, args.seed, args.seconds,
                               bool(args.trace))
    print_table(record)
    print(json.dumps(result))
    return 0


def bench_one(spec: dict, root: Path, workload: str, seed: int, seconds: float, trace: bool):
    """Run one workload for ``seconds``; returns the result line and the full record."""
    work = HERE / "out" / f"{workload}-s{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(root, workload, seed, work)
    k = len(bench.seeds)
    deadline = time.perf_counter() + seconds
    if trace:
        # the traced run, then untraced runs of the same sub-instance: the
        # overhead base and the byte-identity check
        bench.run(0, trace=True)
        while len(bench.runs) < 3 or time.perf_counter() + _typical(bench) < deadline:
            bench.run(0)
    else:
        while len(bench.runs) < k + 1 or time.perf_counter() + _typical(bench) < deadline:
            bench.run(len(bench.runs) % k)

    timed = [r for r in bench.runs if not r["failed"] and not r["trace"]]
    traced = [r for r in bench.runs if r["trace"] and not r["failed"]]
    failed = sum(r["failed"] for r in bench.runs)
    samples, means = {}, {}
    for key in ("plan_s", "setup_s", "peak_rss_mb", "front_hv") if timed else ():
        means[key], per_sub = basket_mean(timed, key)
        samples[key] = dict(summarise([r[key] for r in timed]), per_sub=per_sub)
    values = {}
    if timed and not trace:
        values = dict(means, setup_s=samples["setup_s"]["median"])
    if timed and traced:
        values = dict(traced[0]["layers"])
        values["import.s"] = traced[0]["import_numpy_s"]
        values["trace.overhead"] = traced[0]["plan_s"] / samples["plan_s"]["median"] - 1
    listed = spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed if m["name"] in values}
    result = {"correct": failed == 0 and len(metrics) == len(listed),
              "attempted": len(bench.runs), "failed": failed, "metrics": metrics}
    record = {
        "workload": workload,
        "seed": seed,
        "ga_seeds": bench.seeds,
        "config": dict(zip(("allocations", "permutations", "population", "generations"),
                           missions.CONFIGS[workload])),
        "seconds": seconds,
        "trace": trace,
        "machine": dict(machine_info(root),
                        numpy=next((r.get("numpy") for r in bench.runs if r.get("numpy")), None)),
        "fail_ratio": failed / len(bench.runs),
        "samples": samples,
        "runs": bench.runs,
        "result": result,
    }
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return result, record


def _typical(bench: Bench) -> float:
    return statistics.median(r["wall_s"] for r in bench.runs)


def print_table(record: dict):
    res = record["result"]
    print(f"# {record['workload']}: seed {record['seed']} (GA seeds {record['ga_seeds']}), "
          f"config {record['config']}")
    print(f"#   machine {json.dumps(record['machine'])}")
    print(f"#   {res['attempted']} runs, {res['failed']} failed, "
          f"fail_ratio {record['fail_ratio']:.3f}")
    for run in record["runs"]:
        if run["failed"]:
            print(f"#   FAILED run (sub-instance {run['sub']}): "
                  f"{run.get('error') or run.get('problems')}")
    for name, stats in record["samples"].items():
        print(f"#   {name}: " + json.dumps(stats))
    for name, m in res["metrics"].items():
        print(f"#   {name} = {m['value']:.6g} {m['unit']}")


def run_all(spec: dict, root: Path, seed: int, seconds: float) -> int:
    """Every workload: the end-to-end metrics and fail_ratio in one table."""
    names = [m["name"] for m in spec["end_to_end"]] + ["fail_ratio"]
    rows = {}
    for workload in missions.CONFIGS:
        result, record = bench_one(spec, root, workload, seed, seconds, False)
        print_table(record)
        rows[workload] = {k: m["value"] for k, m in result["metrics"].items()}
        rows[workload]["fail_ratio"] = record["fail_ratio"]
    print("workload  " + "  ".join(f"{n:>12}" for n in names))
    for workload, row in rows.items():
        print(f"{workload:<9} " + "  ".join(f"{row.get(n, float('nan')):>12.6g}" for n in names))
    print(json.dumps(rows))
    return 0 if all(r["fail_ratio"] == 0 for r in rows.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
