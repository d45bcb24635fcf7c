"""One planning run in a fresh interpreter; prints one JSON object.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 perfbench/child.py --mission M.kanoa --out DIR --seed N \
        --config ALLOC,PERM,POP,GENS [--trace]

Times ``import kanoa`` and ``kanoa.reporting.run``, reads the peak resident
memory, then checks the returned front and scores it by hypervolume.  With
``--trace`` it wraps the planner's public functions (see ``spans.py``),
derives per-layer metrics, writes the spans to ``DIR/spans.json`` and
compares the front with the exact front over the same sampled space.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from hv import normalised_hv
from spans import Tracer

# what each traced call leaves behind for the per-layer counters
SUMMARIES = {
    "allocation": lambda args, allocations: len(allocations),
    "clustering": lambda args, clusters: max((len(c.robots) for c in clusters), default=0),
    "optimizer.evaluate": lambda args, result: args[2],
    "scheduling": lambda args, result: bool(result.feasible),
    "mdp": lambda args, mdp: mdp.n_states,
}


def _dominates(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def check_front(front, space) -> list[str]:
    """Every way the returned front contradicts the mission or itself."""
    from kanoa.plans import check_plan
    from kanoa.scheduling import success_probability

    v = space.v
    idle_caps = {
        r.id: v.max_idle(r.id) for r in v.problem.robots if v.max_idle(r.id) is not None
    }
    problems = []
    for k, entry in enumerate(front.entries):
        obj = entry.objectives
        problems += [
            f"entry {k}: {p}"
            for p in check_plan(entry.plan, space.pairs, v.time_available, idle_caps)
        ]
        events = [ev for tl in entry.plan.timelines.values() for ev in tl]
        travel = sum(v.distance(ev.frm, ev.to) for ev in events if ev.kind == "travel")
        idle = sum(ev.end - ev.start for ev in events if ev.kind == "idle")
        if travel != obj.travel:
            problems.append(f"entry {k}: travel {obj.travel} but plan travels {travel}")
        if idle != obj.idle:
            problems.append(f"entry {k}: idle {obj.idle} but plan idles {idle}")
        a = entry.chromosome.alloc_idx
        p_success = 1.0
        for cluster in space.clusters[a]:
            p_success *= success_probability(v, space.allocations[a], cluster, space.instances)
        if abs((1.0 - p_success) - obj.p_fail) > 1e-12:
            problems.append(f"entry {k}: p_fail {obj.p_fail} but clusters give {1.0 - p_success}")
    points = [e.objectives.as_tuple() for e in front.entries]
    for i, a in enumerate(points):
        for j, b in enumerate(points):
            if i != j and _dominates(a, b):
                problems.append(f"entry {i} dominates entry {j}")
    return problems


def reference_point(v) -> tuple[float, float, float]:
    """(1, R*T, sum of v_r*T): the worst failure probability, the most idle
    and the most travel a mission of budget T allows its R robots."""
    t = v.time_available
    robots = v.problem.robots
    return (1.0, float(len(robots) * t), float(sum(r.velocity for r in robots) * t))


def layer_metrics(tracer: Tracer) -> dict:
    inclusive, own, calls = tracer.totals()
    notes = tracer.notes

    def s(name):
        return inclusive.get(name, 0.0)

    caches = notes.get("optimizer.evaluate", [])
    cache = caches[-1] if caches else {}
    evaluate_calls = calls.get("optimizer.evaluate", 0)
    sched_calls = calls.get("scheduling", 0)
    models = calls.get("mdp", 0)
    return {
        "parser.s": s("parser"),
        "validation.s": s("validation"),
        "taskgraph.s": s("taskgraph"),
        "allocation.s": s("allocation"),
        "allocation.count": sum(notes.get("allocation", [])),
        "clustering.s": s("clustering"),
        "clustering.max_robots": max(notes.get("clustering", []), default=0),
        "permutations.s": s("permutations"),
        "permutations.draws": calls.get("permutations", 0),
        "scheduling.calls": sched_calls,
        "scheduling.feasible_ratio": sum(notes.get("scheduling", [])) / max(sched_calls, 1),
        "scheduling.precheck_rejects": sched_calls - models,
        "scheduling.self.s": own.get("scheduling", 0.0),
        "mdp.s": s("mdp"),
        "mdp.models": models,
        "mdp.states": sum(notes.get("mdp", [])),
        "mdp.states_max": max(notes.get("mdp", []), default=0),
        "solver.reach.s": s("solver.reach"),
        "solver.policy.s": s("solver.policy"),
        "solver.policy_calls": calls.get("solver.policy", 0),
        "plans.extract.s": s("plans.extract"),
        "plans.check.s": s("plans.check"),
        "optimizer.evaluate_calls": evaluate_calls,
        "optimizer.distinct": len(cache),
        "optimizer.cache_hit_ratio": (evaluate_calls - len(cache)) / max(evaluate_calls, 1),
        "optimizer.feasible_ratio": sum(r.feasible for r in cache.values()) / max(len(cache), 1),
        "optimizer.sort.s": s("optimizer.sort"),
        "optimizer.crowding.s": s("optimizer.crowding"),
        "optimizer.self.s": own.get("optimizer", 0.0) + own.get("optimizer.evaluate", 0.0),
        "reporting.write.s": own.get("reporting", 0.0),
        "gantt.s": s("gantt"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mission", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--config", required=True, help="ALLOC,PERM,POP,GENS")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import kanoa  # noqa: F401  (timed: part of set-up)

    import_s = time.perf_counter() - t0
    from kanoa.allocation import AllocatorConfig
    from kanoa.optimizer import brute_force_front, prepare_search
    from kanoa.parser import parse_problem
    from kanoa.reporting import PipelineConfig, run
    from kanoa.validation import validate_problem

    alloc, perm, pop, gens = (int(x) for x in args.config.split(","))
    cfg = PipelineConfig(
        allocations=alloc, permutations=perm, population=pop, generations=gens, seed=args.seed
    )
    out = Path(args.out)
    record = {"import_s": import_s, "numpy": getattr(sys.modules.get("numpy"), "__version__", None)}
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install(SUMMARIES)
    t0 = time.perf_counter()
    try:
        if tracer:
            report = tracer.span("reporting", run, args.mission, cfg, out)
        else:
            report = run(args.mission, cfg, out)
    except Exception as exc:  # any failure of the run is counted, not fatal
        record["error"] = f"{type(exc).__name__}: {exc}"
        record["traceback"] = traceback.format_exc(limit=-3)
        print(json.dumps(record))
        return 0
    finally:
        if tracer:
            tracer.restore()
    record["plan_s"] = time.perf_counter() - t0
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record["timings"] = dict(report.timings)
    record["setup_s"] = import_s + sum(t for k, t in report.timings.items() if k != "optimize")

    v = validate_problem(parse_problem(Path(args.mission).read_text(encoding="utf-8")))
    space = prepare_search(v, AllocatorConfig(max_allocations=cfg.allocations), cfg.ga(),
                           state_cap=cfg.state_cap)
    ref = reference_point(v)
    points = [e.objectives.as_tuple() for e in report.front.entries]
    record["problems"] = check_front(report.front, space)
    record["front_hv"] = normalised_hv(points, ref)
    record["front_size"] = len(points)

    if tracer:
        layers = layer_metrics(tracer)
        caches = tracer.notes.get("optimizer.evaluate", [])
        exact = brute_force_front(space, caches[-1] if caches else {})
        exact_hv = normalised_hv([e.objectives.as_tuple() for e in exact], ref)
        layers["optimizer.hv_ratio"] = record["front_hv"] / exact_hv if exact_hv else 0.0
        layers["reporting.front_size"] = len(points)
        record["layers"] = layers
        record["self_s"] = tracer.totals()[1]
        record["trace_missing"] = tracer.missing
        record["trace_errors"] = tracer.errors
        (out / "spans.json").write_text(json.dumps(tracer.dump()) + "\n", encoding="utf-8")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
