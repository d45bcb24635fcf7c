"""End-to-end pipeline: parse, plan, and write result artifacts."""

from __future__ import annotations

import json
import os
import re
import time
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import NamedTuple

from .allocation import AllocatorConfig
from .errors import InvariantViolation, StateExplosion
from .gantt import emit_gantt, format_gantt_text
from .mdp import DEFAULT_STATE_CAP, ClusterContext, build_mdp, write_mdp_text
from .optimizer import GaConfig, Objectives, ParetoFront, nsga2_run, prepare_search
from .parser import parse_problem
from .plans import PlanEvent, check_plan
from .taskgraph import debug_report, expand_mission
from .validation import validate_problem

__all__ = ["PipelineConfig", "RunReport", "run"]

# every file name a run writes; a run removes these from out_dir first
_OWN = (r"(instances|allocations|pareto)\.json|pareto\.csv|report\.txt"
        r"|plan_(0|[1-9][0-9]*)\.(json|svg)|mdp(_(0|[1-9][0-9]*)){3}\.txt")


class PipelineConfig:
    __slots__ = (
        "allocations", "permutations", "population", "generations", "seed",
        "state_cap", "dump_allocations", "dump_mdp",
    )

    def __init__(
        self,
        allocations: int = 30,
        permutations: int = 20,
        population: int = 50,
        generations: int = 5,
        seed: int = 0,
        state_cap: int = DEFAULT_STATE_CAP,
        dump_allocations: bool = False,
        dump_mdp: bool = False,
    ):
        self.allocations = allocations
        self.permutations = permutations
        self.population = population
        self.generations = generations
        self.seed = seed
        self.state_cap = state_cap
        self.dump_allocations = dump_allocations
        self.dump_mdp = dump_mdp
        # the search configs check their own ranges (ValueError)
        self.ga()
        AllocatorConfig(max_allocations=allocations)
        if state_cap < 1:
            raise ValueError("state_cap must be at least 1")

    def ga(self) -> GaConfig:
        return GaConfig(
            population_size=self.population,
            generations=self.generations,
            permutations_per_allocation=self.permutations,
            seed=self.seed,
        )

    def echo(self) -> dict:
        return {
            "allocations": self.allocations,
            "permutations": self.permutations,
            "population": self.population,
            "generations": self.generations,
            "seed": self.seed,
            "state_cap": self.state_cap,
        }


class RunReport(NamedTuple):
    front: ParetoFront
    timings: dict[str, float]  # seconds per stage, in pipeline order
    allocation_count: int


def run(input_path, cfg: PipelineConfig, out_dir) -> RunReport:
    """Plan a mission file and write artifacts into ``out_dir``.

    Writes pareto.csv / pareto.json, one plan_<k>.json and plan_<k>.svg per
    front entry, instances.json, and report.txt, then the ``--dump-mdp``
    models and the ``--dump-allocations`` allocations.json.  Raises the
    underlying error on bad input, an empty feasible set or a model over
    the state cap; the CLI maps those to exit codes.  ``out_dir`` is
    created only once the mission validates and its allocations are drawn;
    every file in it that bears one of these names is then removed, so any
    exit leaves only this run's artifacts.
    """
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    text = Path(input_path).read_text(encoding="utf-8")
    spec = parse_problem(text)
    timings["parse"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    v = validate_problem(spec)
    timings["validate"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    root, pairs = expand_mission(v)
    instances_json = json.dumps(debug_report(root, pairs), indent=2) + "\n"
    timings["expand"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    space = prepare_search(
        v,
        AllocatorConfig(max_allocations=cfg.allocations),
        cfg.ga(),
        state_cap=cfg.state_cap,
    )
    timings["allocate"] = time.perf_counter() - t0

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with os.scandir(out) as listing:
        for f in listing:
            if re.fullmatch(_OWN, f.name):
                os.remove(f.path)
    (out / "instances.json").write_text(instances_json, encoding="utf-8")
    if cfg.dump_allocations:
        payload = [
            {inst: sorted(team) for inst, team in sorted(a.items())}
            for a in space.allocations
        ]
        (out / "allocations.json").write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )

    t0 = time.perf_counter()
    front = nsga2_run(space, cfg.ga())
    timings["optimize"] = time.perf_counter() - t0

    clusters = [
        f"allocation {i}: "
        + ", ".join("{" + ",".join(sorted(c.robots)) + "}" for c in groups)
        for i, groups in enumerate(space.clusters)
    ]
    models = _front_models(space, front) if cfg.dump_mdp else []
    # release the score memo and the drawn pool entries before writing
    del space

    idle_caps = {
        r.id: v.max_idle(r.id)
        for r in v.problem.robots
        if v.max_idle(r.id) is not None
    }
    for k, entry in enumerate(front.entries):
        problems = check_plan(entry.plan, pairs, v.time_available, idle_caps)
        if problems:
            raise InvariantViolation(
                f"front entry {k} produced an unsound plan: {problems}"
            )
        (out / f"plan_{k}.json").write_text(render_plan_json(entry), encoding="utf-8")
        (out / f"plan_{k}.svg").write_text(
            emit_gantt(entry.plan, title=f"plan_{k}"), encoding="utf-8"
        )

    report = RunReport(front, timings, len(clusters))
    (out / "pareto.csv").write_text(render_csv(front), encoding="utf-8")
    (out / "pareto.json").write_text(render_json(front), encoding="utf-8")
    (out / "report.txt").write_text(
        render_text(report, cfg.echo(), clusters), encoding="utf-8"
    )
    for name, ctx in models:
        _dump_model(name, ctx, cfg.state_cap, out)
    return report


def _front_models(space, front: ParetoFront) -> list[tuple[str, ClusterContext]]:
    """The ``--dump-mdp`` file name and the context of every cluster of
    every front entry, built from the search's own cluster facts and hop
    memo."""
    models = []
    for entry in front.entries:
        a, p = entry.chromosome
        permutation = space.permutation(a, p)
        for ci, facts in enumerate(space.record(a)[1]):
            ctx = ClusterContext(facts, permutation, space.hops)
            models.append((f"mdp_{a}_{p}_{ci}.txt", ctx))
    return models


def _dump_model(name: str, ctx: ClusterContext, state_cap: int, out: Path):
    """Write the paper's full model of one cluster.

    The front's plans come from smaller, failure-lumped chains, so a full
    model can exceed a state cap that the chains stayed under: that raises
    :class:`StateExplosion` naming the file, the cluster and the cap.
    """
    try:
        mdp = build_mdp(ctx, state_cap)
    except StateExplosion as exc:
        raise StateExplosion(
            f"cannot write {name}: the full model of cluster "
            f"{{{','.join(ctx.robots)}}} exceeds the state cap of {state_cap}",
            exc.cluster_size,
            exc.state_count,
        ) from exc
    (out / name).write_text(write_mdp_text(mdp), encoding="utf-8")


def _objectives(o: Objectives, pad: str) -> str:
    return (f'{pad}"probability_of_failure": {o.p_fail!r},\n'
            f'{pad}"idling": {o.idle},\n{pad}"travel": {o.travel}')


def _block(items: list[str], pad: str, ends: str = "[]") -> str:
    """A JSON array (or object) of laid-out items, closed at ``pad``."""
    return f"{ends[0]}\n" + ",\n".join(items) + f"\n{pad}{ends[1]}" if items else ends


def render_csv(front: ParetoFront) -> str:
    return "Allocation,Permutation,Probability of failure,Idling,Travel\n" + "".join(
        f"{e.chromosome.alloc_idx},{e.chromosome.perm_idx},{e.objectives.p_fail!r},"
        f"{e.objectives.idle},{e.objectives.travel}\n" for e in front.entries
    )


def render_json(front: ParetoFront) -> str:
    entries = [
        f'    {{\n      "allocation": {e.chromosome.alloc_idx},\n      "permutation": '
        f'{e.chromosome.perm_idx},\n{_objectives(e.objectives, " " * 6)}\n    }}'
        for e in front.entries
    ]
    return f'{{\n  "entries": {_block(entries, "  ")}\n}}\n'


def render_plan_json(entry) -> str:
    """plan_<k>.json from a template: the bytes of ``json.dumps(doc,
    indent=2)`` and a newline, numbers as ``repr`` prints them, strings
    ASCII-escaped by ``json``.  The pareto tables are written likewise."""
    timelines = [
        f"    {_quote(robot)}: " + _block(list(map(_event_json, timeline)), "    ")
        for robot, timeline in sorted(entry.plan.timelines.items())
    ]
    c = entry.chromosome
    return (f'{{\n  "allocation": {c.alloc_idx},\n  "permutation": {c.perm_idx},\n'
            f'  "objectives": {{\n{_objectives(entry.objectives, "    ")}\n  }},\n'
            f'  "timelines": {_block(timelines, "  ", "{}")}\n}}\n')


def _event_json(ev: PlanEvent) -> str:
    text = (f'      {{\n        "kind": {_quote(ev.kind)},\n'
            f'        "start": {ev.start},\n        "end": {ev.end}')
    for key, value in (("instance", ev.instance), ("from", ev.frm), ("to", ev.to)):
        if value is not None:
            text += f',\n        "{key}": {_quote(value)}'
    return text + "\n      }"


def render_text(report: RunReport, config: dict, clusters: list[str]) -> str:
    """report.txt: the config echo, each allocation's robot clusters, the
    front with a text Gantt chart per plan, and the stage timings."""
    front = report.front
    lines = ["mission planning report", ""]
    lines.append("config: " + json.dumps(config))
    lines.append(f"allocations searched: {report.allocation_count}")
    lines.append("")
    lines.append("clusters:")
    lines.extend("  " + s for s in clusters)
    lines.append("")
    lines.append("pareto front:")
    lines.append("  alloc  perm  p_fail        idle  travel")
    for e in front.entries:
        lines.append(
            f"  {e.chromosome.alloc_idx:>5}  {e.chromosome.perm_idx:>4}  "
            f"{e.objectives.p_fail:<12.8f}  {e.objectives.idle:>4}  "
            f"{e.objectives.travel:>6}"
        )
    lines.append("")
    for k, e in enumerate(front.entries):
        lines.append(f"plan_{k} (allocation {e.chromosome.alloc_idx}, "
                     f"permutation {e.chromosome.perm_idx}):")
        lines.append(format_gantt_text(e.plan))
    lines.append("timings (s):")
    for stage, secs in report.timings.items():
        lines.append(f"  {stage}: {secs:.3f}")
    return "\n".join(lines) + "\n"
