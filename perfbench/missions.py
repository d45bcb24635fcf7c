"""Benchmark workloads: the missions and pipeline configs of one run.

A run plans a basket of sub-instances.  Sub-instance j of seed s plans the
mission generated from seed ``s * k + j`` (k is the basket size) with
``PipelineConfig.seed = j``.  The GA seed is kept to the basket index on
purpose: it decides which permutations are drawn and which chromosomes the
search evaluates, and on hospital seeds 0-19 that alone spreads plan time
from 3.7 s to 10.0 s, far beyond any usable regression bound.  With the GA
seeds fixed, every run covers the same search trajectories and the
benchmark seed varies the mission numbers.

The shape of each generated mission is fixed: robot count, site count, the
task mix and the time budget never change.  The seed varies only
coordinates, capability times and probabilities and, in fleet, velocities,
so two seeds of one workload exercise the same code paths with different
numbers.  The hospital workload is the bundled fixture and does not depend
on the seed.  The planner receives only the mission text.
"""

from __future__ import annotations

import random
from pathlib import Path

HOSPITAL = Path("fixtures") / "hospital.kanoa"

# (allocations, permutations, population, generations) per workload
CONFIGS = {
    "hospital": (30, 20, 50, 5),
    "relay": (10, 10, 20, 3),
    "fleet": (30, 20, 100, 20),
}

# sub-instances per run: one basket takes 25-30 s on a 2-core Xeon VM
BASKET = {"hospital": 3, "relay": 15, "fleet": 5}


def _capability(rng: random.Random, task: str, lo: int) -> str:
    return f"    can {task} time {rng.randint(lo, lo + 1)} prob {rng.randint(95, 99) / 100}"


def _grid(rng: random.Random, columns: int, rows: int) -> list[tuple[int, int]]:
    """Sites 10 apart on a grid, each moved by up to 3 in x and y."""
    return [
        (5 + 10 * c + rng.randint(-3, 3), 5 + 10 * r + rng.randint(-3, 3))
        for r in range(rows)
        for c in range(columns)
    ]


def relay_text(seed: int) -> str:
    """Four robots docked at the corners of a 4x3 grid of twelve sites: six
    ordered pick->drop deliveries and six single-robot inspections, budget
    300."""
    rng = random.Random(f"relay:{seed}")
    sites = _grid(rng, 4, 3)
    docks = [(0, 0), (40, 0), (0, 30), (40, 30)]
    # fixed velocities: drawn ones moved plan time by 16% from seed to seed
    velocities = ("1", "3/2", "2", "3/2")
    lines = ["world {"]
    lines += [f"  loc s{i} ({x}, {y})" for i, (x, y) in enumerate(sites)]
    lines += [f"  loc d{i} ({x}, {y})" for i, (x, y) in enumerate(docks)]
    lines += [
        "}",
        "tasks {",
        "  atomic pick robots 1",
        "  atomic drop robots 1",
        "  atomic inspect robots 1",
        "  compound deliver = ordered { pick, drop }",
        "}",
        "robots {",
    ]
    for i in range(4):
        lines.append(f"  robot r{i} at d{i} velocity {velocities[i]} {{")
        lines.append(_capability(rng, "pick", 2))
        lines.append(_capability(rng, "drop", 2))
        lines.append(_capability(rng, "inspect", 4))
        lines.append("  }")
    lines += ["}", "mission {"]
    lines += [f"  task deliver at s{i}" for i in range(0, 12, 2)]
    lines += [f"  task inspect at s{i}" for i in range(1, 12, 2)]
    lines += ["  time 300", "}"]
    return "\n".join(lines) + "\n"


def fleet_text(seed: int) -> str:
    """Ten robots at one central depot and a 6x5 grid of thirty sites with
    one single-robot task each (ten per type), budget 400.  Robots 0-2 each
    lack one type; the other seven can do all three."""
    rng = random.Random(f"fleet:{seed}")
    types = ("scan", "water", "sweep")
    sites = _grid(rng, 6, 5)
    lines = ["world {", "  loc depot (30, 25)"]
    lines += [f"  loc s{i} ({x}, {y})" for i, (x, y) in enumerate(sites)]
    lines += ["}", "tasks {"]
    lines += [f"  atomic {t} robots 1" for t in types]
    lines += ["}", "robots {"]
    for i in range(10):
        lines.append(f"  robot r{i} at depot velocity {rng.choice(('5/4', '3/2', '7/4'))} {{")
        lines += [_capability(rng, t, 4) for t in types if i >= 3 or t != types[i]]
        lines.append("  }")
    lines += ["}", "mission {"]
    lines += [f"  task {types[i % 3]} at s{i}" for i in range(30)]
    lines += ["  time 400", "}"]
    return "\n".join(lines) + "\n"


def mission_text(workload: str, seed: int, root: Path = Path(".")) -> str:
    """The mission the planner sees for this workload and seed."""
    if workload == "hospital":
        return (root / HOSPITAL).read_text(encoding="utf-8")
    if workload == "relay":
        return relay_text(seed)
    if workload == "fleet":
        return fleet_text(seed)
    raise ValueError(f"unknown workload {workload!r}")


def basket(workload: str, seed: int, root: Path = Path(".")) -> list[tuple[str, int]]:
    """(mission text, PipelineConfig.seed) of each sub-instance of a run."""
    k = BASKET[workload]
    return [(mission_text(workload, seed * k + j, root), j) for j in range(k)]
