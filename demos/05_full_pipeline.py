"""The whole pipeline: mission file in, Pareto front and artifacts out.

Equivalent to `kanoa plan --input fixtures/hospital.kanoa --out <dir>`.
"""

import tempfile
from pathlib import Path

from kanoa import PipelineConfig, run

HERE = Path(__file__).parent

with tempfile.TemporaryDirectory(prefix="kanoa_demo_") as tmp:
    out = Path(tmp)
    report = run(
        HERE.parent / "fixtures" / "hospital.kanoa",
        PipelineConfig(allocations=10, permutations=10, population=30,
                       generations=4, seed=0),
        out,
    )

    print(f"searched {report.allocation_count} allocations; "
          f"front of {len(report.front.entries)} plans\n")
    print(f"{'alloc':>5} {'perm':>4} {'p_fail':>12} {'idle':>4} {'travel':>6}")
    for e in report.front.entries:
        print(f"{e.chromosome.alloc_idx:>5} {e.chromosome.perm_idx:>4} "
              f"{e.objectives.p_fail:>12.8f} {e.objectives.idle:>4} "
              f"{e.objectives.travel:>6}")

    print(f"\nstage timings: " + ", ".join(
        f"{k} {t:.2f}s" for k, t in report.timings.items()))
    print(f"artifacts written to {out}:")
    for p in sorted(out.iterdir()):
        print(f"  {p.name}")
