"""Exact hypervolume of a 3-objective minimisation front.

Slicing along the third objective: between consecutive distinct third
coordinates the dominated region is a prism whose cross-section is the 2-D
hypervolume of every point at or below the slice (Zitzler & Thiele 1999;
While et al. 2012).  O(n^2 log n), which is ample for Pareto fronts of a
few dozen points.
"""

from __future__ import annotations


def _area_2d(points: list[tuple[float, float]], ref: tuple[float, float]) -> float:
    area = 0.0
    best_y = ref[1]
    for x, y in sorted(points):
        if y < best_y:
            area += (ref[0] - x) * (best_y - y)
            best_y = y
    return area


def hypervolume_3d(points, ref) -> float:
    """Volume dominated by ``points`` and bounded by ``ref``.

    Points that do not strictly dominate ``ref`` in every objective add
    nothing; duplicates and dominated points are harmless.
    """
    inside = sorted(
        (tuple(p) for p in points if all(a < r for a, r in zip(p, ref))),
        key=lambda p: p[2],
    )
    volume = 0.0
    for i, p in enumerate(inside):
        z_next = inside[i + 1][2] if i + 1 < len(inside) else ref[2]
        if z_next > p[2]:
            volume += _area_2d([q[:2] for q in inside[: i + 1]], ref[:2]) * (z_next - p[2])
    return volume


def normalised_hv(objectives, ref) -> float:
    """Hypervolume of ``objectives`` as a share of the box spanned by the
    origin and ``ref``; objectives are non-negative, so this lies in [0, 1]."""
    box = ref[0] * ref[1] * ref[2]
    return hypervolume_3d(objectives, ref) / box
