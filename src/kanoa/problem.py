"""Core data model: the mission problem AST and its validated form.

A parsed problem is a plain tree of named tuples; validation
(see :mod:`kanoa.validation`) wraps it in a :class:`ValidatedProblem`
with a symmetric distance lookup and indexed lookups.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import InvariantViolation


class Location(NamedTuple):
    id: str
    x: int
    y: int


class DistanceEntry(NamedTuple):
    frm: str
    to: str
    distance: int


class AtomicTaskDef(NamedTuple):
    id: str
    robots_needed: int


class CompoundTaskDef(NamedTuple):
    id: str
    subtasks: tuple[str, ...]
    ordered: bool


class Capability(NamedTuple):
    task_type_id: str
    required_time: int
    success_prob: float


class RobotDef(NamedTuple):
    id: str
    initial_loc: str
    velocity: Fraction
    capabilities: tuple[Capability, ...]

    def capability_for(self, task_type_id: str) -> Capability | None:
        for cap in self.capabilities:
            if cap.task_type_id == task_type_id:
                return cap
        return None


class MissionTaskRef(NamedTuple):
    task_id: str
    location_id: str


class Rect(NamedTuple):
    """Axis-aligned rectangle given by two opposite corners."""

    x_min: int
    y_min: int
    x_max: int
    y_max: int

    def contains(self, x: int, y: int) -> bool:
        return self.x_min <= x <= self.x_max and self.y_min <= y <= self.y_max


class ConstraintSpec(NamedTuple):
    kind: str  # "boundary" | "timeAvailable" | "maxIdle"
    subject: str | None = None  # robot id or "all"; None for timeAvailable
    rect: Rect | None = None
    budget: int | None = None


class ProblemSpec(NamedTuple):
    locations: tuple[Location, ...]
    distances: tuple[DistanceEntry, ...]
    atomic_tasks: tuple[AtomicTaskDef, ...]
    compound_tasks: tuple[CompoundTaskDef, ...]
    robots: tuple[RobotDef, ...]
    mission_tasks: tuple[MissionTaskRef, ...]
    constraints: tuple[ConstraintSpec, ...]


def euclidean_ceil(a: Location, b: Location) -> int:
    """Integer ceiling of the straight-line distance between two locations.

    Computed in exact integer arithmetic so e.g. a 3-4-5 triangle yields 5,
    never a float artifact rounded up to 6.
    """
    sq = (a.x - b.x) ** 2 + (a.y - b.y) ** 2
    r = math.isqrt(sq)
    return r if r * r == sq else r + 1


class ValidatedProblem:
    """A problem that passed validation, with derived lookup structures.

    ``distance`` is symmetric over all location pairs.  A declared distance
    is read in either direction; an undeclared pair gets the integer
    ceiling of the straight-line distance, computed on first use and kept.
    The time budget and each robot's idle cap are read from the
    constraints once, here.
    """

    def __init__(self, problem: ProblemSpec):
        self.problem = problem
        self._time_available = next(
            (c.budget for c in problem.constraints if c.kind == "timeAvailable"), None
        )
        idle = [c for c in problem.constraints if c.kind == "maxIdle"]
        self._max_idle = {
            r.id: min((c.budget for c in idle if c.subject in ("all", r.id)), default=None)
            for r in problem.robots
        }
        self._distances: dict[tuple[str, str], int] = {}
        for d in problem.distances:
            self._distances[(d.frm, d.to)] = self._distances[(d.to, d.frm)] = d.distance
        self._locations = {l.id: l for l in problem.locations}
        self._robots = {r.id: r for r in problem.robots}
        self._atomics = {t.id: t for t in problem.atomic_tasks}
        self._compounds = {t.id: t for t in problem.compound_tasks}

    def __eq__(self, other):
        if not isinstance(other, ValidatedProblem):
            return NotImplemented
        return self.problem == other.problem

    def location(self, loc_id: str) -> Location:
        return self._locations[loc_id]

    def robot(self, robot_id: str) -> RobotDef:
        return self._robots[robot_id]

    def atomic(self, task_id: str) -> AtomicTaskDef:
        return self._atomics[task_id]

    def compound(self, task_id: str) -> CompoundTaskDef | None:
        return self._compounds.get(task_id)

    # -- derived quantities ----------------------------------------------

    def distance(self, a: str, b: str) -> int:
        if a == b:
            return 0
        d = self._distances.get((a, b))
        if d is None:
            d = euclidean_ceil(self._locations[a], self._locations[b])
            self._distances[(a, b)] = self._distances[(b, a)] = d
        return d

    @property
    def time_available(self) -> int:
        if self._time_available is None:
            raise InvariantViolation("validated problem lacks a time constraint")
        return self._time_available

    def max_idle(self, robot_id: str) -> int | None:
        """Effective idle budget for a robot: the tightest applicable bound."""
        return self._max_idle[robot_id]

    def boundaries(self, robot_id: str) -> list[Rect]:
        return [
            c.rect
            for c in self.problem.constraints
            if c.kind == "boundary" and c.subject in ("all", robot_id)
        ]

    def location_allowed(self, robot_id: str, loc_id: str) -> bool:
        """True when the location lies inside every boundary that binds the robot."""
        loc = self.location(loc_id)
        return all(r.contains(loc.x, loc.y) for r in self.boundaries(robot_id))

    def capable_robots(self, task_type_id: str) -> list[str]:
        return [r.id for r in self.problem.robots if r.capability_for(task_type_id)]
