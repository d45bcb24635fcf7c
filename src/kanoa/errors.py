"""Exception types shared across the planner pipeline."""


class KanoaError(Exception):
    """Base class for all planner errors."""


class DslSyntaxError(KanoaError):
    """Raised by the parser on malformed input.

    Carries the 1-based source position and the set of token descriptions
    that would have been accepted at that point.
    """

    def __init__(self, message, line, column, expected=()):
        self.line = line
        self.column = column
        self.expected = tuple(sorted(expected))
        super().__init__(f"{line}:{column}: {message}")


class ValidationError(KanoaError):
    """Raised when a parsed problem violates one or more invariants.

    ``problems`` lists every violation found, in a deterministic order.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class InfeasibleAllocation(KanoaError):
    """Some task instance has fewer eligible robots than it needs."""


class StateExplosion(KanoaError):
    """MDP construction exceeded the configured state cap."""

    def __init__(self, message, cluster_size, state_count):
        self.cluster_size = cluster_size
        self.state_count = state_count
        super().__init__(message)


class UndefinedReward(KanoaError):
    """Expected reward queried for a target that is not almost-surely reachable."""


class InvariantViolation(KanoaError):
    """An internal consistency check failed: a planner bug, not bad input."""


class NoFeasibleSolution(KanoaError):
    """The optimizer found no feasible chromosome within its budget."""

    def __init__(self, message, evaluated, infeasible):
        self.evaluated = evaluated
        self.infeasible = infeasible
        super().__init__(message)
