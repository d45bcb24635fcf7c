"""Multi-robot mission planning.

Pipeline: parse a mission file, validate it, expand the mission into
atomic task instances, enumerate capability-feasible allocations, cluster
interdependent robots, synthesize time-feasible schedules by policy
synthesis over explicit MDPs, and search the (allocation, permutation)
space with NSGA-II for the Pareto front over failure probability, idle
time, and travel cost.
"""

from .allocation import (
    AllocatorConfig,
    count_feasible,
    enumerate_allocations,
)
from .clustering import RobotCluster, cluster_robots, robots_of_subtree
from .errors import (
    DslSyntaxError,
    InfeasibleAllocation,
    InvariantViolation,
    KanoaError,
    NoFeasibleSolution,
    StateExplosion,
    UndefinedReward,
    ValidationError,
)
from .gantt import emit_gantt, format_gantt_text
from .mdp import ClusterContext, Mdp, build_mdp, write_mdp_text
from .optimizer import (
    Chromosome,
    GaConfig,
    Objectives,
    ParetoEntry,
    ParetoFront,
    SearchSpace,
    brute_force_front,
    evaluate,
    nsga2_run,
    prepare_search,
)
from .parser import parse_problem
from .permutations import draw_state, random_task_permutation, robot_precedence
from .plans import Plan, PlanEvent, check_plan, extract_plan
from .printer import pretty_print
from .problem import ProblemSpec, ValidatedProblem
from .reporting import PipelineConfig, RunReport, run
from .scheduling import (
    SchedulingResult, schedule_cluster, score_cluster, success_probability,
)
from .solver import max_reach_probability, min_expected_reward
from .taskgraph import (
    PrecedencePair,
    TaskInstance,
    TreeNode,
    expand_mission,
    prune_subtrees,
)
from .validation import validate_problem

__version__ = "0.1.0"
