"""Command-line entry point.

``kanoa plan --input mission.kanoa --out results/`` runs the whole
pipeline.  Every knob can also come from a JSON config file (--config) or
from KANOA_* environment variables; precedence is CLI flag, then
environment, then config file, then built-in default.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import (
    DslSyntaxError,
    InfeasibleAllocation,
    NoFeasibleSolution,
    ValidationError,
)
from .mdp import DEFAULT_STATE_CAP
from .reporting import PipelineConfig, run

_DEFAULTS = {
    "allocations": 30,
    "permutations": 20,
    "pop": 50,
    "gens": 5,
    "seed": 0,
    "state_cap": DEFAULT_STATE_CAP,
}

_ENV_PREFIX = "KANOA_"


def _resolve(name, cli_value, file_cfg):
    if cli_value is not None:
        return cli_value
    env_name = _ENV_PREFIX + name.upper()
    env = os.environ.get(env_name)
    if env is not None:
        return _integer(env, env_name)
    if name in file_cfg:
        return _integer(file_cfg[name], f"config key '{name}'")
    return _DEFAULTS[name]


def _integer(raw, source):
    # int() would also accept True and truncate 2.9, so take only int or str
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    if isinstance(raw, str):
        try:
            return int(raw)
        except ValueError:
            pass
    raise ValueError(f"{source} must be an integer, got {raw!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kanoa", description="multi-robot mission planner"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    plan = sub.add_parser("plan", help="synthesize Pareto-optimal mission plans")
    plan.add_argument("--input", required=True, help="mission file (.kanoa)")
    plan.add_argument("--out", required=True, help="output directory")
    plan.add_argument("--config", help="JSON config file with defaults")
    plan.add_argument("--allocations", type=int, help="allocations to enumerate")
    plan.add_argument("--permutations", type=int, help="permutations per allocation")
    plan.add_argument("--pop", type=int, help="GA population size")
    plan.add_argument("--gens", type=int, help="GA generations")
    plan.add_argument("--seed", type=int, help="random seed")
    plan.add_argument("--state-cap", type=int, help="MDP state cap")
    plan.add_argument(
        "--dump-allocations", action="store_true", help="write allocations.json"
    )
    plan.add_argument(
        "--dump-mdp", action="store_true", help="write mdp_*.txt for front entries"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    file_cfg = {}
    if args.config:
        try:
            file_cfg = json.loads(open(args.config, encoding="utf-8").read())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read config {args.config}: {exc}", file=sys.stderr)
            return 1

    try:
        cfg = PipelineConfig(
            allocations=_resolve("allocations", args.allocations, file_cfg),
            permutations=_resolve("permutations", args.permutations, file_cfg),
            population=_resolve("pop", args.pop, file_cfg),
            generations=_resolve("gens", args.gens, file_cfg),
            seed=_resolve("seed", args.seed, file_cfg),
            state_cap=_resolve("state_cap", args.state_cap, file_cfg),
            dump_allocations=args.dump_allocations,
            dump_mdp=args.dump_mdp,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        report = run(args.input, cfg, args.out)
    except DslSyntaxError as exc:
        print(f"{args.input}:{exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        for problem in exc.problems:
            print(f"{args.input}: {problem}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as exc:
        print(f"error: {args.input} is not UTF-8 text: {exc}", file=sys.stderr)
        return 1
    except (InfeasibleAllocation, NoFeasibleSolution) as exc:
        print(f"no feasible plan: {exc}", file=sys.stderr)
        return 2

    print(
        f"pareto front: {len(report.front.entries)} plans "
        f"(artifacts in {args.out})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
