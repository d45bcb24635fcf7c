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
from pathlib import Path

from .errors import (
    DslSyntaxError,
    InfeasibleAllocation,
    NoFeasibleSolution,
    StateExplosion,
    ValidationError,
)
from .reporting import PipelineConfig, run

# flag / config-file key / KANOA_ suffix -> PipelineConfig field; a key set
# nowhere keeps PipelineConfig's default
_FIELDS = {
    "allocations": "allocations",
    "permutations": "permutations",
    "pop": "population",
    "gens": "generations",
    "seed": "seed",
    "state_cap": "state_cap",
}

_ENV_PREFIX = "KANOA_"


def _read_config(path) -> dict:
    try:
        cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValueError(
            f"config {path} must hold a JSON object, got {type(cfg).__name__}"
        )
    unknown = sorted(set(cfg) - set(_FIELDS))
    if unknown:
        raise ValueError(
            f"config {path} has unknown key(s) {', '.join(map(repr, unknown))}; "
            f"known keys: {', '.join(_FIELDS)}"
        )
    return cfg


def _resolve(args, file_cfg) -> dict:
    """PipelineConfig keyword arguments from flags, environment and file."""
    values = {}
    for key, name in _FIELDS.items():
        env_name = _ENV_PREFIX + key.upper()
        if getattr(args, key) is not None:
            values[name] = getattr(args, key)
        elif env_name in os.environ:
            values[name] = _integer(os.environ[env_name], env_name)
        elif key in file_cfg:
            values[name] = _integer(file_cfg[key], f"config key '{key}'")
    return values


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
    plan.add_argument("--state-cap", type=int, help="state cap of front and dumped models")
    plan.add_argument(
        "--dump-allocations", action="store_true", help="write allocations.json"
    )
    plan.add_argument(
        "--dump-mdp", action="store_true", help="write mdp_*.txt for front entries"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    try:
        file_cfg = _read_config(args.config) if args.config else {}
        cfg = PipelineConfig(
            **_resolve(args, file_cfg),
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
    except StateExplosion as exc:  # a front or --dump-mdp model over the cap
        print(f"error: {exc}", file=sys.stderr)
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
