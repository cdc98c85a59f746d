"""Command line entry points: simulate, sweep, analyze, selftest."""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from dataclasses import replace

import numpy as np

from . import analytics
from .config import PolicyKind, checked_int, load_config_file
from .reporting import SWEEP_AXES, parse_axis_value, run_experiment, sweep


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="path to a JSON scenario file")
    parser.add_argument("--seed", type=int, default=None, help="override rng_seed")
    parser.add_argument("--runs", type=int, default=None, help="override n_runs")
    parser.add_argument("--slots", type=int, default=None, help="override n_slots")
    parser.add_argument("--policy", choices=[p.value for p in PolicyKind], default=None)
    parser.add_argument("--out", default=None, help="output directory")


def _load(args: argparse.Namespace):
    cfg = load_config_file(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["rng_seed"] = args.seed
    if args.runs is not None:
        overrides["n_runs"] = args.runs
    if args.slots is not None:
        overrides["n_slots"] = args.slots
    if args.policy is not None:
        overrides["policy_kind"] = PolicyKind(args.policy)
    return replace(cfg, **overrides)


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load(args)
    result = run_experiment(cfg, out_dir=args.out)
    print(json.dumps(result.to_dict(), sort_keys=True, indent=2))
    print(f"wall clock: {result.wall_clock_s:.2f} s", file=sys.stderr)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load(args)
    values = [parse_axis_value(args.axis, v) for v in args.values]
    policies = args.policies.split(",") if args.policies else [cfg.policy_kind.value]
    rows = sweep(cfg, args.axis, values, policies=policies, out_dir=args.out)
    for label, policy, result in rows:
        mean = "n/a" if result.mean_in_time is None else f"{result.mean_in_time:.4f}"
        err = "" if result.stderr_in_time is None else f" +- {result.stderr_in_time:.4f}"
        print(f"{args.axis}={label:<8} {policy:<6} in-time {mean}{err}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    # every refusal comes before the first row
    try:
        ps = analytics.DtmcSpec(np.array([float(v) for v in args.ps])).ps
        deadline = checked_int(args.deadline, "deadline", minimum=0)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if ps.size != 1 and ps.size < deadline + 1:
        print(f"error: need 1 or >= {deadline + 1} success probabilities", file=sys.stderr)
        return 2
    ages = itertools.repeat(float(ps[0]), deadline + 1) if ps.size == 1 else ps[: deadline + 1].tolist()
    print("D  P_within_deadline  P_missed")
    for d, (p_leq, p_gt) in enumerate(analytics.deadline_probability_table(ages)):
        print(f"{d:<3}{p_leq:<19.12f}{p_gt:.12f}")
    return 0


def _cmd_selftest(_args: argparse.Namespace) -> int:
    from .selfcheck import selftest

    failures = []
    for name, passed, measured in selftest():
        print(f"{'ok  ' if passed else 'FAIL'} {name}: {measured}")
        if not passed:
            failures.append(name)
    if failures:
        print(f"selftest failed: {', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="alarmmac")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one experiment")
    _add_common(sim)
    sim.set_defaults(func=_cmd_simulate)

    swp = sub.add_parser("sweep", help="run experiments along one axis")
    _add_common(swp)
    swp.add_argument("--axis", required=True, choices=SWEEP_AXES)
    swp.add_argument("--values", required=True, nargs="+")
    swp.add_argument("--policies", default=None, help="comma-separated list, e.g. drl,mapra,rch")
    swp.set_defaults(func=_cmd_sweep)

    ana = sub.add_parser("analyze", help="deadline probability table from success probabilities")
    ana.add_argument("--ps", required=True, nargs="+", help="per-age success probabilities (1 = stationary)")
    ana.add_argument("--deadline", type=int, required=True)
    ana.set_defaults(func=_cmd_analyze)

    tst = sub.add_parser("selftest", help="run the built-in oracle suite")
    tst.set_defaults(func=_cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # named failing invariant, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
