"""Command line entry points: simulate, sweep, analyze, selftest."""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import analytics
from .config import PolicyKind, load_config_file, with_overrides
from .reporting import SWEEP_AXES, run_experiment, sweep


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
    return with_overrides(cfg, **overrides) if overrides else cfg


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load(args)
    result = run_experiment(cfg, out_dir=args.out)
    print(json.dumps(result.to_dict(), sort_keys=True, indent=2))
    print(f"wall clock: {result.wall_clock_s:.2f} s", file=sys.stderr)
    return 0


def _parse_axis_value(axis: str, raw: str):
    if axis == "dnn_shape":
        layers, size = raw.lower().split("x")
        return (int(layers), int(size))
    if axis == "eta":
        return float(raw)
    return int(raw)


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load(args)
    values = [_parse_axis_value(args.axis, v) for v in args.values]
    policies = args.policies.split(",") if args.policies else [cfg.policy_kind.value]
    rows = sweep(cfg, args.axis, values, policies=policies, out_dir=args.out)
    for label, policy, result in rows:
        mean = "n/a" if result.mean_in_time is None else f"{result.mean_in_time:.4f}"
        err = "" if result.stderr_in_time is None else f" +- {result.stderr_in_time:.4f}"
        print(f"{args.axis}={label:<8} {policy:<6} in-time {mean}{err}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    ps = [float(v) for v in args.ps]
    if any(not 0.0 <= v <= 1.0 for v in ps):
        print("error: success probabilities must lie in [0, 1]", file=sys.stderr)
        return 2
    deadline = args.deadline
    print("D  P_within_deadline  P_missed")
    for d in range(deadline + 1):
        if len(ps) == 1:
            spec = analytics.stationary_dtmc(ps[0], d)
        elif len(ps) >= d + 1:
            spec = analytics.DtmcSpec(np.array(ps[: d + 1]))
        else:
            print(f"error: need 1 or >= {deadline + 1} success probabilities", file=sys.stderr)
            return 2
        p_leq, p_gt = analytics.deadline_probability(spec)
        print(f"{d:<3}{p_leq:<19.12f}{p_gt:.12f}")
    return 0


def _selftest_checks():
    from .engine import resolve_collisions
    from .policies import pattern_table
    from . import learning
    import itertools

    def collision_oracle() -> None:
        for m in (1, 2):
            width = 1 << m
            for k in range(5):
                for joint in itertools.product(range(width), repeat=k):
                    matrix = pattern_table(m)[list(joint)].T if k else np.zeros((m, 0), dtype=int)
                    expected = any(int(matrix[ch].sum()) == 1 for ch in range(m))
                    if resolve_collisions(list(joint), m).success != expected:
                        raise AssertionError(f"collision mismatch at M={m} joint={joint}")

    def dtmc_consistency() -> None:
        rng = np.random.default_rng(1)
        for _ in range(20):
            spec = analytics.DtmcSpec(rng.random(int(rng.integers(1, 8))))
            a = analytics.deadline_probability(spec)
            b = analytics.deadline_probability_via_absorption(spec)
            if abs(a[0] - b[0]) > 1e-10 or abs(a[1] - b[1]) > 1e-10:
                raise AssertionError("deadline probability paths disagree")

    def gradient_check() -> None:
        rng = np.random.default_rng(2)
        for _ in range(5):
            model = learning.init_mlp([2, 3, 4], rng)
            batch = (rng.random((6, 2)), rng.integers(0, 4, 6), rng.standard_normal(6))
            grads, _ = learning.backward(model, batch)
            flat = learning.grads_to_vector(grads)
            theta = learning.params_to_vector(model)
            for j in rng.choice(theta.size, 10, replace=False):
                step = np.zeros_like(theta)
                step[j] = 1e-5
                learning.vector_to_params(model, theta + step)
                up = learning.loss(model, batch)
                learning.vector_to_params(model, theta - step)
                down = learning.loss(model, batch)
                learning.vector_to_params(model, theta)
                numeric = (up - down) / 2e-5
                if abs(numeric - flat[j]) / max(abs(numeric) + abs(flat[j]), 1e-6) > 1e-4:
                    raise AssertionError("analytic gradient disagrees with finite differences")

    def clip_norm() -> None:
        rng = np.random.default_rng(3)
        for _ in range(20):
            grads = [(rng.standard_normal((3, 2)) * 10, rng.standard_normal(3) * 10)]
            clipped = learning.clip_gradient(grads, 5.0)
            if learning.grad_norm(clipped) > 5.0 + 1e-9:
                raise AssertionError("clipped norm exceeds threshold")

    return {
        "collision_oracle": collision_oracle,
        "dtmc_consistency": dtmc_consistency,
        "gradient_check": gradient_check,
        "clip_norm": clip_norm,
    }


def _cmd_selftest(_args: argparse.Namespace) -> int:
    failures = []
    for name, check in _selftest_checks().items():
        try:
            check()
        except AssertionError as exc:
            failures.append(name)
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
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
