"""Metrics, experiment orchestration, sweeps, and result persistence.

Result files are deterministic: given an equal config and seed they are
byte-identical, so wall-clock time is kept on the in-memory object only.
Writes are atomic (write to a temp file, then rename).
"""

from __future__ import annotations

import json
import math
import os
import time
from array import array
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Sequence

import numpy as np

from .config import (
    PolicyKind,
    ScenarioConfig,
    _median,
    checked_int,
    config_fingerprint,
    config_to_dict,
    derive_run_seed,
)
from .engine import RunTrace, Simulation

SWEEP_AXES = ("n_subnets", "n_channels", "eta", "dnn_shape")


def in_time_probability(trace: RunTrace) -> float | None:
    """Delivered-within-deadline events over all terminal events; None if no events."""
    total = len(trace.events)
    if total == 0:
        return None
    return trace.delivered_count / total


def mse_decile_medians(mse: Sequence[float]) -> tuple[float, float] | None:
    """Medians of the first and last 10% of the update-epoch MSE series."""
    n = len(mse)
    if n < 10:
        return None
    decile = max(1, n // 10)
    first = _median(mse[:decile])
    last = _median(mse[-decile:])
    return first, last


# the 0.975 quantile of Student's t by degrees of freedom, for two-sided 95 %
# intervals; a count between two rows takes the lower row's wider quantile
_T975 = (
    (1, 12.706205), (2, 4.302653), (3, 3.182446), (4, 2.776445), (5, 2.570582), (6, 2.446912),
    (7, 2.364624), (8, 2.306004), (9, 2.262157), (10, 2.228139), (11, 2.200985), (12, 2.178813),
    (13, 2.160369), (14, 2.144787), (15, 2.131450), (16, 2.119905), (17, 2.109816), (18, 2.100922),
    (19, 2.093024), (20, 2.085963), (21, 2.079614), (22, 2.073873), (23, 2.068658), (24, 2.063899),
    (25, 2.059539), (26, 2.055529), (27, 2.051831), (28, 2.048407), (29, 2.045230), (30, 2.042272),
    (40, 2.021075), (60, 2.000298), (120, 1.979930),
)


def _t_quantile_975(df: int) -> float:
    """Student's t 0.975 quantile for `df` >= 1 degrees of freedom, from a
    table: exact at 1-30, 40, 60 and 120, else the next lower row's, which
    is wider."""
    return [q for d, q in _T975 if d <= df][-1]


@dataclass(frozen=True)
class PairedDifference:
    """The per-seed differences a - b of two paired samples: their count,
    mean, standard deviation and standard error, the count of pairs with
    a > b, and the 95 % Student t interval of the mean difference."""

    n: int
    mean: float
    sd: float
    se: float
    wins: int
    low: float
    high: float


def paired_difference(a: Sequence[float], b: Sequence[float]) -> PairedDifference:
    """Compare two samples taken on the same seeds, pair by pair. Every
    value must be finite: a run's undefined statistic (None, as NaN here)
    has no difference to pair."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"paired samples must be two 1-D arrays of one length, got {a.shape} and {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError(f"paired samples must be finite, got {a.tolist()} and {b.tolist()}")
    n = a.size
    if n < 2:
        raise ValueError(f"a paired difference needs at least two pairs, got {n}")
    d = a - b
    mean, sd = float(d.mean()), float(d.std(ddof=1))
    se = sd / math.sqrt(n)
    half = _t_quantile_975(n - 1) * se
    return PairedDifference(n, mean, sd, se, int((a > b).sum()), mean - half, mean + half)


def _decimate(values: array, max_points: int = 400) -> list[float]:
    if len(values) <= max_points:
        return values.tolist()
    idx = np.linspace(0, len(values) - 1, max_points).round().astype(int)
    return [values[i] for i in idx.tolist()]


@dataclass
class ExperimentResult:
    """Aggregates of one experiment's runs.

    `slots_per_run` and the `per_run_*` lists hold one entry per seed, in
    the order of `seeds`: the slots the run actually ran (`until_events`
    can stop runs at different slots); its `in_time_probability`, None with
    no terminal event; its successful over contention slots, None with no
    contention slot; and its `mse_decile_medians` as `[first, last]`, None
    below 10 MSE points. `mean_in_time` and `stderr_in_time` are taken over
    the in-time values that are not None, and `mse_first_decile_median` and
    `mse_last_decile_median` are medians over the `per_run_mse_deciles` that
    are not None; both are None if all are. `mse_series` is the runs' MSE
    series joined in seed order, decimated to at most 400 points.
    """

    config_fingerprint: str
    policy: str
    seeds: list[int]
    slots_per_run: list[int]
    per_run_in_time: list[float | None]
    per_run_success: list[float | None]
    per_run_mse_deciles: list[list[float] | None]
    mean_in_time: float | None
    stderr_in_time: float | None
    events_delivered: int
    events_failed: int
    mse_first_decile_median: float | None
    mse_last_decile_median: float | None
    mse_series: list[float]
    wall_clock_s: float = field(default=0.0, compare=False)

    def to_dict(self) -> dict[str, Any]:
        # wall clock is intentionally excluded: result files must be
        # byte-identical across repeated runs of the same config + seed
        out = asdict(self)
        del out["wall_clock_s"]
        return out


def _atomic_write(path: str, data: str) -> None:
    """Write through a temporary file of its own in the target directory,
    then rename it over `path`, so concurrent writers never share one."""
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.urandom(16).hex()}.tmp")
    # mode 0o666 less the umask, as open() would give
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_result(result: ExperimentResult, path: str) -> None:
    _atomic_write(path, json.dumps(result.to_dict(), sort_keys=True, indent=2) + "\n")


def run_experiment(
    config: ScenarioConfig,
    seeds: Sequence[int] | None = None,
    out_dir: str | None = None,
    until_events: int | None = None,
) -> ExperimentResult:
    """Execute n_runs independent seeded runs and aggregate their metrics."""
    started = time.perf_counter()
    if seeds is None:
        seeds = [derive_run_seed(config.rng_seed, i) for i in range(config.n_runs)]
    # a bad seed or event count, or no seed at all, is refused before any run
    seeds = [checked_int(s, "seed") for s in seeds]
    if not seeds:
        raise ValueError("seeds: must hold at least one seed, got none")
    if until_events is not None:
        until_events = checked_int(until_events, "until_events", minimum=0)

    per_run: list[float | None] = []
    success: list[float | None] = []
    deciles: list[list[float] | None] = []
    slots: list[int] = []
    delivered = failed = 0
    mse_all = array("d")  # every run's MSE series, joined
    for seed in seeds:
        trace = Simulation(config, seed=seed).run(until_events=until_events)
        per_run.append(in_time_probability(trace))
        success.append(trace.n_successful_slots / trace.n_contention_slots if trace.n_contention_slots else None)
        medians = mse_decile_medians(trace.mse)
        deciles.append(None if medians is None else list(medians))
        slots.append(trace.n_slots)
        delivered += trace.delivered_count
        failed += trace.failed_count
        mse_all.extend(trace.mse)

    defined = [v for v in per_run if v is not None]
    mean = sum(defined) / len(defined) if defined else None
    stderr = None
    if len(defined) > 1:
        if all(v == defined[0] for v in defined):
            stderr = 0.0  # repeated seeds are bit-identical runs
        else:
            stderr = float(np.std(defined, ddof=1) / math.sqrt(len(defined)))
    run_deciles = [d for d in deciles if d is not None]

    result = ExperimentResult(
        config_fingerprint=config_fingerprint(config),
        policy=config.policy_kind.value,
        seeds=seeds,
        slots_per_run=slots,
        per_run_in_time=per_run,
        per_run_success=success,
        per_run_mse_deciles=deciles,
        mean_in_time=mean,
        stderr_in_time=stderr,
        events_delivered=delivered,
        events_failed=failed,
        mse_first_decile_median=_median([d[0] for d in run_deciles]) if run_deciles else None,
        mse_last_decile_median=_median([d[1] for d in run_deciles]) if run_deciles else None,
        mse_series=_decimate(mse_all),
        wall_clock_s=time.perf_counter() - started,
    )
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        name = f"result_{result.policy}_{result.config_fingerprint[:12]}.json"
        write_result(result, os.path.join(out_dir, name))
    return result


def _number(text: str) -> int | float:
    """Integer text as an int, other numeric text as a float."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def parse_axis_value(axis: str, raw: str) -> Any:
    """A sweep value from its command-line text, `LxS` for dnn_shape. Other
    text raises ValueError; the config refuses a number its field does not take."""
    try:
        if axis == "dnn_shape":
            layers, size = raw.lower().split("x")
            return (_number(layers), _number(size))
        return _number(raw)
    except ValueError:
        expected = "LxS" if axis == "dnn_shape" else "a number"
        raise ValueError(f"sweep axis {axis}: cannot read {raw!r} as {expected}") from None


def _apply_axis(config: ScenarioConfig, axis: str, value: Any) -> ScenarioConfig:
    """`config` at one value of an axis that `sweep` has checked; a value its
    field does not take raises ConfigError naming the key."""
    if axis == "dnn_shape":
        layers, size = value
        return replace(config, dnn_hidden_layers=layers, dnn_hidden_size=size)
    return replace(config, **{axis: value})


def _axis_label(axis: str, value: Any) -> str:
    if axis == "dnn_shape":
        return f"{value[0]}x{value[1]}"
    return str(value)


def sweep(
    base_config: ScenarioConfig,
    axis: str,
    values: Sequence[Any],
    policies: Sequence[PolicyKind | str] | None = None,
    out_dir: str | None = None,
    until_events: int | None = None,
) -> list[tuple[str, str, ExperimentResult]]:
    """One experiment per (axis value, policy), with common random numbers.

    Every policy at a given sweep point runs the same seed list, so policy
    comparisons see identical placement, mobility, and event draws:
    `run_experiment` derives it from `rng_seed` and `n_runs`, which neither
    the axis nor the policy changes.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; choose from {SWEEP_AXES}")
    if not values:
        raise ValueError("sweep needs at least one value")
    kinds = [PolicyKind(p) for p in (policies if policies is not None else [base_config.policy_kind])]
    if not kinds:
        raise ValueError("sweep needs at least one policy")

    points = [(value, _apply_axis(base_config, axis, value)) for value in values]  # every value checked first
    rows: list[tuple[str, str, ExperimentResult]] = []
    for value, point_cfg in points:
        for kind in kinds:
            result = run_experiment(replace(point_cfg, policy_kind=kind), until_events=until_events)
            rows.append((_axis_label(axis, value), kind.value, result))

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        lines = ["axis_value,policy,mean,stderr,runs"]
        for label, policy, result in rows:
            mean = "" if result.mean_in_time is None else repr(result.mean_in_time)
            err = "" if result.stderr_in_time is None else repr(result.stderr_in_time)
            lines.append(f"{label},{policy},{mean},{err},{len(result.seeds)}")
        _atomic_write(os.path.join(out_dir, f"sweep_{axis}.csv"), "\n".join(lines) + "\n")
        summary = {
            "axis": axis,
            "base_config": config_to_dict(base_config),
            "points": [
                {"axis_value": label, "policy": policy, "result": result.to_dict()}
                for label, policy, result in rows
            ],
        }
        _atomic_write(
            os.path.join(out_dir, f"sweep_{axis}.json"),
            json.dumps(summary, sort_keys=True, indent=2) + "\n",
        )
    return rows
