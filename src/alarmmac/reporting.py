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
import uuid
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from .config import (
    PolicyKind,
    ScenarioConfig,
    config_fingerprint,
    config_to_dict,
    derive_run_seed,
    with_overrides,
)
from .engine import RunTrace, Simulation

SWEEP_AXES = ("n_subnets", "n_channels", "eta", "dnn_shape")


def in_time_probability(trace: RunTrace) -> float | None:
    """Delivered-within-deadline events over all terminal events; None if no events."""
    total = len(trace.events)
    if total == 0:
        return None
    return trace.delivered_count / total


def system_mse(losses: Sequence[float]) -> float:
    """Mean minibatch loss across the agents that trained at one epoch."""
    if len(losses) == 0:
        raise ValueError("system MSE needs at least one active agent")
    return float(np.mean(losses))


def mse_decile_medians(mse: Sequence[float]) -> tuple[float, float] | None:
    """Medians of the first and last 10% of the update-epoch MSE series."""
    n = len(mse)
    if n < 10:
        return None
    decile = max(1, n // 10)
    first = float(np.median(mse[:decile]))
    last = float(np.median(mse[-decile:]))
    return first, last


def _decimate(values: Sequence[float], max_points: int = 400) -> list[float]:
    if len(values) <= max_points:
        return [float(v) for v in values]
    idx = np.linspace(0, len(values) - 1, max_points).round().astype(int)
    return [float(values[i]) for i in idx]


@dataclass
class ExperimentResult:
    """Aggregates of one experiment's runs.

    `slots_per_run` is the number of slots each run actually ran: one
    number if every run ran as many, else one per run (`until_events` can
    stop runs at different slots). `mse_first_decile_median` and
    `mse_last_decile_median` are medians over runs of each run's own
    first- and last-decile MSE median (`mse_decile_medians`); runs with
    fewer than 10 MSE points are left out, and both are None if no run has
    10. `mse_series` is the runs' MSE series joined in seed order, decimated
    to at most 400 points.
    """

    config_fingerprint: str
    policy: str
    seeds: list[int]
    slots_per_run: int | list[int]
    per_run_in_time: list[float | None]
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
        return {
            "config_fingerprint": self.config_fingerprint,
            "policy": self.policy,
            "seeds": self.seeds,
            "slots_per_run": self.slots_per_run,
            "per_run_in_time": self.per_run_in_time,
            "mean_in_time": self.mean_in_time,
            "stderr_in_time": self.stderr_in_time,
            "events_delivered": self.events_delivered,
            "events_failed": self.events_failed,
            "mse_first_decile_median": self.mse_first_decile_median,
            "mse_last_decile_median": self.mse_last_decile_median,
            "mse_series": self.mse_series,
        }

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "ExperimentResult":
        return cls(**raw)


def _atomic_write(path: str, data: str) -> None:
    """Write through a temporary file of its own in the target directory,
    then rename it over `path`, so concurrent writers never share one."""
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{uuid.uuid4().hex}.tmp")
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


def read_result(path: str) -> ExperimentResult:
    with open(path, "r", encoding="utf-8") as fh:
        return ExperimentResult.from_dict(json.load(fh))


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
    seeds = [int(s) for s in seeds]

    per_run: list[float | None] = []
    slots: list[int] = []
    delivered = failed = 0
    mse_all: list[float] = []
    run_deciles: list[tuple[float, float]] = []
    for seed in seeds:
        trace = Simulation(config, seed=seed).run(until_events=until_events)
        per_run.append(in_time_probability(trace))
        slots.append(trace.n_slots)
        delivered += trace.delivered_count
        failed += trace.failed_count
        mse_all.extend(trace.mse)
        deciles = mse_decile_medians(trace.mse)
        if deciles is not None:
            run_deciles.append(deciles)

    defined = [v for v in per_run if v is not None]
    mean = sum(defined) / len(defined) if defined else None
    stderr = None
    if len(defined) > 1:
        if all(v == defined[0] for v in defined):
            stderr = 0.0  # repeated seeds are bit-identical runs
        else:
            stderr = float(np.std(defined, ddof=1) / math.sqrt(len(defined)))

    result = ExperimentResult(
        config_fingerprint=config_fingerprint(config),
        policy=config.policy_kind.value,
        seeds=seeds,
        slots_per_run=slots[0] if len(set(slots)) == 1 else slots,
        per_run_in_time=per_run,
        mean_in_time=mean,
        stderr_in_time=stderr,
        events_delivered=delivered,
        events_failed=failed,
        mse_first_decile_median=float(np.median([d[0] for d in run_deciles])) if run_deciles else None,
        mse_last_decile_median=float(np.median([d[1] for d in run_deciles])) if run_deciles else None,
        mse_series=_decimate(mse_all),
        wall_clock_s=time.perf_counter() - started,
    )
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        name = f"result_{result.policy}_{result.config_fingerprint[:12]}.json"
        write_result(result, os.path.join(out_dir, name))
    return result


def _apply_axis(config: ScenarioConfig, axis: str, value: Any) -> ScenarioConfig:
    if axis == "dnn_shape":
        layers, size = value
        return with_overrides(config, dnn_hidden_layers=int(layers), dnn_hidden_size=int(size))
    if axis in ("n_subnets", "n_channels"):
        return with_overrides(config, **{axis: int(value)})
    if axis == "eta":
        return with_overrides(config, eta=float(value))
    raise ValueError(f"unknown sweep axis {axis!r}; choose from {SWEEP_AXES}")


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
    comparisons see identical placement, mobility, and event draws.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; choose from {SWEEP_AXES}")
    if not values:
        raise ValueError("sweep needs at least one value")
    kinds = [PolicyKind(p) for p in (policies or [base_config.policy_kind])]

    rows: list[tuple[str, str, ExperimentResult]] = []
    for value in values:
        point_cfg = _apply_axis(base_config, axis, value)
        seeds = [derive_run_seed(point_cfg.rng_seed, i) for i in range(point_cfg.n_runs)]
        for kind in kinds:
            cfg = with_overrides(point_cfg, policy_kind=kind)
            result = run_experiment(cfg, seeds=seeds, until_events=until_events)
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
