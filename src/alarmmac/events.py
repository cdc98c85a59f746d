"""Alarm events and the distance-decaying activation of subnetworks.

An event at epicenter e activates subnetwork n according to the probability
p(d) = exp(-eta * d) of detecting an event at distance d. Activation applies
a hard threshold p(d) >= tx_threshold and, in the default mode, an additional
Bernoulli(p(d)) detection draw. The active set is frozen at event birth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import ArrayLike

from .config import ActivationMode, ScenarioConfig, checked_int


@dataclass
class AlarmEvent:
    epicenter: tuple[float, float]
    birth_slot: int
    active_set: tuple[int, ...]
    attempts: int = 0


def activation_probability(d_m: ArrayLike, eta: float) -> np.ndarray:
    """exp(-eta * d) per distance; strictly decreasing in d, 1 at the epicenter."""
    d = np.asarray(d_m, dtype=float)
    if (d < 0).any():
        raise ValueError("distance must be >= 0")
    if eta <= 0:
        raise ValueError("eta must be > 0")
    return np.exp(-eta * d)


def _activated(d: np.ndarray, rng: np.random.Generator, config: ScenarioConfig) -> np.ndarray:
    """Which of the distances `d` activate: p(d) = exp(-eta * d) passes the
    threshold gate and, in the default mode, a Bernoulli(p(d)) draw of one
    uniform per distance."""
    p = activation_probability(d, config.eta)
    passed = p >= config.tx_threshold
    if config.activation_mode is ActivationMode.THRESHOLD_AND_BERNOULLI:
        passed &= rng.random(p.shape) < p
    return passed


def build_active_set(
    epicenter: tuple[float, float],
    poses: np.ndarray,
    rng: np.random.Generator,
    config: ScenarioConfig,
) -> tuple[int, ...]:
    """Indices activated by an event at `epicenter`.

    The detection uniforms are drawn for every pose in one call so that runs
    with different eta but equal seeds see coupled randomness.
    """
    ex, ey = epicenter
    d = np.hypot(poses["x"] - ex, poses["y"] - ey)
    return tuple(np.flatnonzero(_activated(d, rng, config)).tolist())


def maybe_spawn_event(
    slot: int,
    poses: Callable[[], np.ndarray],
    rng: np.random.Generator,
    config: ScenarioConfig,
) -> AlarmEvent | None:
    """With probability alpha, spawn an event with a uniform epicenter.

    `poses` returns the current poses; it is called only when an event
    spawns, so a slot without one never needs them.
    """
    if rng.random() >= config.alpha:
        return None
    epicenter = (
        float(rng.uniform(0.0, config.area_width_m)),
        float(rng.uniform(0.0, config.area_height_m)),
    )
    active = build_active_set(epicenter, poses(), rng, config)
    return AlarmEvent(epicenter=epicenter, birth_slot=slot, active_set=active)


def empirical_activation(
    poses: np.ndarray,
    config: ScenarioConfig,
    rng: np.random.Generator,
    n_trials: int = 100_000,
) -> np.ndarray:
    """Monte Carlo per-subnetwork activation probability under uniform epicenters.

    Estimates alpha * Pr(activated | event) for each pose, honoring the
    configured activation mode. Feeds the exact success-probability oracle.
    `n_trials` is an integer, numpy's included, >= 10 000; anything else is
    a ValueError naming it, raised before any draw.
    """
    n_trials = checked_int(n_trials, "n_trials", minimum=10_000)
    ex = rng.uniform(0.0, config.area_width_m, size=n_trials)
    ey = rng.uniform(0.0, config.area_height_m, size=n_trials)
    xs, ys = poses["x"], poses["y"]
    out = np.empty(len(poses))
    for n in range(len(poses)):
        d = np.hypot(xs[n] - ex, ys[n] - ey)
        out[n] = config.alpha * _activated(d, rng, config).mean()
    return out
