"""Alarm events and the distance-decaying activation of subnetworks.

An event at epicenter e activates subnetwork n according to the probability
p(d) = exp(-eta * d) of detecting an event at distance d. Activation applies
a hard threshold p(d) >= tx_threshold and, in the default mode, an additional
Bernoulli(p(d)) detection draw. The active set is frozen at event birth.

Under `threshold_only` activation the gate is decided from the squared
offset q = dx*dx + dy*dy, without `hypot` or `exp`, against two squared
radii computed once per (eta, threshold, area): q up to the sure-pass
radius means p >= threshold * (1 + 1e-9), q beyond the sure-fail radius
means p < threshold * (1 - 1e-9). Only offsets in the band between them,
practically none, take the exact test `exp(-eta * hypot(dx, dy)) >=
threshold`. Near the threshold eta * d < 691, where the squares, their
sum, `hypot`, the product and `exp` together err by less than 1e-12
relative: far inside the band, so every decision is the exact test's. The
screen is off, and every offset takes the exact test, for a threshold of
at most 1e-300 (near which `exp` turns subnormal) and for an area whose
squared diagonal could overflow. The Bernoulli mode draws with p itself,
so it computes p exactly for every offset.

Two Monte Carlo estimators run the kernel outside a run, over uniform
epicentres: `empirical_activation`, each pose's activation probability,
and `active_size_pmf`, the pmf of an alarm's active size. Both read one
sweep, `_activation_sweep`, the only place that draws epicentres for them:
the epicentres' x, then their y, then, pose by pose, the kernel's draws in
chunks of `_ACTIVATION_CHUNK` epicentres. A chunk draws its Bernoulli
uniforms in the order of one pass over all epicentres, and integer counts
of activations over the chunks equal that pass's, so the estimates and the
generator's state are those of the one pass.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator

import numpy as np
from numpy.typing import ArrayLike

from .config import ActivationMode, ScenarioConfig, checked_int, derive_stream
from .geometry import place_uniform


@dataclass
class AlarmEvent:
    epicenter: tuple[float, float]
    birth_slot: int
    active_set: tuple[int, ...]


def activation_probability(d_m: ArrayLike, eta: float) -> np.ndarray:
    """exp(-eta * d) per distance; strictly decreasing in d, 1 at the epicenter."""
    d = np.asarray(d_m, dtype=float)
    if (d < 0).any():
        raise ValueError("distance must be >= 0")
    if eta <= 0:
        raise ValueError("eta must be > 0")
    return np.exp(-eta * d)


# epicentres per kernel call of `_activation_sweep`: its temporaries, 64 kB
# each, are reused from the heap and stay in cache, where those of a whole
# pose (0.8 MB each at 100 000 trials) go back to the system when freed and
# page-fault in again at the next pose, twice the time of the work itself
_ACTIVATION_CHUNK = 8192
_BAND = 1e-9  # relative half-width, in probability, of the exactly tested band
_TINY = 1e-300  # no threshold or squared radius at or below this is screened


@lru_cache(maxsize=64)
def _screen_radii(eta: float, threshold: float, width: float, height: float) -> tuple[float, float] | None:
    """Squared offsets (sure_pass, sure_fail) of the threshold screen: q <=
    sure_pass passes and q > sure_fail fails for certain; -1 and inf leave
    that side to the exact test, and None the whole gate. Past the finite
    floats nothing passes for certain, so an overflowed q is tested exactly."""
    if threshold <= _TINY or math.hypot(width, height) > 1e150:
        return None
    pass_level = threshold * (1.0 + _BAND)
    pass_radius = -math.log(pass_level) / eta if pass_level < 1.0 else 0.0
    fail_radius = -math.log(threshold * (1.0 - _BAND)) / eta
    sure_pass, sure_fail = pass_radius * pass_radius, fail_radius * fail_radius
    sure_pass = min(sure_pass, sys.float_info.max) if sure_pass > _TINY else -1.0
    sure_fail = sure_fail if sure_fail > _TINY else math.inf
    return None if sure_pass < 0.0 and sure_fail == math.inf else (sure_pass, sure_fail)


def _exact_activated(dx: np.ndarray, dy: np.ndarray, rng: np.random.Generator, config: ScenarioConfig) -> np.ndarray:
    """Which of the offsets (dx, dy) from the epicenter activate: p(d) =
    exp(-eta * d) at d = hypot(dx, dy) passes the threshold gate and, in the
    default mode, a Bernoulli(p(d)) draw of one uniform per offset."""
    p = activation_probability(np.hypot(dx, dy), config.eta)
    passed = p >= config.tx_threshold
    if config.activation_mode is ActivationMode.THRESHOLD_AND_BERNOULLI:
        passed &= rng.random(p.shape) < p
    return passed


def _activated(dx: np.ndarray, dy: np.ndarray, rng: np.random.Generator, config: ScenarioConfig) -> np.ndarray:
    """`_exact_activated`, with the threshold-only gate screened on the
    squared offsets and tested exactly only in the band (see the module
    notes). Offsets lie within the area's diagonal."""
    screen = None
    if config.activation_mode is ActivationMode.THRESHOLD_ONLY:
        screen = _screen_radii(config.eta, config.tx_threshold, config.area_width_m, config.area_height_m)
    if screen is None:
        return _exact_activated(dx, dy, rng, config)
    sure_pass, sure_fail = screen
    q = dx * dx
    q += dy * dy
    passed = q <= sure_pass
    band = q <= sure_fail
    band ^= passed  # sure_pass < sure_fail, so this leaves the band only
    if band.any():
        passed[band] = _exact_activated(dx[band], dy[band], rng, config)
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
    return tuple(np.flatnonzero(_activated(poses["x"] - ex, poses["y"] - ey, rng, config)).tolist())


def maybe_spawn_event(
    slot: int,
    poses: Callable[[], np.ndarray],
    rng: np.random.Generator,
    config: ScenarioConfig,
) -> AlarmEvent | None:
    """With probability alpha, spawn an event with a uniform epicenter.

    The epicenter is one ``rng.random(2)`` scaled by (W, H): the doubles
    ``0.0 + W * next_double`` and ``0.0 + H * next_double`` of
    ``rng.uniform(0, W)`` and then ``rng.uniform(0, H)``, in one call.
    `poses` returns the current poses, called only when an event spawns; a
    spawning `slot` is an integer >= 0, or a ValueError names it.
    """
    if rng.random() >= config.alpha:
        return None
    slot = checked_int(slot, "slot", minimum=0)  # after the alpha draw: an idle slot pays nothing
    u, v = rng.random(2).tolist()
    epicenter = (config.area_width_m * u, config.area_height_m * v)
    active = build_active_set(epicenter, poses(), rng, config)
    return AlarmEvent(epicenter=epicenter, birth_slot=slot, active_set=active)


def _activation_sweep(
    poses: np.ndarray, config: ScenarioConfig, rng: np.random.Generator, n_epicentres: int
) -> Iterator[tuple[int, int, np.ndarray]]:
    """The kernel over `n_epicentres` uniform epicentres: draws their x, then
    their y, then, for each pose in turn, the kernel's draws in chunks of
    `_ACTIVATION_CHUNK` epicentres. Yields (pose index, first epicentre of
    the chunk, which of the chunk's epicentres activate the pose)."""
    ex = rng.uniform(0.0, config.area_width_m, size=n_epicentres)
    ey = rng.uniform(0.0, config.area_height_m, size=n_epicentres)
    for n, (x, y) in enumerate(zip(poses["x"].tolist(), poses["y"].tolist())):
        for start in range(0, n_epicentres, _ACTIVATION_CHUNK):
            stop = start + _ACTIVATION_CHUNK
            yield n, start, _activated(x - ex[start:stop], y - ey[start:stop], rng, config)


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
    hits = np.zeros(len(poses), dtype=np.int64)
    for n, _, passed in _activation_sweep(poses, config, rng, n_trials):
        hits[n] += np.count_nonzero(passed)
    return config.alpha * (hits / n_trials)


def active_size_pmf(config: ScenarioConfig, placements: int, epicentres: int, seed: int) -> np.ndarray:
    """Pmf of an alarm's active size k = 0..N under `config`: entry k is the
    share of alarms that activate exactly k poses, over `placements`
    placements of the N poses, each with `epicentres` uniform epicentres,
    honouring the activation mode. k = 0 is a coverage miss.

    The placements are drawn one after another from the stream `placement`
    of `seed`, so the first is the one `Simulation(config, seed)` starts
    from; the epicentres and any detection draws come from its stream
    `epicentres`, each placement's through the sweep that
    `empirical_activation` reads with `n_trials = epicentres`. `placements`
    and `epicentres` are integers >= 1, or a ValueError names the argument
    before any draw.
    """
    placements = checked_int(placements, "placements", minimum=1)
    epicentres = checked_int(epicentres, "epicentres", minimum=1)
    rng_placement = derive_stream(seed, "placement")
    rng = derive_stream(seed, "epicentres")
    counts = np.zeros(config.n_subnets + 1, dtype=np.int64)
    for _ in range(placements):
        sizes = np.zeros(epicentres, dtype=np.int64)
        for _, start, passed in _activation_sweep(place_uniform(config, rng_placement), config, rng, epicentres):
            sizes[start:start + len(passed)] += passed
        counts += np.bincount(sizes, minlength=config.n_subnets + 1)
    return counts / (placements * epicentres)
