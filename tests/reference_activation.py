"""The exact activation gate and the one-pass activation estimate: the
references of the screened kernel and the chunked estimate of
`alarmmac.events`.

`exact_activated` is the kernel as it was before the threshold screen. It
takes the distances, computes p = exp(-eta * d) for every one of them and
compares p with the threshold; the default mode then draws one uniform per
distance. `events._activated` must take the same decision on every offset
and, in the Bernoulli mode, draw the same uniforms.

`one_pass_activation` is `events.empirical_activation` as it was before the
chunks: each pose's epicentres in one kernel call and the mean of its
decisions. The chunked estimate must give the same values and leave the
generator in the same state.
"""

import numpy as np

from alarmmac import events
from alarmmac.config import ActivationMode, ScenarioConfig
from alarmmac.events import activation_probability


def exact_activated(d: np.ndarray, rng: np.random.Generator, config: ScenarioConfig) -> np.ndarray:
    """Which of the distances `d` activate: p(d) = exp(-eta * d) passes the
    threshold gate and, in the default mode, a Bernoulli(p(d)) draw of one
    uniform per distance."""
    p = activation_probability(d, config.eta)
    passed = p >= config.tx_threshold
    if config.activation_mode is ActivationMode.THRESHOLD_AND_BERNOULLI:
        passed &= rng.random(p.shape) < p
    return passed


def one_pass_activation(poses: np.ndarray, config: ScenarioConfig, rng: np.random.Generator, n_trials: int) -> np.ndarray:
    """alpha times each pose's activated share of `n_trials` uniform
    epicentres, every pose's epicentres in one kernel call."""
    ex = rng.uniform(0.0, config.area_width_m, size=n_trials)
    ey = rng.uniform(0.0, config.area_height_m, size=n_trials)
    out = np.empty(len(poses))
    for n in range(len(poses)):
        out[n] = config.alpha * events._activated(poses["x"][n] - ex, poses["y"][n] - ey, rng, config).mean()
    return out
