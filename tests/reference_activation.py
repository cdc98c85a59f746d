"""The exact activation gate: the reference of the screened kernel of
`alarmmac.events`.

This is the kernel as it was before the threshold screen. It takes the
distances, computes p = exp(-eta * d) for every one of them and compares p
with the threshold; the default mode then draws one uniform per distance.
`events._activated` must take the same decision on every offset and, in the
Bernoulli mode, draw the same uniforms.
"""

import numpy as np

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
