"""Link gains: ABG pathloss, spatially correlated shadowing, Rayleigh fading.

The complex per-channel gain composes as

    gain = fading * 10 ** (-(PL_dB + shadow_dB) / 10)

with unit-variance circular complex fading redrawn i.i.d. per slot and per
channel. Line of sight, the link parameters it selects (the pathloss
coefficients and the shadowing sigma) and shadowing are snapshot
quantities; pathloss follows the current distance. Every function takes
arrays, so one call serves all the links concerned; only the set-up's
`correlation_factor` converts its input. Gains only shape the
contention-signature signal; collisions follow from the patterns alone.
The functions hold no state: `signature.Contexts` draws the snapshot
through them and composes each round's gains.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.typing import ArrayLike

from .config import ScenarioConfig


def pathloss_coefficients(los: ArrayLike, config: ScenarioConfig) -> np.ndarray:
    """ABG slope 10*a (row 0) and offset b + 10*g*log10(f_GHz) (row 1) per
    link, LOS where `los` is set and NLOS elsewhere: (2, N) for N links."""
    (a_los, b_los, g_los), (a_nlos, b_nlos, g_nlos) = config.pathloss_abg_los, config.pathloss_abg_nlos
    log_f = math.log10(config.carrier_ghz)
    los_column = [[10.0 * a_los], [b_los + 10.0 * g_los * log_f]]
    nlos_column = [[10.0 * a_nlos], [b_nlos + 10.0 * g_nlos * log_f]]
    return np.where(los, los_column, nlos_column)


def pathloss_db(d_m: ArrayLike, coefficients: np.ndarray) -> np.ndarray:
    """ABG pathloss slope*log10(d) + offset of links at distances d (N,),
    from their (2, N) `pathloss_coefficients`; d clamped at 1 m."""
    return coefficients[0] * np.log10(np.maximum(d_m, 1.0)) + coefficients[1]


def los_probability(d_m: ArrayLike, config: ScenarioConfig) -> np.ndarray:
    return np.exp(-np.maximum(d_m, 0.0) / config.los_decay_m)


def draw_los(d_m: ArrayLike, rng: np.random.Generator, config: ScenarioConfig) -> np.ndarray:
    """Line of sight per distance: one uniform per distance, in order."""
    p = los_probability(d_m, config)
    return rng.random(p.shape) < p


def correlation_factor(positions: np.ndarray, corr_distance_m: float) -> np.ndarray:
    """Lower Cholesky factor L of the correlation exp(-d/d_corr) between the
    (k, 2) `positions`, so that L @ L.T is that matrix."""
    pts = np.atleast_2d(np.asarray(positions, dtype=float))
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=-1))
    # jitter keeps the Cholesky stable for coincident points
    return np.linalg.cholesky(np.exp(-dist / corr_distance_m) + 1e-12 * np.eye(len(pts)))


def shadowing_db(positions: np.ndarray, los: ArrayLike, rng: np.random.Generator, config: ScenarioConfig) -> np.ndarray:
    """Zero-mean shadowing (k,) of the links at the (k, 2) `positions`: each
    link's sigma, LOS where `los` is set and NLOS elsewhere, times the
    correlation factor times k standard normals."""
    sigma = np.where(los, config.shadow_sigma_los_db, config.shadow_sigma_nlos_db)
    factor = correlation_factor(positions, config.shadow_corr_distance_m)
    return sigma * (factor @ rng.standard_normal(len(factor)))


def complex_gaussian(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Circular complex Gaussian with E[|z|^2] = 1: the fading and both
    directions' receiver noise."""
    # each pair of normals is one complex number's real and imaginary part
    return rng.standard_normal(shape + (2,)).view(np.complex128)[..., 0] / math.sqrt(2.0)


def attenuation(pathloss: np.ndarray, shadow: np.ndarray) -> np.ndarray:
    return 10.0 ** (-(pathloss + shadow) / 10.0)
