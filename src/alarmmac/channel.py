"""Link gains: ABG pathloss, spatially correlated shadowing, Rayleigh fading.

The complex per-channel gain composes as

    gain = fading * 10 ** (-(PL_dB + shadow_dB) / 10)

with unit-variance circular complex fading redrawn i.i.d. per slot and per
channel, while pathloss, line-of-sight state, and shadowing are snapshot
quantities. Gains only shape the contention-signature signal; collisions are
decided purely by the transmission patterns.
"""

from __future__ import annotations

import math

import numpy as np

from .config import ScenarioConfig


def pathloss_db(d_m: float, los: bool, config: ScenarioConfig) -> float:
    """ABG pathloss 10*a*log10(d) + b + 10*g*log10(f_GHz), d clamped at 1 m."""
    a, b, g = config.pathloss_abg_los if los else config.pathloss_abg_nlos
    d = max(float(d_m), 1.0)
    return 10.0 * a * math.log10(d) + b + 10.0 * g * math.log10(config.carrier_ghz)


def los_probability(d_m: float, config: ScenarioConfig) -> float:
    return math.exp(-max(float(d_m), 0.0) / config.los_decay_m)


def draw_los(d_m: float, rng: np.random.Generator, config: ScenarioConfig) -> bool:
    return bool(rng.random() < los_probability(d_m, config))


def correlated_field(
    positions: np.ndarray, rng: np.random.Generator, corr_distance_m: float, n_draws: int = 1
) -> np.ndarray:
    """Unit-variance Gaussians with pairwise correlation exp(-d/d_corr).

    positions: (k, 2) array. Returns (k,) for n_draws == 1, else (n_draws, k).
    """
    pts = np.atleast_2d(np.asarray(positions, dtype=float))
    k = pts.shape[0]
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=-1))
    cov = np.exp(-dist / corr_distance_m)
    # jitter keeps the Cholesky stable for coincident points
    chol = np.linalg.cholesky(cov + 1e-12 * np.eye(k))
    z = rng.standard_normal((n_draws, k))
    out = z @ chol.T
    return out[0] if n_draws == 1 else out


def shadowing_db(
    positions: np.ndarray,
    rng: np.random.Generator,
    config: ScenarioConfig,
    sigma_db: float | np.ndarray | None = None,
    n_draws: int = 1,
) -> np.ndarray:
    """Zero-mean correlated shadowing; sigma defaults to the NLOS value."""
    if sigma_db is None:
        sigma_db = config.shadow_sigma_nlos_db
    field = correlated_field(positions, rng, config.shadow_corr_distance_m, n_draws=n_draws)
    return np.asarray(sigma_db, dtype=float) * field


def rayleigh_fading(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Circular complex Gaussian with E[|k|^2] = 1."""
    z = rng.standard_normal(shape + (2,))
    return (z[..., 0] + 1j * z[..., 1]) / math.sqrt(2.0)


def attenuation(pathloss: float | np.ndarray, shadow: float | np.ndarray) -> np.ndarray:
    return 10.0 ** (-(np.asarray(pathloss, dtype=float) + np.asarray(shadow, dtype=float)) / 10.0)

