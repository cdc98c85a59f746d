"""Pilot aggregation at the controller and the contention-signature broadcast.

Active subnetworks each transmit one pilot symbol per channel. The controller
receives the aggregate

    y = sum_n sqrt(snr) * h_n * x_n + noise

and broadcasts it back; subnetwork n receives

    y_n = sqrt(snr) * h_n * y + noise'

with fresh unit-power circular complex noise in both directions. The learning
context is the per-channel magnitude of y_n, normalized to [0, 1).
"""

from __future__ import annotations

import math

import numpy as np

from .config import PilotMode


def _complex_noise(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    z = rng.standard_normal(shape + (2,))
    return math.sqrt(1.0 / 2.0) * (z[..., 0] + 1j * z[..., 1])


def make_pilots(
    n_active: int, n_channels: int, mode: PilotMode, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Unit-power pilot symbols, one per (active subnetwork, channel)."""
    if mode is PilotMode.RANDOM_PHASE:
        if rng is None:
            raise ValueError("random-phase pilots need a random stream")
        theta = rng.uniform(0.0, 2.0 * math.pi, size=(n_active, n_channels))
        return np.exp(1j * theta)
    return np.ones((n_active, n_channels), dtype=complex)


def aggregate_pilots(
    gains: np.ndarray,
    pilots: np.ndarray,
    snr: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Uplink aggregate received by the controller; `snr` is linear."""
    gains = np.atleast_2d(np.asarray(gains, dtype=complex))
    pilots = np.atleast_2d(np.asarray(pilots, dtype=complex))
    if gains.shape != pilots.shape:
        raise ValueError(f"gains {gains.shape} and pilots {pilots.shape} must match")
    m = gains.shape[1] if gains.size else pilots.shape[1]
    signal = math.sqrt(snr) * (gains * pilots).sum(axis=0) if gains.size else np.zeros(m, dtype=complex)
    return signal + _complex_noise(rng, (m,))


def broadcast_cs(
    y: np.ndarray,
    gains: np.ndarray,
    snr: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-subnetwork received contention signature, fresh noise per receiver."""
    y = np.asarray(y, dtype=complex)
    gains = np.atleast_2d(np.asarray(gains, dtype=complex))
    if gains.shape[1] != y.shape[0]:
        raise ValueError("gain width must equal signature length")
    return math.sqrt(snr) * gains * y[None, :] + _complex_noise(rng, gains.shape)


def featurize(y_n: np.ndarray) -> np.ndarray:
    """Per-channel magnitudes scaled by 1 / (1 + max magnitude); phase-invariant.

    Accepts a single signature (M,) or a batch (k, M).
    """
    mags = np.abs(np.asarray(y_n))
    peak = mags.max(axis=-1, keepdims=True) if mags.size else 0.0
    return mags / (1.0 + peak)
