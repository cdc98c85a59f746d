"""Pilot aggregation at the controller and the contention-signature broadcast.

Active subnetworks each transmit one pilot symbol x_n = 1 per channel. The
controller receives the aggregate

    y = sum_n sqrt(snr) * h_n + noise

and broadcasts it back; subnetwork n receives

    y_n = sqrt(snr) * h_n * y + noise'

with fresh unit-power circular complex noise in both directions. The learning
context is the per-channel magnitude of y_n, normalized to [0, 1). The
functions take complex arrays: gains (k, M) with one row per active
subnetwork, signatures (M,) or (k, M).
"""

from __future__ import annotations

import math

import numpy as np

from .channel import complex_gaussian


def aggregate_pilots(gains: np.ndarray, snr: float, noise: np.ndarray) -> np.ndarray:
    """Uplink aggregate received by the controller; `snr` is linear and
    `noise` (M,) is the controller's receiver noise. Every pilot symbol is 1,
    so the aggregate sums the gains (k, M) over the active subnetworks."""
    return math.sqrt(snr) * gains.sum(axis=0) + noise


def broadcast_cs(y: np.ndarray, gains: np.ndarray, snr: float, noise: np.ndarray) -> np.ndarray:
    """Per-subnetwork received contention signature; `noise` (k, M) holds
    each receiver's own."""
    if gains.shape[1] != y.shape[0]:
        raise ValueError("gain width must equal signature length")
    return math.sqrt(snr) * gains * y[None, :] + noise


def contention_signatures(gains: np.ndarray, snr: float, rng: np.random.Generator) -> np.ndarray:
    """The signature (k, M) each active subnetwork receives; the downlink
    reuses the uplink gains (reciprocity). One draw gives both directions'
    noise, the controller's row first: the generator fills its normals in
    order, so they are those of an (M,) and then a (k, M) draw."""
    noise = complex_gaussian(rng, (len(gains) + 1, gains.shape[1]))
    return broadcast_cs(aggregate_pilots(gains, snr, noise[0]), gains, snr, noise[1:])


def featurize(y_n: np.ndarray) -> np.ndarray:
    """Per-channel magnitudes scaled by 1 / (1 + max magnitude); phase-invariant.

    Accepts a single signature (M,) or a batch (k, M).
    """
    mags = np.abs(y_n)
    peak = mags.max(axis=-1, keepdims=True) if mags.size else 0.0
    return mags / (1.0 + peak)
