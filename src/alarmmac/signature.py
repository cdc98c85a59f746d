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

`Contexts` owns the whole chain of one run, from the link gains (see
`channel`) to the features: the snapshot it draws at set-up, the streams it
draws from and, called once per contention round, the active agents'
contexts. Only a policy that reads contexts needs one. Its large-scale link
amplitudes follow the engine's look-ahead blocks (see `geometry`): one
amplitude formula turns a block's (33, N) rows of positions into (33, N)
amplitude rows, once per block, and each round gathers its agents from the
current row; fading and noise are drawn per round.
"""

from __future__ import annotations

import math

import numpy as np

from . import channel as chan
from .config import ScenarioConfig, _median, derive_stream


def aggregate_pilots(gains: np.ndarray, snr: float, noise: np.ndarray) -> np.ndarray:
    """Uplink aggregate received by the controller; `snr` is linear and
    `noise` (M,) is the controller's receiver noise. Every pilot symbol is 1,
    so the aggregate sums the gains (k, M) over the active subnetworks."""
    return math.sqrt(snr) * np.add.reduce(gains, axis=0) + noise


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
    noise = chan.complex_gaussian(rng, (len(gains) + 1, gains.shape[1]))
    return broadcast_cs(aggregate_pilots(gains, snr, noise[0]), gains, snr, noise[1:])


def featurize(y_n: np.ndarray) -> np.ndarray:
    """Per-channel magnitudes scaled by 1 / (1 + max magnitude); phase-invariant.

    Accepts a single signature (M,) or a batch (k, M).
    """
    mags = np.abs(y_n)
    peak = np.maximum.reduce(mags, axis=-1, keepdims=True) if mags.size else 0.0
    return mags / (1.0 + peak)


class Contexts:
    """The contention-signature chain of one run. It derives the streams it
    draws from: `channel`, read at set-up for line of sight and then the
    shadowing, `fading` and `noise`. Line of sight, the pathloss
    coefficients and shadowing that `channel` derives from it, and the
    reference attenuation are frozen per snapshot; only the small-scale
    fading and the noise are redrawn each round. The reference is the median
    of the N set-up attenuations: the middle one, or the mean of the two
    middle ones for even N.

    Called with the engine's look-ahead block, the current slot's row in it
    and a round's agents, it returns their (k, M) contexts. The call and its
    helpers are private, so a traced run times only the `channel` and
    signature functions they call."""

    def __init__(self, config: ScenarioConfig, seed: int, poses: np.ndarray):
        self.config = config
        self.cap_xy = (config.area_width_m / 2.0, config.area_height_m / 2.0)
        self.snr_linear = 10.0 ** (config.snr_avg_db / 10.0)
        self.rng_fading = derive_stream(seed, "fading")
        self.rng_noise = derive_stream(seed, "noise")
        rng_channel = derive_stream(seed, "channel")
        x, y = poses["x"], poses["y"]
        self.los = chan.draw_los(self._cap_distances(x, y), rng_channel, config)
        self.pathloss = chan.pathloss_coefficients(self.los, config)
        self.shadow_db = chan.shadowing_db(np.column_stack((x, y)), self.los, rng_channel, config)
        self.reference_amp = _median(self._amplitudes(x, y))
        self._path = self._rows = None  # the last look-ahead block and its amplitude rows

    def _cap_distances(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Distance from positions x, y to the central controller."""
        cx, cy = self.cap_xy
        return np.hypot(x - cx, y - cy)

    def _amplitudes(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Large-scale amplitude of the N links to the controller at
        positions x, y (..., N): pathloss at the distance with the snapshot's
        coefficients, and the snapshot's shadowing."""
        return chan.attenuation(chan.pathloss_db(self._cap_distances(x, y), self.pathloss), self.shadow_db)

    def _link_gains(self, amplitudes: np.ndarray, agents: np.ndarray) -> np.ndarray:
        """Per-channel complex gains of `agents`' uplinks this round, from
        the N links' `amplitudes` normalised by the snapshot median
        attenuation, so that snr_avg_db is the average link SNR at a typical
        distance."""
        kappa = chan.complex_gaussian(self.rng_fading, (len(agents), self.config.n_channels))
        return kappa * (amplitudes[agents] / self.reference_amp)[:, None]

    def __call__(self, path: np.ndarray, row: int, agents: np.ndarray) -> np.ndarray:
        if path is not self._path:  # a new look-ahead block: its amplitude rows
            self._path, self._rows = path, self._amplitudes(path[:, 0], path[:, 1])
        gains = self._link_gains(self._rows[row], agents)
        return featurize(contention_signatures(gains, self.snr_linear, self.rng_noise))
