"""Independent checks of the collision rule, the success oracles, the
deadline chain and the learner.

Each check compares the code against a reference written another way and
returns what it measured: a mismatch count or a worst error. `selftest`
runs every check at desk size; the test suite calls the same functions at
its own sizes and bounds.
"""

from __future__ import annotations

import itertools
from typing import Callable

import numpy as np

from . import analytics, learning
from .engine import resolve_collisions


def literal_success(joint: tuple[int, ...], n_channels: int) -> bool:
    """Success indicator from an explicit channels x agents matrix, by a
    literal scan: some channel's row sums to exactly one."""
    matrix = [[0] * len(joint) for _ in range(n_channels)]
    for col, idx in enumerate(joint):
        for ch in range(n_channels):
            matrix[ch][col] = (idx >> ch) & 1
    return any(sum(row) == 1 for row in matrix)


def collision_mismatches(channel_counts: tuple[int, ...], max_agents: int) -> tuple[int, int]:
    """(mismatches, joint assignments checked) of `resolve_collisions`
    against `literal_success`, over every joint pattern choice of up to
    `max_agents` agents for each channel count."""
    mismatches = checked = 0
    for m in channel_counts:
        for k in range(max_agents + 1):
            for joint in itertools.product(range(1 << m), repeat=k):
                mismatches += resolve_collisions(list(joint), m) != literal_success(joint, m)
                checked += 1
    return mismatches, checked


def random_instance(rng: np.random.Generator, n: int, m: int) -> tuple[np.ndarray, analytics.AccessDistribution]:
    """Activation probabilities with exact 0s and 1s, and access rows of
    which some are deterministic."""
    p = rng.random(n)
    p[rng.random(n) < 0.25] = 0.0
    p[rng.random(n) < 0.25] = 1.0
    psi = rng.dirichlet(np.ones(1 << m), size=n).reshape(n, 1 << m)
    for row in np.flatnonzero(rng.random(n) < 0.3):
        psi[row] = 0.0
        psi[row, rng.integers(1 << m)] = 1.0
    return p, analytics.AccessDistribution(psi)


def success_oracle_gap(rng: np.random.Generator, per_shape: int) -> float:
    """Worst gap between `analytics.success_probability_bruteforce` and
    `analytics.success_probability_dp` over `per_shape` random instances
    of each N in 0..6 and M in 1..3, the enumeration's whole range."""
    worst = 0.0
    for n in range(7):
        for m in (1, 2, 3):
            for _ in range(per_shape):
                p, access = random_instance(rng, n, m)
                gap = analytics.success_probability_bruteforce(p, access) - analytics.success_probability_dp(p, access)
                worst = max(worst, abs(gap))
    return worst


def dtmc_disagreement(rng: np.random.Generator, n_chains: int, max_deadline: int = 10) -> tuple[float, float]:
    """(worst pairwise gap of the product, absorption and path forms on
    random age chains, worst gap of the product form to the closed form on
    random stationary chains), over `n_chains` chains of each kind."""
    worst_pair = 0.0
    for _ in range(n_chains):
        deadline = int(rng.integers(0, max_deadline + 1))
        spec = analytics.DtmcSpec(rng.random(deadline + 1))
        a = analytics.deadline_probability(spec)
        b = analytics.deadline_probability_via_absorption(spec)
        c = analytics.deadline_probability_by_paths(spec)
        worst_pair = max(worst_pair, abs(a[0] - b[0]), abs(a[1] - b[1]), abs(a[0] - c[0]), abs(a[1] - c[1]))
    worst_closed = 0.0
    for _ in range(n_chains):
        ps = float(rng.random())
        deadline = int(rng.integers(0, max_deadline + 1))
        got = analytics.deadline_probability(analytics.stationary_dtmc(ps, deadline))
        closed = analytics.stationary_deadline_probability(ps, deadline)
        worst_closed = max(worst_closed, abs(got[0] - closed[0]), abs(got[1] - closed[1]))
    return worst_pair, worst_closed


KINK_MARGIN = 1e-4  # ten times the finite-difference step


def finite_difference_gradient(
    params: np.ndarray, layer_sizes: tuple[int, ...], batch: learning.StackedBatch, step: float = 1e-5
) -> np.ndarray:
    """Central finite differences of each network's loss, laid out like the
    (K, P) block `params`. Network k's loss reads only row k, so one bump of
    column j of the whole block serves all K networks. The block is restored."""
    theta = params.copy()
    numeric = np.zeros_like(theta)
    for j in range(theta.shape[1]):
        params[:, j] = theta[:, j] + step
        _, up = learning.backward_stacked(params, layer_sizes, batch)
        params[:, j] = theta[:, j] - step
        _, down = learning.backward_stacked(params, layer_sizes, batch)
        params[:, j] = theta[:, j]
        numeric[:, j] = (up - down) / (2 * step)
    return numeric


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> np.ndarray:
    """Largest |a - n| / max(|a| + |n|, 1e-6) over the entries of each row."""
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-6)
    return np.max(np.abs(analytic - numeric) / denom, axis=1)


def gradient_error(params: np.ndarray, layer_sizes: tuple[int, ...], batch: learning.StackedBatch) -> np.ndarray:
    """Relative error of each network's `learning.backward_stacked` gradient
    against finite differences: (K,)."""
    grads, _ = learning.backward_stacked(params, layer_sizes, batch)
    return relative_error(grads, finite_difference_gradient(params, layer_sizes, batch))


def random_model_batch(
    rng: np.random.Generator, max_batch: int
) -> tuple[np.ndarray, tuple[int, ...], learning.StackedBatch]:
    """Three networks of 1-3 channels with 1-2 hidden layers of 1-4 units, as
    a block and its layer sizes, and a minibatch of 1 to `max_batch` each."""
    m, hidden, depth = int(rng.integers(1, 4)), int(rng.integers(1, 5)), int(rng.integers(1, 3))
    sizes = (m,) + (hidden,) * depth + (1 << m,)
    params = learning.init_params(sizes, 3, rng)
    b = int(rng.integers(1, max_batch + 1))
    batch = (rng.random((3, b, m)), rng.integers(0, 1 << m, (3, b)), rng.standard_normal((3, b)))
    return params, sizes, batch


def kink_distance(params: np.ndarray, layer_sizes: tuple[int, ...], contexts: np.ndarray) -> np.ndarray:
    """Smallest |pre-activation| of a rectifier unit over each network's
    contexts (K, B, M): (K,)."""
    h, nearest = contexts, np.full(len(contexts), np.inf)
    for w, b in learning.layer_views(params, layer_sizes)[:-1]:
        z = np.matmul(h, w.transpose(0, 2, 1)) + b[:, None, :]
        nearest = np.minimum(nearest, np.abs(z).min(axis=(1, 2)))
        h = np.maximum(z, 0.0)
    return nearest


def worst_gradient_error(rng: np.random.Generator, n_stacks: int, max_batch: int) -> tuple[float, int]:
    """(largest `gradient_error`, networks skipped) over the networks of
    `n_stacks` random stacks. A network within KINK_MARGIN of a rectifier's
    kink is skipped: a central difference that crosses the kink does not
    estimate the gradient."""
    worst, skipped = 0.0, 0
    for _ in range(n_stacks):
        params, sizes, batch = random_model_batch(rng, max_batch)
        errors = gradient_error(params, sizes, batch)
        near = kink_distance(params, sizes, batch[0]) < KINK_MARGIN
        skipped += int(near.sum())
        worst = max(worst, float(errors[~near].max(initial=0.0)))
    return worst, skipped


def clip_violations(rng: np.random.Generator, n_draws: int, threshold: float = 5.0) -> int:
    """Random gradients whose clipped norm exceeds `threshold`, or that
    `learning.clip_gradient_stacked` changed although their norm was within
    it. The draws are one stack of gradients of 4 -> 3 -> 2 networks, each
    at its own scale between 1e-3 and 1e3."""
    scale = 10.0 ** rng.uniform(-3, 3, n_draws)
    grads = rng.standard_normal((n_draws, learning.n_params((4, 3, 2)))) * scale[:, None]
    clipped = grads.copy()
    learning.clip_gradient_stacked(clipped, threshold)
    over = learning.grad_norm_stacked(clipped) > threshold + 1e-9
    moved = (learning.grad_norm_stacked(grads) <= threshold) & np.any(clipped != grads, axis=1)
    return int(np.sum(over | moved))


def _collision_check() -> tuple[bool, str]:
    mismatches, checked = collision_mismatches((1, 2), 4)
    return mismatches == 0, f"{mismatches} of {checked} joint assignments mismatched"


def _success_oracle_check() -> tuple[bool, str]:
    gap = success_oracle_gap(np.random.default_rng(4), 2)
    return gap < 1e-12, f"max gap of enumeration to DP {gap:.1e} over 42 instances up to N = 6, M = 3"


def _dtmc_check() -> tuple[bool, str]:
    pair, closed = dtmc_disagreement(np.random.default_rng(1), 20)
    return pair < 1e-10 and closed < 1e-12, f"max pairwise gap {pair:.1e}, vs closed form {closed:.1e}"


def _gradient_check() -> tuple[bool, str]:
    grad, skipped = worst_gradient_error(np.random.default_rng(2), 5, max_batch=6)
    return grad < 1e-4, f"max relative error {grad:.1e}, {skipped} of 15 networks skipped near a kink"


def _clip_check() -> tuple[bool, str]:
    clips = clip_violations(np.random.default_rng(3), 20)
    return clips == 0, f"{clips} of 20 clipped gradients out of bound"


_CHECKS: tuple[tuple[str, Callable[[], tuple[bool, str]]], ...] = (
    ("collision_oracle", _collision_check),
    ("success_oracle", _success_oracle_check),
    ("dtmc_consistency", _dtmc_check),
    ("gradient_check", _gradient_check),
    ("clip_norm", _clip_check),
)


def selftest() -> list[tuple[str, bool, str]]:
    """Every check at desk size: (name, passed, what it measured). A check
    that raises fails, with the exception as its measurement, and the
    checks after it still run."""
    results = []
    for name, check in _CHECKS:
        try:
            passed, measured = check()
        except Exception as exc:
            passed, measured = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, passed, measured))
    return results
