"""Independent checks of the collision rule, the deadline chain and the learner.

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
                mismatches += resolve_collisions(list(joint), m).success != literal_success(joint, m)
                checked += 1
    return mismatches, checked


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


def finite_difference_gradient(model: learning.Mlp, batch: learning.Batch, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of the single-model loss, one parameter
    at a time, in `params_to_vector` order. The model is restored."""
    theta = learning.params_to_vector(model)
    numeric = np.zeros_like(theta)
    for j in range(theta.size):
        bump = np.zeros_like(theta)
        bump[j] = step
        learning.vector_to_params(model, theta + bump)
        up = learning.loss(model, batch)
        learning.vector_to_params(model, theta - bump)
        down = learning.loss(model, batch)
        numeric[j] = (up - down) / (2 * step)
    learning.vector_to_params(model, theta)
    return numeric


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Largest |a - n| / max(|a| + |n|, 1e-6) over the entries."""
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-6)
    return float(np.max(np.abs(analytic - numeric) / denom))


def gradient_error(model: learning.Mlp, batch: learning.Batch) -> float:
    """Relative error of `learning.backward` against finite differences."""
    grads, _ = learning.backward(model, batch)
    return relative_error(learning.grads_to_vector(grads), finite_difference_gradient(model, batch))


def random_model_batch(rng: np.random.Generator, max_batch: int) -> tuple[learning.Mlp, learning.Batch]:
    """A network of 1-3 channels with 1-2 hidden layers of 1-4 units, and a
    minibatch of 1 to `max_batch` tuples for it."""
    m = int(rng.integers(1, 4))
    hidden = int(rng.integers(1, 5))
    depth = int(rng.integers(1, 3))
    model = learning.init_mlp([m] + [hidden] * depth + [1 << m], rng)
    b = int(rng.integers(1, max_batch + 1))
    batch = (rng.random((b, m)), rng.integers(0, 1 << m, b), rng.standard_normal(b))
    return model, batch


def worst_gradient_error(rng: np.random.Generator, n_models: int, max_batch: int) -> float:
    """Largest `gradient_error` over `n_models` random networks."""
    worst = 0.0
    for _ in range(n_models):
        worst = max(worst, gradient_error(*random_model_batch(rng, max_batch)))
    return worst


def clip_violations(rng: np.random.Generator, n_draws: int, threshold: float = 5.0) -> int:
    """Random gradients whose clipped norm exceeds `threshold`, or that
    `clip_gradient` changed although their norm was within it. Scales span
    1e-3 to 1e3."""
    violations = 0
    for _ in range(n_draws):
        scale = 10.0 ** rng.uniform(-3, 3)
        grads = [(rng.standard_normal((3, 4)) * scale, rng.standard_normal(3) * scale)]
        clipped = learning.clip_gradient(grads, threshold)
        over = learning.grad_norm(clipped) > threshold + 1e-9
        moved = learning.grad_norm(grads) <= threshold and not np.array_equal(clipped[0][0], grads[0][0])
        violations += over or moved
    return violations


def _collision_check() -> tuple[bool, str]:
    mismatches, checked = collision_mismatches((1, 2), 4)
    return mismatches == 0, f"{mismatches} of {checked} joint assignments mismatched"


def _dtmc_check() -> tuple[bool, str]:
    pair, closed = dtmc_disagreement(np.random.default_rng(1), 20)
    return pair < 1e-10 and closed < 1e-12, f"max pairwise gap {pair:.1e}, vs closed form {closed:.1e}"


def _gradient_check() -> tuple[bool, str]:
    grad = worst_gradient_error(np.random.default_rng(2), 5, max_batch=6)
    return grad < 1e-4, f"max relative error {grad:.1e}"


def _clip_check() -> tuple[bool, str]:
    clips = clip_violations(np.random.default_rng(3), 20)
    return clips == 0, f"{clips} of 20 clipped gradients out of bound"


_CHECKS: tuple[tuple[str, Callable[[], tuple[bool, str]]], ...] = (
    ("collision_oracle", _collision_check),
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
