"""Exact small-instance oracles and closed forms for the contention process.

Covers: brute-force shared-message success probability over all activation
subsets and joint pattern choices; deadline probabilities for the absorbing
age chain, computed three independent ways (product form, absorbing-matrix
form, literal path enumeration); exhaustive grid search for the best
stationary access distribution; and protocol complexity counts.

These are validation oracles. They enumerate exponentially many cases and
refuse instances beyond desk scale.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .policies import pattern_table

_ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class AccessDistribution:
    """Row n holds subnetwork n's choice probabilities over all 2**M patterns."""

    psi: np.ndarray

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=float)
        object.__setattr__(self, "psi", psi)
        if psi.ndim != 2:
            raise ValueError("psi must be a 2-D matrix")
        if np.any(psi < -_ROW_SUM_TOL) or np.any(psi > 1 + _ROW_SUM_TOL):
            raise ValueError("psi entries must lie in [0, 1]")
        rows = psi.sum(axis=1)
        if np.any(np.abs(rows - 1.0) > 1e-9):
            raise ValueError(f"psi rows must sum to 1, got {rows}")

    @property
    def n_channels(self) -> int:
        m = int(round(math.log2(self.psi.shape[1])))
        if (1 << m) != self.psi.shape[1]:
            raise ValueError("psi width must be a power of two")
        return m


def uniform_access(n: int, n_channels: int) -> AccessDistribution:
    width = 1 << n_channels
    return AccessDistribution(np.full((n, width), 1.0 / width))


def _activation_subsets(p: np.ndarray, n_channels: int):
    """Every activation subset with members and nonzero weight.

    Yields (members, weight, joints, ok): the subset's members in ascending
    order; its probability, p_n for members and 1 - p_n for the others;
    every joint pattern choice of the members as the columns of a
    (len(members), (2**M) ** len(members)) array; and a boolean per joint
    choice, whether some channel carries exactly one transmitter.
    """
    n = len(p)
    table = pattern_table(n_channels)
    width = 1 << n_channels
    for mask in range(1 << n):
        members = [i for i in range(n) if (mask >> i) & 1]
        weight = 1.0
        for i in range(n):
            weight *= p[i] if (mask >> i) & 1 else 1.0 - p[i]
        if weight == 0.0 or not members:
            continue
        joints = np.array(list(itertools.product(range(width), repeat=len(members))), dtype=int).T
        ok = (table[joints].sum(axis=0) == 1).any(axis=1)
        yield members, weight, joints, ok


def success_probability_bruteforce(p: np.ndarray, access: AccessDistribution) -> float:
    """Exact per-slot success probability by full enumeration.

    Sums over every activation subset (active members weighted by p_n,
    inactive by 1 - p_n) and every joint pattern assignment the indicator
    that some channel carries exactly one transmitter.
    """
    p = np.asarray(p, dtype=float)
    n = len(p)
    m = access.n_channels
    if access.psi.shape[0] != n:
        raise ValueError("psi must have one row per subnetwork")
    if n > 6 or m > 3:
        raise ValueError("enumeration oracle limited to N <= 6, M <= 3")
    if np.any(p < 0) or np.any(p > 1):
        raise ValueError("activation probabilities must lie in [0, 1]")

    total = 0.0
    for members, weight, joints, ok in _activation_subsets(p, m):
        choice_prob = np.ones(joints.shape[1])
        for row, member in enumerate(members):
            choice_prob *= access.psi[member, joints[row]]
        total += weight * float((choice_prob * ok).sum())
    return total


@dataclass(frozen=True)
class DtmcSpec:
    """Per-age per-slot success probabilities P_s(0..D) of the age chain."""

    ps: np.ndarray

    def __post_init__(self):
        ps = np.asarray(self.ps, dtype=float)
        object.__setattr__(self, "ps", ps)
        if ps.ndim != 1 or ps.size < 1:
            raise ValueError("need success probabilities for ages 0..D")
        if np.any(ps < 0) or np.any(ps > 1):
            raise ValueError("success probabilities must lie in [0, 1]")

    @property
    def deadline(self) -> int:
        return self.ps.size - 1


def stationary_dtmc(ps: float, deadline: int) -> DtmcSpec:
    return DtmcSpec(np.full(deadline + 1, float(ps)))


def transition_blocks(spec: DtmcSpec) -> tuple[np.ndarray, np.ndarray]:
    """Transient block Q and absorbing block R of the age chain.

    Age d advances to d + 1 with probability 1 - P_s(d), so the survival
    mass sits on Q's superdiagonal; success absorbs with P_s(d) at every
    age and the deadline miss absorbs from age D only.
    """
    ps = spec.ps
    d1 = ps.size
    q = np.zeros((d1, d1))
    for d in range(d1 - 1):
        q[d, d + 1] = 1.0 - ps[d]
    r = np.zeros((d1, 2))
    r[:, 0] = ps
    r[-1, 1] = 1.0 - ps[-1]
    return q, r


def deadline_probability(spec: DtmcSpec) -> tuple[float, float]:
    """(P_delivered_within_D, P_deadline_missed) via the product form."""
    ps = spec.ps
    survive = 1.0
    p_leq = 0.0
    for d in range(ps.size):
        p_leq += ps[d] * survive
        survive *= 1.0 - ps[d]
    # the accumulated sum can exceed 1 by a couple of ulp
    return float(min(max(p_leq, 0.0), 1.0)), float(survive)


def deadline_probability_via_absorption(spec: DtmcSpec) -> tuple[float, float]:
    """Same quantities from absorption of the block transition matrix."""
    q, r = transition_blocks(spec)
    absorb = np.linalg.solve(np.eye(q.shape[0]) - q, r)
    return float(absorb[0, 0]), float(absorb[0, 1])


def deadline_probability_by_paths(spec: DtmcSpec) -> tuple[float, float]:
    """Literal walk over every outcome path of the chain; validation oracle."""
    ps = spec.ps

    def walk(age: int, prob: float) -> tuple[float, float]:
        if age >= ps.size:
            return 0.0, prob
        succ, fail = walk(age + 1, prob * (1.0 - ps[age]))
        return succ + prob * ps[age], fail

    return walk(0, 1.0)


def stationary_deadline_probability(ps: float, deadline: int) -> tuple[float, float]:
    """Closed geometric form 1 - (1 - P_s)**(D + 1) and its complement."""
    miss = (1.0 - ps) ** (deadline + 1)
    return 1.0 - miss, miss


def _grid_rows(width: int, grid_step: float) -> list[tuple[float, ...]]:
    ticks = int(round(1.0 / grid_step))
    rows: list[tuple[float, ...]] = []
    for combo in itertools.product(range(ticks + 1), repeat=width):
        if sum(combo) == ticks:
            rows.append(tuple(c * grid_step for c in combo))
    return rows


def best_stationary_psi(
    p: np.ndarray, n_channels: int, deadline: int, grid_step: float = 0.25
) -> tuple[AccessDistribution, float]:
    """Exhaustive grid search for the access matrix minimizing the miss
    probability under a stationary contention process.

    Rows are restricted to the probability grid; ties resolve to the
    lexicographically smallest matrix. Returns (argmin, miss probability).
    """
    p = np.asarray(p, dtype=float)
    n = len(p)
    if n > 3 or n_channels > 2:
        raise ValueError("grid search oracle limited to N <= 3, M <= 2")
    rows = _grid_rows(1 << n_channels, grid_step)
    subsets = [
        (members, weight, joints, ok.astype(float))
        for members, weight, joints, ok in _activation_subsets(p, n_channels)
    ]

    best_psi: tuple[tuple[float, ...], ...] | None = None
    best_success = -1.0
    for candidate in itertools.product(rows, repeat=n):
        psi = np.array(candidate)
        success = 0.0
        for members, weight, joints, ok in subsets:
            choice = np.ones(joints.shape[1])
            for row, member in enumerate(members):
                choice *= psi[member, joints[row]]
            success += weight * float(choice @ ok)
        if success > best_success + 1e-15:
            best_success = success
            best_psi = candidate
    assert best_psi is not None
    _, miss = stationary_deadline_probability(best_success, deadline)
    return AccessDistribution(np.array(best_psi)), float(miss)


def forward_madds(layer_sizes: list[int]) -> int:
    """Multiply-add count of one forward pass: sum of l_{i+1} * (2 l_i + 1)."""
    return sum(o * (2 * i + 1) for i, o in zip(layer_sizes[:-1], layer_sizes[1:]))


def complexity_bounds(
    n_channels: int, minibatch: int, layer_sizes: list[int]
) -> tuple[int, int, int]:
    """(forward cost z1, lower bound, upper bound) of one protocol iteration.

    The lower bound adds one training pass over the minibatch and the
    constant cost of greedy selection: (B + 1) * z1 + 3. The upper bound
    adds the full scan of the action list: upper = lower + 2**M - 1.
    """
    if layer_sizes[0] != n_channels or layer_sizes[-1] != (1 << n_channels):
        raise ValueError("layer sizes must run from M inputs to 2**M outputs")
    z1 = forward_madds(layer_sizes)
    z_lb = (minibatch + 1) * z1 + 3
    z_ub = z_lb + (1 << n_channels) - 1
    return z1, z_lb, z_ub


def compact_lower_bound(n_channels: int) -> int:
    """Lower bound for the default compact network, layers [M, 1, 1, 2**M]
    (two hidden layers of one unit each) and minibatch 30 * 2**M, from the
    general formula."""
    m = n_channels
    layers = [m, 1, 1, 1 << m]
    _, z_lb, _ = complexity_bounds(m, 30 * (1 << m), layers)
    return z_lb


def compact_lower_bound_closed_form(n_channels: int) -> int:
    """Widely quoted expanded polynomial for the same compact architecture.

    Note: its trailing term is 2**M + 7 where direct expansion of
    (B + 1) * z1 + 3 gives 2*M + 7; the two agree only at M = 2. Both are
    reported so the discrepancy stays visible.
    """
    m = n_channels
    return 90 * 4**m + (123 + 60 * m) * 2**m + 2**m + 7
