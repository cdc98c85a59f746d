"""Exact oracles and closed forms for the contention process.

Covers: the shared-message per-slot success probability, two ways (full
enumeration of activation subsets and joint pattern choices, and a dynamic
programme over agents on per-channel transmitter counts capped at two);
deadline probabilities for the absorbing age chain, computed three
independent ways (product form, absorbing-matrix form, literal path
enumeration); exhaustive grid search for the best stationary access
distribution, with every candidate evaluated by the dynamic programme; and
protocol complexity counts.

The enumeration oracles cost exponentially many cases and refuse instances
beyond desk scale. The success-probability enumeration visits (2**M + 1)**N
joint outcomes, each agent being inactive or active with one of 2**M
patterns: 531 441 at its limit N = 6, M = 3. (Summed subset by subset,
sum_k C(N, k) 2**(M k), the count is the same, by the binomial theorem.)
The grid search is limited to N <= 3, M <= 2. The dynamic programme is
linear in N and reaches benchmark scale (N = 20 and up) for M <= 8; the
enumeration stays as its independent reference.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .policies import pattern_table

_ROW_SUM_TOL = 1e-12


def _in_unit_interval(x: np.ndarray, tol: float = 0.0) -> bool:
    """Whether every entry lies in [-tol, 1 + tol]; NaN lies nowhere."""
    return bool(np.all((x >= -tol) & (x <= 1.0 + tol)))


@dataclass(frozen=True)
class AccessDistribution:
    """Row n holds subnetwork n's choice probabilities over all 2**M patterns."""

    psi: np.ndarray

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=float)
        object.__setattr__(self, "psi", psi)
        if psi.ndim != 2:
            raise ValueError("psi must be a 2-D matrix")
        if psi.shape[1] < 2 or psi.shape[1] & (psi.shape[1] - 1):
            raise ValueError(f"psi width must be a power of two of at least 2, got {psi.shape[1]}")
        if not _in_unit_interval(psi, _ROW_SUM_TOL):
            raise ValueError("psi entries must lie in [0, 1]")
        rows = psi.sum(axis=1)
        if np.any(np.abs(rows - 1.0) > 1e-9):
            raise ValueError(f"psi rows must sum to 1, got {rows}")

    @property
    def n_channels(self) -> int:
        return self.psi.shape[1].bit_length() - 1


def uniform_access(n: int, n_channels: int) -> AccessDistribution:
    width = 1 << n_channels
    return AccessDistribution(np.full((n, width), 1.0 / width))


def success_probability_bruteforce(p: np.ndarray, access: AccessDistribution) -> float:
    """Exact per-slot success probability by full enumeration.

    Sums over every activation subset (active members weighted by p_n,
    inactive by 1 - p_n) and every joint pattern assignment the indicator
    that some channel carries exactly one transmitter. This is the
    independent reference for `success_probability_dp`. Both sums are one
    grid of (2**M + 1)**N joint outcomes, with one axis per agent: inactive,
    or active with one of the 2**M patterns.
    """
    p = np.asarray(p, dtype=float)
    n = len(p)
    m = access.n_channels
    if access.psi.shape[0] != n:
        raise ValueError("psi must have one row per subnetwork")
    if n > 6 or m > 3:
        raise ValueError("enumeration oracle limited to N <= 6, M <= 3")
    if not _in_unit_interval(p):
        raise ValueError("activation probabilities must lie in [0, 1]")

    # option 0 is inactive, option 1 + a is active playing pattern a; axis
    # n of the outcome grid holds agent n's option
    weights = np.hstack([(1.0 - p)[:, None], p[:, None] * access.psi])
    bits = np.vstack([np.zeros((1, m), dtype=np.uint8), pattern_table(m)])
    prob = np.ones(())
    for row in weights:
        prob = np.multiply.outer(prob, row)
    ok = np.zeros(prob.shape, dtype=bool)
    for bit in bits.T:
        # uint8 counts hold at most six transmitters
        count = np.zeros((), dtype=np.uint8)
        for _ in range(n):
            count = np.add.outer(count, bit)
        ok |= count == 1
    # zeroing the failures in place keeps the sum pairwise over one array
    np.multiply(prob, ok, out=prob)
    return float(prob.sum())


DP_MAX_CHANNELS = 8


def _dp_step(state: np.ndarray, rows: np.ndarray, p_n: float, n_channels: int) -> np.ndarray:
    """One more agent joins the capped-count chain.

    `state` holds masses of shape (..., 3**M); index s = sum_c k_c 3**c,
    where k_c in {0, 1, 2} is channel c's transmitter count capped at two.
    `rows` holds R candidate access rows, shape (R, 2**M). Returns the
    masses of shape (..., R, 3**M) after the agent joins with each row: it
    stays inactive with 1 - p_n, else plays pattern a with rows[r, a].
    """
    lead = state.shape[:-1]
    # moved[..., a, :] is the mass moved by pattern a. Pattern bit c adds a
    # transmitter to channel c, which is axis -(c + 1) of the (3,)*M view.
    moved = state[..., None, :]
    for c in range(n_channels):
        grid = moved.reshape(moved.shape[:-1] + (3,) * n_channels)
        counts = np.moveaxis(grid, -(c + 1), 0)
        added = np.empty_like(counts)
        added[0] = 0.0
        added[1] = counts[0]
        added[2] = counts[1] + counts[2]
        added = np.moveaxis(added, 0, -(c + 1))
        moved = np.concatenate([grid, added], axis=len(lead)).reshape(lead + (-1, state.shape[-1]))
    return (1.0 - p_n) * state[..., None, :] + p_n * (rows @ moved)


def _dp_success_mask(n_channels: int) -> np.ndarray:
    """Per capped-count state, whether some channel holds exactly one transmitter."""
    counts = np.indices((3,) * n_channels).reshape(n_channels, -1)
    return (counts == 1).any(axis=0).astype(float)


def _dp_start(n_channels: int) -> np.ndarray:
    state = np.zeros(3**n_channels)
    state[0] = 1.0  # nobody has transmitted yet
    return state


def success_probability_dp(p: np.ndarray, access: AccessDistribution) -> float:
    """Exact per-slot success probability by a dynamic programme over agents.

    The same quantity as `success_probability_bruteforce`, from the same
    inputs. Agents join one at a time; the state is the per-channel
    transmitter count capped at {0, 1, >=2}, which is all the success
    indicator needs. The cost is O(N * 3**M * 2**M * M) time and
    O(3**M * 2**M) memory, with no limit on N. M is limited to
    DP_MAX_CHANNELS = 8, where one agent's step holds 6**8 = 1.7 M floats
    (13 MB).
    """
    p = np.asarray(p, dtype=float)
    n = len(p)
    m = access.n_channels
    if access.psi.shape[0] != n:
        raise ValueError("psi must have one row per subnetwork")
    if m > DP_MAX_CHANNELS:
        raise ValueError(f"dynamic-programme oracle limited to M <= {DP_MAX_CHANNELS}")
    if not _in_unit_interval(p):
        raise ValueError("activation probabilities must lie in [0, 1]")

    state = _dp_start(m)
    for n_idx in range(n):
        state = _dp_step(state, access.psi[n_idx : n_idx + 1], p[n_idx], m)[0]
    return float(state @ _dp_success_mask(m))


@dataclass(frozen=True)
class DtmcSpec:
    """Per-age per-slot success probabilities P_s(0..D) of the age chain."""

    ps: np.ndarray

    def __post_init__(self):
        ps = np.asarray(self.ps, dtype=float)
        object.__setattr__(self, "ps", ps)
        if ps.ndim != 1 or ps.size < 1:
            raise ValueError("need success probabilities for ages 0..D")
        if not _in_unit_interval(ps):
            raise ValueError("success probabilities must lie in [0, 1]")

    @property
    def deadline(self) -> int:
        return self.ps.size - 1


def _check_deadline(deadline: int) -> None:
    """Refuse a deadline that is not a non-negative integer (a bool is not)."""
    if isinstance(deadline, bool) or not isinstance(deadline, (int, np.integer)) or deadline < 0:
        raise ValueError(f"deadline must be a non-negative integer, got {deadline!r}")


def _check_stationary(ps: float, deadline: int) -> None:
    if not _in_unit_interval(ps):
        raise ValueError(f"ps must lie in [0, 1], got {ps!r}")
    _check_deadline(deadline)


def stationary_dtmc(ps: float, deadline: int) -> DtmcSpec:
    _check_stationary(ps, deadline)
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
    _check_stationary(ps, deadline)
    miss = (1.0 - ps) ** (deadline + 1)
    return 1.0 - miss, miss


def _grid_rows(width: int, grid_step: float) -> list[tuple[float, ...]]:
    ticks = int(round(1.0 / grid_step))
    rows: list[tuple[float, ...]] = []
    for combo in itertools.product(range(ticks + 1), repeat=width):
        if sum(combo) == ticks:
            rows.append(tuple(c * grid_step for c in combo))
    return rows


_GRID_MAX_FLOATS = 1 << 22  # candidates times states in the last step, 32 MB per array


def best_stationary_psi(
    p: np.ndarray, n_channels: int, deadline: int, grid_step: float = 0.25
) -> tuple[AccessDistribution, float]:
    """Exhaustive grid search for the access matrix minimizing the miss
    probability under a stationary contention process.

    Rows are restricted to the probability grid. Every candidate matrix is
    evaluated at once: the dynamic programme of `success_probability_dp`
    runs over a tensor with one axis of grid rows per agent. Of the
    candidates whose success lies within 1e-12 of the maximum, the
    lexicographically smallest matrix is returned. Returns (argmin, miss
    probability).
    """
    p = np.asarray(p, dtype=float)
    n = len(p)
    if n_channels < 1:
        raise ValueError(f"n_channels must be >= 1, got {n_channels}")
    if n > 3 or n_channels > 2:
        raise ValueError("grid search oracle limited to N <= 3, M <= 2")
    if not _in_unit_interval(p):
        raise ValueError(f"p entries must lie in [0, 1], got {p}")
    _check_deadline(deadline)
    ticks = 1.0 / grid_step if grid_step > 0 else 0.0
    if not (1 <= ticks < math.inf and math.isclose(ticks, round(ticks))):
        raise ValueError(f"grid_step must be 1/k for a positive integer k, got {grid_step}")
    # the grid's rows are the compositions of k ticks into 2**M parts
    width = 1 << n_channels
    n_rows = math.comb(round(ticks) + width - 1, width - 1)
    if n_rows**n * 3**n_channels > _GRID_MAX_FLOATS:
        raise ValueError(f"grid of {n_rows} rows over {n} agents is too large; use a coarser grid_step")
    # in lexicographic order, so the flat candidate order is lexicographic too
    rows = np.array(_grid_rows(width, grid_step))

    state = _dp_start(n_channels)
    for n_idx in range(n):
        state = _dp_step(state, rows, p[n_idx], n_channels)
    success = (state @ _dp_success_mask(n_channels)).ravel()
    best = int(np.flatnonzero(success >= success.max() - 1e-12)[0])
    picked = np.unravel_index(best, (len(rows),) * n)
    _, miss = stationary_deadline_probability(float(success[best]), deadline)
    return AccessDistribution(rows[np.array(picked, dtype=int)]), float(miss)


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


def compact_lower_bound_closed_form(n_channels: int) -> int:
    """Widely quoted expanded polynomial for the lower bound of the compact
    network: layers [M, 1, 1, 2**M] (two hidden layers of one unit each)
    and minibatch 30 * 2**M, as `complexity_bounds` computes it.

    Note: its trailing term is 2**M + 7 where direct expansion of
    (B + 1) * z1 + 3 gives 2*M + 7; the two agree only at M = 2. Both are
    reported so the discrepancy stays visible.
    """
    m = n_channels
    return 90 * 4**m + (123 + 60 * m) * 2**m + 2**m + 7
