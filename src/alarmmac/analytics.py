"""Exact oracles and closed forms for the contention process.

Covers: the shared-message per-slot success probability, two ways (full
enumeration of activation subsets and joint pattern choices, and a dynamic
programme over agents on per-channel transmitter counts capped at two);
deadline probabilities for the absorbing age chain, computed three
independent ways (product form, absorbing-matrix form, literal path
enumeration); exhaustive grid search for the best stationary access
distribution, with every candidate evaluated by the dynamic programme;
and protocol complexity counts.

The enumeration oracles cost exponentially many cases and refuse instances
beyond desk scale. The success-probability enumeration visits (2**M + 1)**N
joint outcomes, each agent being inactive or active with one of 2**M
patterns: 531 441 at its limit N = 6, M = 3. (Summed subset by subset,
sum_k C(N, k) 2**(M k), the count is the same, by the binomial theorem.)
Its success indicator over that grid depends on (N, M) only, so it is built
once per pair and kept read-only: at most 21 grids, 0.62 MB in all. It is
the enumeration's own table, not derived from the dynamic programme's, so
the enumeration stays independent of it.

The outcome grid grows one agent axis at a time, each new cell the one
product of a grid entry and the agent's weight, by `np.einsum`. An
`np.multiply.outer` takes the same products, but it runs the last N = 6,
M = 3 level as 59 049 inner loops of 9 elements, and the six levels took
1.23 ms against einsum's 0.64 ms (2-vCPU Xeon, numpy 2.4). einsum adds
each product to +0.0, so a -0.0 product (from a p_n of -0.0) reads +0.0.
No sum of the grid can tell: the sign of a zero term moves no non-zero
sum, a float sum is -0.0 only if every term is, and the all-inactive
cell, a product of the non-negative 1 - p_n, is a failure zeroed to +0.0.

The grid search is limited to N <= 3, M <= 2. Its candidate rows are the
compositions of k = 1 / grid_step ticks into 2**M parts, walked directly
by stars and bars: C(k + 2**M - 1, 2**M - 1) rows at O(rows) cost, not
filtered out of the (k + 1)**(2**M) products of 0..k.

The dynamic programme runs backwards over agents, one gather of a cached
(2**M, 3**M) shift map per agent: O(N * 2**M * 3**M) time and
O(2**M * 3**M) memory, so it reaches benchmark scale (N = 20 and up) for
M <= 8; the enumeration stays as its independent reference.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import checked_int
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
    """Every one of `n` subnetworks picks each of the 2**M patterns alike."""
    n = checked_int(n, "n", minimum=0)
    width = 1 << checked_int(n_channels, "n_channels", minimum=1)
    return AccessDistribution(np.full((n, width), 1.0 / width))


def _checked_p(p: np.ndarray, access: AccessDistribution | None = None) -> np.ndarray:
    """`p` as a 1-D float array of activation probabilities in [0, 1]; a
    ValueError otherwise, or if `access` has not one psi row per entry."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise ValueError(f"p: activation probabilities must be a 1-D array, got shape {p.shape}")
    if access is not None and access.psi.shape[0] != len(p):
        raise ValueError("psi must have one row per subnetwork")
    if not _in_unit_interval(p):
        raise ValueError(f"p: activation probabilities must lie in [0, 1], got {p}")
    return p


def success_probability_bruteforce(p: np.ndarray, access: AccessDistribution) -> float:
    """Exact per-slot success probability by full enumeration.

    Sums over every activation subset (active members weighted by p_n,
    inactive by 1 - p_n) and every joint pattern assignment the indicator
    that some channel carries exactly one transmitter. This is the
    independent reference for `success_probability_dp`. Both sums are one
    grid of (2**M + 1)**N joint outcomes, with one axis per agent: inactive,
    or active with one of the 2**M patterns.
    """
    p = _checked_p(p, access)
    n = len(p)
    m = access.n_channels
    if n > 6 or m > 3:
        raise ValueError("enumeration oracle limited to N <= 6, M <= 3")

    # option 0 is inactive, option 1 + a is active playing pattern a; axis
    # n of the outcome grid holds agent n's option
    weights = np.hstack([(1.0 - p)[:, None], p[:, None] * access.psi])
    prob = np.ones(())
    for row in weights:
        # one product per new cell, as an outer product takes it; the module
        # docstring says why einsum, and why its +0.0 for -0.0 moves no sum
        prob = np.einsum("...,i->...i", prob, row)
    # zeroing the failures in place keeps the sum pairwise over one array
    np.multiply(prob, _enumeration_success(n, m), out=prob)
    return float(prob.sum())


@lru_cache(maxsize=None)
def _enumeration_success(n: int, n_channels: int) -> np.ndarray:
    """Read-only bool indicator over the (2**M + 1)**N outcome grid of
    `success_probability_bruteforce`: some channel carries exactly one
    transmitter. It depends on N and M only, not on p or psi. It is the
    enumeration's own table, counted per channel over the outcome grid, so
    the enumeration stays independent of the capped-count `_dp_tables`.
    Callers refuse N > 6 and M > 3 first, so at most 21 grids exist,
    0.62 MB in all; the largest, N = 6, M = 3, is 0.53 MB.
    """
    bits = np.vstack([np.zeros((1, n_channels), dtype=np.uint8), pattern_table(n_channels)])
    ok = np.zeros((len(bits),) * n, dtype=bool)
    for bit in bits.T:
        # uint8 counts hold at most six transmitters
        count = np.zeros((), dtype=np.uint8)
        for _ in range(n):
            count = np.add.outer(count, bit)
        ok |= count == 1
    ok.flags.writeable = False
    return ok


DP_MAX_CHANNELS = 8


@lru_cache(maxsize=None)
def _dp_tables(n_channels: int) -> tuple[np.ndarray, np.ndarray]:
    """(shift, success) of the capped-count chain over M channels.

    State s = sum_c k_c 3**c, where k_c in {0, 1, 2} is channel c's
    transmitter count capped at two; state 0 is nobody transmitting.
    shift[a, s] is the state after pattern a is played from state s: pattern
    bit c raises k_c unless it is already capped. success[s] is 1.0 where
    some channel holds exactly one transmitter. Both are read-only. The
    pattern bits are read from `pattern_table`, and shift is held in the
    platform integer type that the gather reads without a cast: 13 MB at
    M = 8.
    """
    states = np.arange(3**n_channels, dtype=np.intp)
    powers = 3 ** np.arange(n_channels, dtype=np.intp)
    counts = states // powers[:, None] % 3  # (M, 3**M): each channel's count in each state
    shift = pattern_table(n_channels).astype(np.intp) @ ((counts < 2) * powers[:, None])
    shift += states
    success = (counts == 1).any(axis=0).astype(float)
    shift.flags.writeable = False
    success.flags.writeable = False
    return shift, success


def _dp_weights(p: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Row n: agent n's chance of playing each pattern, shape (N, 2**M).

    An inactive agent, with chance 1 - p_n, moves no count, as pattern 0
    does, so its chance is folded into column 0.
    """
    weights = p[:, None] * psi
    weights[:, 0] += 1.0 - p
    return weights


def success_probability_dp(p: np.ndarray, access: AccessDistribution) -> float:
    """Exact per-slot success probability by a dynamic programme over agents.

    The same quantity as `success_probability_bruteforce`, from the same
    inputs. The state is the per-channel transmitter count capped at
    {0, 1, >=2}, which is all the success indicator needs. The programme
    runs backwards, as a value recursion: v starts as the success indicator
    per state, and agent n, from last to first, turns it into
    v <- (1 - p_n) v + p_n psi_n @ v[shift], the chance of success given the
    state the agents before n leave. The answer is v at state 0, where
    nobody has transmitted. One gather and one product per agent cost
    O(N * 2**M * 3**M) time and O(2**M * 3**M) memory, with no limit on N.
    M is limited to DP_MAX_CHANNELS = 8, where the shift map and one
    agent's gather each hold 6**8 = 1.7 M entries (13 MB each).
    """
    p = _checked_p(p, access)
    m = access.n_channels
    if m > DP_MAX_CHANNELS:
        raise ValueError(f"dynamic-programme oracle limited to M <= {DP_MAX_CHANNELS}")

    shift, value = _dp_tables(m)
    for weights in _dp_weights(p, access.psi)[::-1]:
        value = weights @ value[shift]
    return float(value[0])


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


def _checked_stationary(ps: float, deadline: int) -> int:
    """`deadline` as an int; a ValueError naming `ps` or `deadline` if either
    is out of range, or `ps` if it is not a scalar."""
    if np.ndim(ps) != 0:
        raise ValueError(f"ps: must be a scalar, got shape {np.shape(ps)}")
    if not _in_unit_interval(ps):
        raise ValueError(f"ps: must lie in [0, 1], got {ps!r}")
    return checked_int(deadline, "deadline", minimum=0)


def stationary_dtmc(ps: float, deadline: int) -> DtmcSpec:
    deadline = _checked_stationary(ps, deadline)
    return DtmcSpec(np.full(deadline + 1, float(ps)))


def transition_blocks(spec: DtmcSpec) -> tuple[np.ndarray, np.ndarray]:
    """Transient block Q and absorbing block R of the age chain.

    Age d advances to d + 1 with probability 1 - P_s(d), so the survival
    mass sits on Q's superdiagonal; success absorbs with P_s(d) at every
    age and the deadline miss absorbs from age D only.
    """
    ps = spec.ps
    q = np.zeros((ps.size, ps.size))
    q.flat[1 :: ps.size + 1] = 1.0 - ps[:-1]
    r = np.zeros((ps.size, 2))
    r[:, 0] = ps
    r[-1, 1] = 1.0 - ps[-1]
    return q, r


def _product_form(ps: Iterable[float], p_leq: float = 0.0, survive: float = 1.0) -> tuple[float, float]:
    """The product form's running sums (P_delivered, P_survived) after the
    ages `ps`, continued from the sums before them. Python floats: the same
    IEEE products as numpy scalars, at a third the cost."""
    for ps_d in ps:
        p_leq += ps_d * survive
        survive *= 1.0 - ps_d
    return p_leq, survive


def deadline_probability(spec: DtmcSpec) -> tuple[float, float]:
    """(P_delivered_within_D, P_deadline_missed) via the product form."""
    p_leq, survive = _product_form(spec.ps.tolist())
    # a sum of non-negative terms, which can exceed 1 by a couple of ulp
    return (p_leq if p_leq < 1.0 else 1.0), survive


def deadline_probability_table(ps: Iterable[float]) -> Iterator[tuple[float, float]]:
    """Row d is `deadline_probability` of the chain with ages 0..d of the
    success probabilities `ps`, each in [0, 1] as a `DtmcSpec` checks them,
    bit for bit. One running pass of the product form gives every row, so
    D rows cost O(D), and a lazy `ps` (say `itertools.repeat`) O(1) memory."""
    p_leq, survive = 0.0, 1.0
    for ps_d in ps:
        p_leq, survive = _product_form((ps_d,), p_leq, survive)
        yield (p_leq if p_leq < 1.0 else 1.0), survive


def deadline_probability_via_absorption(spec: DtmcSpec) -> tuple[float, float]:
    """Same quantities from absorption of the block transition matrix."""
    q, r = transition_blocks(spec)
    absorb = np.linalg.solve(np.eye(q.shape[0]) - q, r)
    p_leq, p_miss = absorb[0].tolist()
    return p_leq, p_miss


def deadline_probability_by_paths(spec: DtmcSpec) -> tuple[float, float]:
    """Walk over every outcome path of the chain; validation oracle. Path d
    fails at ages 0..d-1 and succeeds at age d; one more fails at every age.
    A loop, so any deadline fits, sums the successes from the deepest age up,
    as a recursive walk returns them, not in the product form's order."""
    ps = spec.ps.tolist()
    probs = [1.0]
    for p in ps:
        probs.append(probs[-1] * (1.0 - p))
    succ = 0.0
    for prob, p in zip(probs[-2::-1], ps[::-1]):
        succ += prob * p
    return succ, probs[-1]


def stationary_deadline_probability(ps: float, deadline: int) -> tuple[float, float]:
    """Closed geometric form 1 - (1 - P_s)**(D + 1) and its complement."""
    deadline = _checked_stationary(ps, deadline)
    miss = (1.0 - ps) ** (deadline + 1)
    return 1.0 - miss, miss


def _grid_rows(width: int, grid_step: float) -> list[tuple[float, ...]]:
    """Every access row on the grid, in lexicographic order: the
    compositions of k = 1 / grid_step ticks into `width` parts. The
    width - 1 cuts are the running totals after each part but the last, a
    weakly increasing choice from 0..k (stars and bars), and cuts in
    lexicographic order give rows in lexicographic order."""
    ticks = int(round(1.0 / grid_step))
    rows: list[tuple[float, ...]] = []
    for cuts in itertools.combinations_with_replacement(range(ticks + 1), width - 1):
        edges = (0, *cuts, ticks)
        rows.append(tuple([(hi - lo) * grid_step for lo, hi in zip(edges, edges[1:])]))
    return rows


_GRID_MAX_FLOATS = 1 << 22  # candidates times states; bounds every array of the search, 32 MB each


def best_stationary_psi(
    p: np.ndarray, n_channels: int, deadline: int, grid_step: float = 0.25
) -> tuple[AccessDistribution, float]:
    """Exhaustive grid search for the access matrix minimizing the miss
    probability under a stationary contention process.

    Rows are restricted to the probability grid. Every candidate matrix is
    evaluated at once: the backward recursion of `success_probability_dp`
    runs over a tensor with one axis of grid rows per agent, and at the
    first agent it evaluates state 0 only, so the largest array holds
    R**(N-1) * 2**M * 3**M floats for R grid rows. Of the
    candidates whose success lies within 1e-12 of the maximum, the
    lexicographically smallest matrix is returned. Returns (argmin, miss
    probability).
    """
    p = _checked_p(p)
    n = len(p)
    n_channels = checked_int(n_channels, "n_channels", minimum=1)
    if n > 3 or n_channels > 2:
        raise ValueError("grid search oracle limited to N <= 3, M <= 2")
    deadline = checked_int(deadline, "deadline", minimum=0)
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

    shift, value = _dp_tables(n_channels)
    for n_idx in range(n - 1, -1, -1):
        # each agent adds one candidate axis before the state axis; the first
        # agent is evaluated at state 0 only, where nobody has transmitted
        states = shift if n_idx else shift[:, :1]
        value = _dp_weights(np.full(len(rows), p[n_idx]), rows) @ value[..., states]
    # the candidate axes run from the last agent to the first
    success = value[..., 0].T.ravel()
    best = int(np.flatnonzero(success >= success.max() - 1e-12)[0])
    picked = np.unravel_index(best, (len(rows),) * n)
    _, miss = stationary_deadline_probability(float(success[best]), deadline)
    return AccessDistribution(rows[np.array(picked, dtype=int)]), float(miss)


def forward_madds(layer_sizes: list[int]) -> int:
    """Multiply-add count of one forward pass: sum of l_{i+1} * (2 l_i + 1).
    Each layer size is an integer >= 1, or a ValueError names it."""
    sizes = [checked_int(size, f"layer_sizes[{i}]", minimum=1) for i, size in enumerate(layer_sizes)]
    return sum(o * (2 * i + 1) for i, o in zip(sizes[:-1], sizes[1:]))


def complexity_bounds(
    n_channels: int, minibatch: int, layer_sizes: list[int]
) -> tuple[int, int, int]:
    """(forward cost z1, lower bound, upper bound) of one protocol iteration.

    The lower bound adds one training pass over the minibatch and the
    constant cost of greedy selection: (B + 1) * z1 + 3. The upper bound
    adds the full scan of the action list: upper = lower + 2**M - 1.
    `n_channels`, `minibatch` and each layer size are integers >= 1, or a
    ValueError names the argument.
    """
    n_channels = checked_int(n_channels, "n_channels", minimum=1)
    minibatch = checked_int(minibatch, "minibatch", minimum=1)
    z1 = forward_madds(layer_sizes)
    if layer_sizes[0] != n_channels or layer_sizes[-1] != (1 << n_channels):
        raise ValueError("layer sizes must run from M inputs to 2**M outputs")
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
    m = checked_int(n_channels, "n_channels", minimum=1)
    return 90 * 4**m + (123 + 60 * m) * 2**m + 2**m + 7
