"""Uniform placement and snapshot-based constant-speed mobility.

The poses are one ``(N,)`` record array of float fields ``x``, ``y``,
``heading``, ``cos`` and ``sin``, which its items expose as attributes.
``cos`` and ``sin`` are the pose's direction, ``math.cos`` and ``math.sin``
of its heading: they are computed once per pose at placement and again only
when a heading is resampled. `place_uniform` and `step_mobility` return a
new array and never change their input.

Poses advance by v * slot duration along their heading each slot. A heading
is resampled uniformly on [0, 2*pi) whenever the step would leave the
deployment rectangle or bring two poses within the minimum separation; after
16 failed resamples the pose holds its position for that slot. Poses move in
index order: pose i is checked against the new positions of the poses below
it and the old positions of those above it.

`step_mobility` advances any number of slots, in windows of K slots, where
2 * K * step stays within max(min separation, 1 m) and K is at most 256.
Each window screens all poses once, in one vectorised pass. A pose is at
risk if its straight-line end point, K sequential adds of its one-slot move,
lies outside the rectangle, or (for K > 1) its start point does, or if
another pose's start position is closer than reach = min separation +
2 * K * step, plus a margin of K * 1e-9 of the rectangle's longer side for
the rounding of K sequential adds. Every pose ends each slot within one
step of where it started, so in a window it stays within K steps of its
start; and repeated float addition of one move is monotone in each
coordinate, so a path whose two ends are inside stays inside. A pose that
is not at risk is therefore certain to keep its first try in every slot of
the window: it draws nothing from the mobility stream and ends at its
straight-line end point. Only the at-risk poses then run the exact per-pose
check, slot by slot and in index order, with the same draws as one-slot
calls over all poses, each against the poses whose start position is within
reach of its own, as no other can fail the check. For K = 1 the screen is
the one-slot test.

The screen takes its close pairs from a neighbour list. A sweep over the
poses in x order finds the pairs closer than a reach, expanding its
candidate pairs in chunks of O(N) memory. Each window keeps the listed
pairs whose start positions are closer than its own reach, by the squared
distance against reach^2. Those pairs mark their poses at risk, and they
are the at-risk poses' neighbour lists, which the separation keeps short.

A `NeighbourList` passed to `step_mobility` keeps one list across calls,
as a Verlet list does in molecular dynamics; without one, a call keeps its
own. The sweep runs at the reach R of the longest window, W =
`_window_steps` steps, from the start poses of the window that needs it.
Take a window of k steps that starts s slots after the build, with s + k
<= W. A pose moves at most one step per slot, so two poses closer than the
window's reach at its start were closer than min separation + 2 * (s + k)
* step, plus the margin for the rounding of s + k slots, at the build:
within R, so listed. The list is rebuilt when fewer than k of its W steps
are left, and when it is handed any array other than the one it last
returned, or another config; below 14 poses it is not used. Poses must not
be changed in place between calls.

The sweep admits a pair by comparing x against x + reach and then the
squared distance against reach^2, so a pair right at a reach may fall
either side of it. Such a pair cannot fail a check in the window or the
list's span, since the reach carries the rounding margin beyond the
2 * (s + k) * step the two poses can close. A pose marked at risk that
cannot fail is still checked exactly and keeps its first try, so neither
the list nor its span changes a pose or a draw. Below 14 poses the fixed
cost of the numpy calls exceeds that of checking all pairs, so every pose
is at risk and checked against all others.
"""

from __future__ import annotations

import math

import numpy as np

from .config import ScenarioConfig

_MAX_HEADING_RESAMPLES = 16
_PLACEMENT_TRIES_PER_POSE = 10_000
# candidate pairs per sweep chunk at most, unless N is larger: at N = 300 in
# 50 x 50 m a sweep at the longest window's reach (3 m) has about 5200
# candidates, so three chunks keep its temporary arrays small
_SWEEP_CHUNK_PAIRS = 2048
# Below this size a Python loop over the pairs costs less than numpy's fixed
# cost per call (measured on a 2-vCPU Xeon host; see CHANGES.md).
_SCREEN_MIN_POSES = 14
# absorbs the rounding of one slot's move in the screen's reach, relative to
# the rectangle's longer side
_REACH_MARGIN = 1e-9
# the longest window screened at once; a longer catch-up runs several
_MAX_WINDOW_STEPS = 256
# a record dtype, so a record-array view of a new array needs no dtype conversion
_POSE = np.dtype(
    (np.record, [("x", float), ("y", float), ("heading", float), ("cos", float), ("sin", float)])
)


class PlacementError(RuntimeError):
    """Deployment area cannot host the requested number of separated poses."""


def place_uniform(config: ScenarioConfig, rng: np.random.Generator) -> np.recarray:
    """Place N poses uniformly in the rectangle with pairwise separation.

    Uses rejection sampling after a disk-packing feasibility precheck, so an
    over-dense configuration fails fast instead of looping.
    """
    n = config.n_subnets
    sep = config.min_separation_m
    area = config.area_width_m * config.area_height_m
    if sep > 0:
        packing_cap = area / (math.pi * (sep / 2.0) ** 2)
        if n > packing_cap:
            raise PlacementError(
                f"cannot place {n} poses with separation {sep} m in "
                f"{config.area_width_m} x {config.area_height_m} m "
                f"(packing bound ~{packing_cap:.0f})"
            )
    xs, ys = np.empty(n), np.empty(n)
    for k in range(n):
        for _ in range(_PLACEMENT_TRIES_PER_POSE):
            x = rng.uniform(0.0, config.area_width_m)
            y = rng.uniform(0.0, config.area_height_m)
            if _clear_of(x, y, xs[:k], ys[:k], sep * sep):
                xs[k], ys[k] = x, y
                break
        else:
            raise PlacementError(f"placement infeasible after {_PLACEMENT_TRIES_PER_POSE} tries per pose")
    headings = rng.uniform(0.0, 2.0 * math.pi, size=n).tolist()
    poses = np.empty(n, dtype=_POSE)
    poses["x"], poses["y"], poses["heading"] = xs, ys, headings
    poses["cos"], poses["sin"] = list(map(math.cos, headings)), list(map(math.sin, headings))
    return poses.view(np.recarray)


def _clear_of(x: float, y: float, xs: np.ndarray, ys: np.ndarray, sep2: float) -> bool:
    """Whether ``(x - qx) * (x - qx) + (y - qy) * (y - qy) >= sep2`` for
    every (qx, qy)."""
    return not (np.square(x - xs) + np.square(y - ys) < sep2).any()


def _within_reach(xs: np.ndarray, ys: np.ndarray, reach: float) -> tuple[np.ndarray, np.ndarray]:
    """The pairs of points closer than `reach`, as two index arrays, each
    pair once in either order.

    A sweep over the points sorted by x: the partners of the k-th are the
    later ones less than `reach` further right. Candidate pairs are expanded
    in chunks of at most max(N, _SWEEP_CHUNK_PAIRS), so the candidates take
    O(N) memory however the points cluster. The returned pairs are as many
    as the close pairs, which a minimum separation keeps few per point.
    """
    n = xs.size
    order = np.argsort(xs)
    sx, sy = xs[order], ys[order]
    counts = np.searchsorted(sx, sx + reach) - np.arange(1, n + 1)
    np.maximum(counts, 0, out=counts)
    firsts, seconds = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    ends = np.cumsum(counts)
    budget = max(n, _SWEEP_CHUNK_PAIRS)
    lo = 0
    while lo < n and ends[-1]:
        done = int(ends[lo - 1]) if lo else 0
        # hi > lo, as counts[lo] < n <= budget
        hi = int(np.searchsorted(ends, done + budget, side="right"))
        c = counts[lo:hi]
        total = int(ends[hi - 1]) - done
        if total:
            k = np.repeat(np.arange(lo, hi), c)
            j = k + 1 + np.arange(total) - np.repeat(np.cumsum(c) - c, c)
            close = np.square(sx[j] - sx[k]) + np.square(sy[j] - sy[k]) < reach * reach
            firsts.append(order[k[close]])
            seconds.append(order[j[close]])
        lo = hi
    return np.concatenate(firsts), np.concatenate(seconds)


def _window_steps(min_separation_m: float, step: float) -> int:
    """Steps per screened window: the most that keep 2 * K * step within
    max(min separation, 1 m), so the screen's reach stays below
    min separation + max(min separation, 1 m); at most _MAX_WINDOW_STEPS."""
    if step <= 0.0:
        return _MAX_WINDOW_STEPS
    return max(1, min(_MAX_WINDOW_STEPS, int(max(min_separation_m, 1.0) / (2.0 * step))))


def _reach(config: ScenarioConfig, step: float, k: int) -> float:
    """The screen's reach for a window of k steps."""
    margin = k * _REACH_MARGIN * max(1.0, config.area_width_m, config.area_height_m)
    return config.min_separation_m + 2.0 * k * step + margin


class NeighbourList:
    """One neighbour list kept across `step_mobility` calls on one run's
    poses (see the module docstring). Pass the same object with the array
    each call returned; it holds nothing a caller reads."""

    def __init__(self) -> None:
        self._poses: np.recarray | None = None  # the array the last window returned
        self._config: ScenarioConfig | None = None
        self._first = self._second = np.empty(0, dtype=np.intp)
        self._left = 0  # steps of the list's span not yet used

    def _close_pairs(
        self, poses: np.recarray, xs: np.ndarray, ys: np.ndarray, config: ScenarioConfig, step: float, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The listed pairs whose positions `xs`, `ys` at the start of a
        k-step window from `poses` are closer than its reach; the list is
        built first if it does not cover the window."""
        if self._poses is not poses or self._config is not config or self._left < k:
            span = _window_steps(config.min_separation_m, step)
            self._first, self._second = _within_reach(xs, ys, _reach(config, step, span))
            self._config, self._left = config, span
        self._left -= k
        first, second = self._first, self._second
        reach = _reach(config, step, k)
        close = np.square(xs[first] - xs[second]) + np.square(ys[first] - ys[second]) < reach * reach
        return first[close], second[close]


def step_mobility(
    poses: np.recarray,
    config: ScenarioConfig,
    rng: np.random.Generator,
    n_steps: int = 1,
    neighbours: NeighbourList | None = None,
) -> np.recarray:
    """Advance every pose by `n_steps` slots; in each slot lower-indexed
    poses move first. Gives the poses and draws of `n_steps` one-slot calls;
    each step makes a new array, and `poses` is not changed. `n_steps` is a
    non-negative int; 0 gives a copy of `poses`. `neighbours`, if given,
    carries the close pairs from one call to the next; the poses and draws
    are the same with or without it."""
    if isinstance(n_steps, bool) or not isinstance(n_steps, int) or n_steps < 0:
        raise ValueError(f"n_steps must be a non-negative int, got {n_steps!r}")
    if n_steps == 0:
        return poses.copy()
    if neighbours is None:
        neighbours = NeighbourList()  # a list for this call alone
    step = config.speed_mps * config.slot_ms / 1000.0
    window = _window_steps(config.min_separation_m, step) if n_steps > 1 else 1  # one step is its own window
    for done in range(0, n_steps, window):
        poses = _advance_window(poses, config, rng, step, min(window, n_steps - done), neighbours)
    return poses


def _advance_window(
    poses: np.recarray,
    config: ScenarioConfig,
    rng: np.random.Generator,
    step: float,
    k: int,
    neighbours: NeighbourList,
) -> np.recarray:
    """Advance every pose by k slots after one screen (see the module docstring)."""
    n = len(poses)
    sep2 = config.min_separation_m**2
    width, height = config.area_width_m, config.area_height_m
    start = poses.view(np.ndarray)  # a plain view reads fields faster than the record array
    out = start.copy()
    moved = out.view(np.recarray)
    if n >= _SCREEN_MIN_POSES:
        sx, sy = start["x"], start["y"]
        # one-slot moves, with the float operations of the exact check below
        dx, dy = step * start["cos"], step * start["sin"]
        ex, ey = sx + dx, sy + dy
        for _ in range(k - 1):
            ex += dx
            ey += dy
        if k > 1:  # each coordinate moves monotonically, so a path between two inside points stays inside
            risky = (np.minimum(ex, sx) < 0.0) | (np.maximum(ex, sx) > width)
            risky |= (np.minimum(ey, sy) < 0.0) | (np.maximum(ey, sy) > height)
        else:
            risky = (ex < 0.0) | (ex > width) | (ey < 0.0) | (ey > height)
        first, second = neighbours._close_pairs(poses, sx, sy, config, step, k)
        neighbours._poses = moved
        risky[first] = True
        risky[second] = True
        out["x"], out["y"] = ex, ey
        moving = risky.nonzero()[0]
        if not moving.size:
            return moved
        # only the poses that start within reach of a pose can fail its check,
        # and a pose that is not at risk passes its first try whoever it is
        # checked against; the moving poses are numbered 0.. in index order
        others = [[] for _ in range(moving.size)]
        for i, j in zip(np.searchsorted(moving, first).tolist(), np.searchsorted(moving, second).tolist()):
            others[i].append(j)
            others[j].append(i)
    else:
        moving = np.arange(n)
        others = [[j for j in range(n) if j != i] for i in range(n)]

    state = start[moving]
    xs, ys, headings = state["x"].tolist(), state["y"].tolist(), state["heading"].tolist()
    cos, sin = state["cos"].tolist(), state["sin"].tolist()
    for _ in range(k):
        # in index order: below i the poses stand at this slot's position, above it at the last one's
        for i, nearby in enumerate(others):
            x, y, c, s = xs[i], ys[i], cos[i], sin[i]
            for _ in range(_MAX_HEADING_RESAMPLES):
                nx = x + step * c
                ny = y + step * s
                if 0.0 <= nx <= width and 0.0 <= ny <= height:
                    for j in nearby:
                        if (nx - xs[j]) ** 2 + (ny - ys[j]) ** 2 < sep2:
                            break
                    else:
                        xs[i], ys[i] = nx, ny
                        break
                # a failed try resamples; after 16 the pose holds its position
                headings[i] = heading = rng.uniform(0.0, 2.0 * math.pi)
                cos[i] = c = math.cos(heading)
                sin[i] = s = math.sin(heading)
    out[moving] = list(zip(xs, ys, headings, cos, sin))
    return moved
