"""Uniform placement and snapshot-based constant-speed mobility.

The poses are one plain ``(N,)`` array of record dtype `_POSE`: float fields
``x``, ``y``, ``heading``, ``cos`` and ``sin``, read by name or as attributes
of an item. ``cos`` and ``sin`` are the pose's direction, ``math.cos`` and
``math.sin`` of its heading: they are computed once per pose at placement
and again only when a heading is resampled. `place_uniform` and
`step_mobility` return a new array and never change their input.

Placement keeps every pair of poses at least the minimum separation apart.
It is rejection sampling that draws its candidates in blocks, one call per
block, and gives the poses and draws of the one-candidate-at-a-time loop:
a block holds at most one candidate per pose still to place, and every
pose needs at least one candidate, so that loop would draw every candidate
of the block too, in the same order and with the same
``low + (high - low) * next_double`` doubles; each candidate is then
accepted or rejected, in order, by that loop's own test
``dx * dx + dy * dy < sep**2`` against every pose accepted before it.

After placement, poses move independently of each other: each advances by
v * slot duration along its heading each slot, and its heading is resampled
uniformly on [0, 2*pi) whenever the step would leave the deployment
rectangle; after 16 failed resamples the pose holds its position for that
slot. The resamples draw from the mobility stream slot by slot, and within
a slot in index order.

`step_mobility` advances any number of slots, in windows of at most 256
slots. Each window screens all poses once, in one vectorised pass. A pose
is at risk if its straight-line end point lies outside the rectangle, or
(for K > 1) its start point does. For K > 1 the end points are one
``np.add.reduce`` along the leading axis of a C-contiguous (K + 1, 2, N)
block, `_straight_path`: the start row, then K copies of the one-slot
move. Such a reduction adds row by row, so it gives the floats of K
sequential adds of the move, at a cost that hardly grows with K. Repeated
float addition of one move is monotone in each coordinate, so a path whose
two ends are inside stays inside: a pose that is not at risk keeps its
first try in every slot of the window, draws nothing from the mobility
stream and ends at its straight-line end point, which the screen computes
with the exact check's own float adds. Only the at-risk poses then run
the exact check, slot by slot and in index order, so the draws are those
of one-slot calls over all poses. For K = 1 the screen is the one-slot
test.

`_look_ahead` runs the same block forward for the next 32 slots and draws
nothing: ``np.add.accumulate`` along its leading axis gives, in row j of
the (33, 2, N) block, every pose's x and y after j straight one-slot moves,
with the exact check's float adds. Its clean prefix is the number of slots
before the first one in which some pose's move fails the exact check's
``0 <= nx <= width`` or ``0 <= ny <= height``. No pose tries a second
heading before then, so rows 0 to the clean prefix hold the x and y that
`step_mobility` gives, under unchanged headings; a later slot is
`step_mobility`'s alone.
"""

from __future__ import annotations

import math

import numpy as np

from .config import ScenarioConfig, checked_int

_MAX_HEADING_RESAMPLES = 16
_PLACEMENT_TRIES_PER_POSE = 10_000
# the most placement candidates drawn in one call
_PLACEMENT_BLOCK = 32
# the longest window screened at once; a longer catch-up runs several
_MAX_WINDOW_STEPS = 256
# the slots of one look-ahead block; in the contention preset at N = 20,
# nine blocks in ten stay clean to the end
_LOOK_AHEAD_SLOTS = 32
# the one pose format; a record dtype, so an item exposes its fields as attributes
_POSE = np.dtype(
    (np.record, [("x", float), ("y", float), ("heading", float), ("cos", float), ("sin", float)])
)


class PlacementError(RuntimeError):
    """Deployment area cannot host the requested number of separated poses."""


def place_uniform(config: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    """Place N poses uniformly in the rectangle with pairwise separation,
    then draw their headings.

    Rejection sampling: pose k takes the first candidate (x, y), drawn as
    ``rng.uniform(0, W)`` and then ``rng.uniform(0, H)``, that lies at
    least the separation from poses 0..k-1. The candidates are drawn in
    blocks of at most `_PLACEMENT_BLOCK`, and never more than the poses
    still to place, each block as one ``rng.random((m, 2))`` scaled by
    ``(W, H)``: ``uniform(0, W)`` is ``0.0 + W * next_double``, which is
    ``W * next_double``, so a block holds those same doubles in that same
    order, at a fifth of an array-bounded ``uniform``'s cost. So every drawn
    candidate is one the one-at-a-time loop draws too, and each is tested
    in order with that loop's expression, against the poses placed before
    the block (one array test) and the ones accepted earlier in it: the
    poses and the generator's state are those of the one-at-a-time loop.

    A config that fails the packing bound is refused when it is built (see
    `config`); below it, a pose that finds no place in 10 000 candidates
    raises PlacementError, after which the generator may be up to one
    block further along than the one-at-a-time loop's.
    """
    n, sep2 = config.n_subnets, config.min_separation_m * config.min_separation_m
    extent = np.array((config.area_width_m, config.area_height_m))
    xs, ys = np.empty(n), np.empty(n)
    placed = tries = 0  # tries: rejected candidates of the pose being placed
    while placed < n:
        m = min(n - placed, _PLACEMENT_BLOCK)
        block = rng.random((m, 2))
        block *= extent  # the doubles of `rng.uniform(0.0, extent, (m, 2))`
        cx, cy = block.T
        accepted = (~_too_close(cx, cy, xs[:placed], ys[:placed], sep2).any(axis=1)).tolist()
        # the block's pairs too close together, in candidate order (row-major):
        # when candidate i is reached, whether each j < i was accepted is known
        rows, cols = np.nonzero(_too_close(cx, cy, cx, cy, sep2))
        for i, j in zip(rows.tolist(), cols.tolist()):
            if j < i and accepted[j]:
                accepted[i] = False
        for ok in accepted:
            tries = 0 if ok else tries + 1
            if tries == _PLACEMENT_TRIES_PER_POSE:
                raise PlacementError(f"placement infeasible after {_PLACEMENT_TRIES_PER_POSE} tries per pose")
        kept = np.flatnonzero(accepted)
        end = placed + len(kept)
        xs[placed:end], ys[placed:end] = cx[kept], cy[kept]
        placed = end
    headings = rng.uniform(0.0, 2.0 * math.pi, size=n).tolist()
    poses = np.empty(n, dtype=_POSE)
    poses["x"], poses["y"], poses["heading"] = xs, ys, headings
    poses["cos"], poses["sin"] = list(map(math.cos, headings)), list(map(math.sin, headings))
    return poses


def _too_close(x: np.ndarray, y: np.ndarray, qx: np.ndarray, qy: np.ndarray, sep2: float) -> np.ndarray:
    """(len(x), len(qx)) whether ``dx * dx + dy * dy < sep2`` for
    ``dx = x[i] - qx[j]`` and ``dy = y[i] - qy[j]``."""
    d2 = np.subtract.outer(x, qx)
    d2 *= d2
    dy = np.subtract.outer(y, qy)
    dy *= dy
    d2 += dy
    return d2 < sep2


def step_mobility(
    poses: np.ndarray, config: ScenarioConfig, rng: np.random.Generator, n_steps: int = 1
) -> np.ndarray:
    """Advance every pose by `n_steps` slots; in each slot lower-indexed
    poses draw first. Gives the poses and draws of `n_steps` one-slot calls;
    each step makes a new array, and `poses` is not changed. `n_steps` is
    an integer, numpy's included, >= 0; 0 gives a copy of `poses`."""
    n_steps = checked_int(n_steps, "n_steps", minimum=0)
    if n_steps == 0:
        return poses.copy()
    step = config.speed_mps * config.slot_ms / 1000.0
    for done in range(0, n_steps, _MAX_WINDOW_STEPS):
        poses = _advance_window(poses, config, rng, step, min(_MAX_WINDOW_STEPS, n_steps - done))
    return poses


def _straight_path(start: np.ndarray, step: float, k: int) -> np.ndarray:
    """The C-contiguous (k + 1, 2, N) block of x and y: the start row, then
    k copies of the one-slot move. Adding along the leading axis, as
    ``np.add.reduce`` and ``np.add.accumulate`` do, goes row by row: the
    float adds of the exact check's ``x + step * cos``, k times over."""
    path = np.empty((k + 1, 2, len(start)))
    path[0, 0], path[0, 1] = start["x"], start["y"]
    path[1:, 0], path[1:, 1] = step * start["cos"], step * start["sin"]
    return path


def _look_ahead(poses: np.ndarray, config: ScenarioConfig) -> tuple[np.ndarray, int]:
    """The look-ahead block of `poses` and its clean prefix; draws nothing
    (see the module docstring)."""
    step = config.speed_mps * config.slot_ms / 1000.0  # `step_mobility`'s one-slot move
    path = np.add.accumulate(_straight_path(poses, step, _LOOK_AHEAD_SLOTS), axis=0)
    x, y = path[1:, 0], path[1:, 1]
    inside = (0.0 <= x) & (x <= config.area_width_m) & (0.0 <= y) & (y <= config.area_height_m)
    clean = np.logical_and.accumulate(np.logical_and.reduce(inside, axis=1))
    return path, int(np.add.reduce(clean))


def _advance_window(
    start: np.ndarray, config: ScenarioConfig, rng: np.random.Generator, step: float, k: int
) -> np.ndarray:
    """Advance every pose by k slots after one screen (see the module docstring)."""
    width, height = config.area_width_m, config.area_height_m
    sx, sy = start["x"], start["y"]
    if k > 1:
        ex, ey = np.add.reduce(_straight_path(start, step, k), axis=0)
        # each coordinate moves monotonically, so a path between two inside points stays inside
        risky = (np.minimum(ex, sx) < 0.0) | (np.maximum(ex, sx) > width)
        risky |= (np.minimum(ey, sy) < 0.0) | (np.maximum(ey, sy) > height)
    else:
        # one-slot moves, with the float operations of the exact check below;
        # through the K > 1 screen a one-slot call at N = 20 took 1.4-2x as long,
        # and RCH in configs/contention.json (4 seeds x 2000 slots) 10-16 % longer
        ex, ey = sx + step * start["cos"], sy + step * start["sin"]
        risky = (ex < 0.0) | (ex > width) | (ey < 0.0) | (ey > height)
    out = start.copy()
    out["x"], out["y"] = ex, ey
    moving = risky.nonzero()[0]
    if not moving.size:
        return out

    xs, ys, headings, cos, sin = map(list, zip(*start[moving].tolist()))  # the moving rows, one list per field
    for _ in range(k):
        for i in range(moving.size):  # in index order
            x, y, c, s = xs[i], ys[i], cos[i], sin[i]
            for _ in range(_MAX_HEADING_RESAMPLES):
                nx = x + step * c
                ny = y + step * s
                if 0.0 <= nx <= width and 0.0 <= ny <= height:
                    xs[i], ys[i] = nx, ny
                    break
                # a failed try resamples; after 16 the pose holds its position
                headings[i] = heading = rng.uniform(0.0, 2.0 * math.pi)
                cos[i] = c = math.cos(heading)
                sin[i] = s = math.sin(heading)
    out[moving] = list(zip(xs, ys, headings, cos, sin))
    return out
