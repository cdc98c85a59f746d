"""Uniform placement and snapshot-based constant-speed mobility.

Poses advance by v * slot duration along their heading each slot. A heading
is resampled uniformly on [0, 2*pi) whenever the step would leave the
deployment rectangle or bring two poses within the minimum separation; after
16 failed resamples the pose holds its position for that slot. Poses move in
index order: pose i is checked against the new positions of the poses below
it and the old positions of those above it.

A step screens all poses first, in one vectorised pass. A pose is at risk if
its first-try position lies outside the rectangle, or if another pose's old
position is closer than reach = min separation + 2 * step (plus a margin of
1e-9 of the rectangle's longer side for rounding). Every pose ends a slot
within one step of where it started, so a pose that is not at risk is
certain to keep its first try: its check cannot fail and it draws nothing
from the mobility stream. Only the at-risk poses then run the exact
per-pose loop, in index order, with the same draws as a loop over all poses,
and each is checked against the poses whose old position is within reach of
its own, as no other can fail the check. The screen sweeps the poses in x
order and needs O(N) memory. Below 14 poses the fixed cost of the numpy calls
exceeds that of checking all pairs, so every pose is at risk and checked
against all others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ScenarioConfig

_MAX_HEADING_RESAMPLES = 16
_PLACEMENT_TRIES_PER_POSE = 10_000
_SWEEP_CHUNK_PAIRS = 4096
# Below this size a Python loop over the pairs costs less than numpy's fixed
# cost per call (measured on a 2-vCPU Xeon host; see CHANGES.md).
_SCREEN_MIN_POSES = 14
# absorbs rounding in the screen's reach, relative to the rectangle's longer side
_REACH_MARGIN = 1e-9


class PlacementError(RuntimeError):
    """Deployment area cannot host the requested number of separated poses."""


@dataclass(frozen=True)
class SubnetPose:
    x: float
    y: float
    heading: float
    speed: float


def place_uniform(config: ScenarioConfig, rng: np.random.Generator) -> list[SubnetPose]:
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
    headings = rng.uniform(0.0, 2.0 * math.pi, size=n)
    return [
        SubnetPose(x=px, y=py, heading=h, speed=config.speed_mps)
        for px, py, h in zip(xs.tolist(), ys.tolist(), headings.tolist())
    ]


def _inside(x: float, y: float, config: ScenarioConfig) -> bool:
    return 0.0 <= x <= config.area_width_m and 0.0 <= y <= config.area_height_m


def _clear_of(x: float, y: float, xs: np.ndarray, ys: np.ndarray, sep2: float) -> bool:
    """Whether ``(x - qx) ** 2 + (y - qy) ** 2 >= sep2`` for every (qx, qy).

    numpy squares by multiplying while Python's ``**`` calls libm ``pow``,
    and the two differ in the last bit for about 0.1 % of inputs. So the
    numpy sum only settles the pairs clear of `sep2` by a relative 1e-12;
    the rest, the few near the threshold and those inside it, are decided
    by the Python expression itself.
    """
    d2 = np.square(x - xs) + np.square(y - ys)
    for j in np.flatnonzero(d2 < sep2 * (1.0 + 1e-12)).tolist():
        if (x - float(xs[j])) ** 2 + (y - float(ys[j])) ** 2 < sep2:
            return False
    return True


def _within_reach(xs: np.ndarray, ys: np.ndarray, reach: float) -> np.ndarray:
    """Mask of the points that have another point closer than `reach`.

    A sweep over the points sorted by x: the partners of the k-th are the
    later ones less than `reach` further right. Partner pairs are expanded
    in chunks of at most max(N, _SWEEP_CHUNK_PAIRS), so memory stays O(N)
    however the points cluster.
    """
    n = xs.size
    order = np.argsort(xs)
    sx, sy = xs[order], ys[order]
    counts = np.searchsorted(sx, sx + reach) - np.arange(1, n + 1)
    np.maximum(counts, 0, out=counts)
    near = np.zeros(n, dtype=bool)
    if not counts.any():
        return near
    ends = np.cumsum(counts)
    budget = max(n, _SWEEP_CHUNK_PAIRS)
    lo = 0
    while lo < n:
        done = int(ends[lo - 1]) if lo else 0
        # hi > lo, as counts[lo] < n <= budget
        hi = int(np.searchsorted(ends, done + budget, side="right"))
        c = counts[lo:hi]
        total = int(ends[hi - 1]) - done
        if total:
            k = np.repeat(np.arange(lo, hi), c)
            j = k + 1 + np.arange(total) - np.repeat(np.cumsum(c) - c, c)
            close = np.square(sx[j] - sx[k]) + np.square(sy[j] - sy[k]) < reach * reach
            near[order[k[close]]] = True
            near[order[j[close]]] = True
        lo = hi
    return near


def step_mobility(
    poses: list[SubnetPose], config: ScenarioConfig, rng: np.random.Generator
) -> list[SubnetPose]:
    """Advance every pose by one slot; lower-indexed poses move first."""
    n = len(poses)
    step = config.speed_mps * config.slot_ms / 1000.0
    sep2 = config.min_separation_m**2
    width, height = config.area_width_m, config.area_height_m
    reach = config.min_separation_m + 2.0 * step + _REACH_MARGIN * max(1.0, width, height)
    screened = n >= _SCREEN_MIN_POSES
    if screened:
        xs = np.array([p.x for p in poses])
        ys = np.array([p.y for p in poses])
        # first tries, with the float operations of the exact check below
        new_x = xs + step * np.array([math.cos(p.heading) for p in poses])
        new_y = ys + step * np.array([math.sin(p.heading) for p in poses])
        risky = (new_x < 0.0) | (new_x > width) | (new_y < 0.0) | (new_y > height)
        risky |= _within_reach(xs, ys, reach)
        out = [
            SubnetPose(x, y, p.heading, p.speed)
            for x, y, p in zip(new_x.tolist(), new_y.tolist(), poses)
        ]
        at_risk = np.flatnonzero(risky).tolist()
    else:
        out, at_risk = list(poses), range(n)

    for i in at_risk:
        if screened:  # only the poses whose old position is within reach can fail the check
            d2 = np.square(xs - xs[i]) + np.square(ys - ys[i])
            near = np.flatnonzero(d2 < reach * reach).tolist()
        else:
            near = range(n)
        # below i the poses stand at their new position, above it at the old
        others = [out[j] if j < i else poses[j] for j in near if j != i]
        pose = poses[i]
        heading = pose.heading
        moved = None
        for _ in range(_MAX_HEADING_RESAMPLES):
            nx = pose.x + step * math.cos(heading)
            ny = pose.y + step * math.sin(heading)
            if _inside(nx, ny, config) and all(
                (nx - q.x) ** 2 + (ny - q.y) ** 2 >= sep2 for q in others
            ):
                moved = SubnetPose(nx, ny, heading, pose.speed)
                break
            heading = rng.uniform(0.0, 2.0 * math.pi)
        if moved is None:
            moved = SubnetPose(pose.x, pose.y, heading, pose.speed)  # hold position for this slot
        out[i] = moved
    return out
