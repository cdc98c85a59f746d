import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from alarmmac import geometry
from alarmmac.geometry import (
    _SCREEN_MIN_POSES,
    NeighbourList,
    PlacementError,
    _clear_of,
    _reach,
    _window_steps,
    _within_reach,
    place_uniform,
    step_mobility,
)

from conftest import make_config, pose_array


def test_single_pose_inside_rectangle(rng):
    cfg = make_config(n_subnets=1)
    poses = place_uniform(cfg, rng)
    assert poses.dtype.names == ("x", "y", "heading", "cos", "sin") and poses.shape == (1,)
    (pose,) = poses
    assert 0 <= pose.x <= cfg.area_width_m and 0 <= pose.y <= cfg.area_height_m
    assert (pose.cos, pose.sin) == (math.cos(pose.heading), math.sin(pose.heading))


def test_pairwise_separation_enforced():
    cfg = make_config(n_subnets=40)
    for seed in range(5):
        poses = place_uniform(cfg, np.random.default_rng(seed))
        for i in range(len(poses)):
            for j in range(i + 1, len(poses)):
                d = math.hypot(poses[i].x - poses[j].x, poses[i].y - poses[j].y)
                assert d >= cfg.min_separation_m


def test_overdense_placement_infeasible(rng):
    cfg = make_config(n_subnets=3000)
    with pytest.raises(PlacementError):
        place_uniform(cfg, rng)


def test_displacement_is_speed_times_slot(rng):
    # far from walls and from each other: no direction change can trigger
    cfg = make_config(n_subnets=2)
    poses = pose_array([(10.0, 10.0, 0.3), (40.0, 40.0, 2.0)])
    stepped = step_mobility(poses, cfg, rng)
    for before, after in zip(poses, stepped):
        moved = math.hypot(after.x - before.x, after.y - before.y)
        assert abs(moved - 0.006) < 1e-12
        assert after.heading == before.heading


def test_outward_heading_at_boundary_is_resampled(rng):
    cfg = make_config(n_subnets=1)
    (pose,) = poses = pose_array([(0.0005, 25.0, math.pi)])
    (after,) = step_mobility(poses, cfg, rng)
    assert 0 <= after.x <= cfg.area_width_m and 0 <= after.y <= cfg.area_height_m
    assert after.heading != pose.heading


def test_too_close_pair_resamples_or_holds(rng):
    # a 6 mm step cannot restore 1.5 m from 1.4 m, so both poses hold
    cfg = make_config(n_subnets=2)
    poses = pose_array([(10.0, 10.0, 0.0), (11.4, 10.0, math.pi)])
    stepped = step_mobility(poses, cfg, rng)
    d = math.hypot(stepped[1].x - stepped[0].x, stepped[1].y - stepped[0].y)
    held = all((s.x, s.y) == (p.x, p.y) for s, p in zip(stepped, poses))
    assert d >= cfg.min_separation_m or held
    assert all(s.heading != p.heading for s, p in zip(stepped, poses))


def test_containment_and_separation_hold_over_many_slots():
    cfg = make_config(n_subnets=10, speed_mps=25.0)  # fast poses stress the rules
    rng = np.random.default_rng(7)
    poses = place_uniform(cfg, rng)
    for _ in range(200):
        poses = step_mobility(poses, cfg, rng)
        xs, ys = poses.x.tolist(), poses.y.tolist()
        for x, y in zip(xs, ys):
            assert 0 <= x <= cfg.area_width_m and 0 <= y <= cfg.area_height_m
        for i in range(len(poses)):
            for j in range(i + 1, len(poses)):
                d = math.hypot(xs[i] - xs[j], ys[i] - ys[j])
                assert d >= cfg.min_separation_m - 1e-12


# --- scalar references: the per-pose loops the vectorised code must match ---


def headed(poses):
    """(x, y, heading) tuples of Python floats, the state the references keep."""
    return [(x, y, heading) for x, y, heading, _, _ in poses.tolist()]


def assert_same_poses(new, ref):
    """Equal bit for bit in every field: positions, headings and directions."""
    assert new.dtype.names == ref.dtype.names
    assert new.tobytes() == ref.tobytes()


def _reference_place(config, rng):
    n, sep = config.n_subnets, config.min_separation_m
    placed = []
    for _ in range(n):
        while True:
            x = rng.uniform(0.0, config.area_width_m)
            y = rng.uniform(0.0, config.area_height_m)
            if all((x - px) * (x - px) + (y - py) * (y - py) >= sep * sep for px, py in placed):
                placed.append((x, y))
                break
    headings = rng.uniform(0.0, 2.0 * math.pi, size=n)
    return pose_array((px, py, h) for (px, py), h in zip(placed, headings.tolist()))


def _reference_step(poses, config, rng):
    """One slot over (x, y, heading) tuples of Python floats, pose by pose."""
    step = config.speed_mps * config.slot_ms / 1000.0
    sep2 = config.min_separation_m**2
    out = list(poses)
    for i, (x, y, heading) in enumerate(poses):
        moved = None
        for _ in range(16):
            nx = x + step * math.cos(heading)
            ny = y + step * math.sin(heading)
            clear = all(
                (nx - qx) ** 2 + (ny - qy) ** 2 >= sep2 for j, (qx, qy, _) in enumerate(out) if j != i
            )
            inside = 0.0 <= nx <= config.area_width_m and 0.0 <= ny <= config.area_height_m
            if inside and clear:
                moved = (nx, ny, heading)
                break
            heading = rng.uniform(0.0, 2.0 * math.pi)
        out[i] = (x, y, heading) if moved is None else moved
    return out


def stepped_apart(poses, cfg, rng, n_steps=1, neighbours=None):
    """step_mobility's result, checked to be a new array that left `poses` as
    it was: the benchmark and the golden test compare the two."""
    before = poses.copy()
    after = step_mobility(poses, cfg, rng, n_steps, neighbours)
    assert after is not poses
    assert poses.tobytes() == before.tobytes()
    return after


def assert_steps_match(poses, cfg, seed, n_steps=3):
    """Both steps give equal poses and leave the RNG in the same state."""
    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    new, ref = poses, headed(poses)
    for _ in range(n_steps):
        new = stepped_apart(new, cfg, rng_new)
        ref = _reference_step(ref, cfg, rng_ref)
        assert_same_poses(new, pose_array(ref))
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("n", [1, 40, 300])
def test_placement_matches_scalar_reference(n):
    cfg = make_config(n_subnets=n)
    for seed in range(4):
        rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert_same_poses(place_uniform(cfg, rng_new), _reference_place(cfg, rng_ref))
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state


def test_too_close_pair_matches_reference():
    cfg = make_config(n_subnets=2)
    poses = pose_array([(10.0, 10.0, 0.0), (11.4, 10.0, math.pi)])
    assert_steps_match(poses, cfg, seed=5)


def test_corner_and_edge_poses_match_reference():
    cfg = make_config(n_subnets=4)
    w, h = cfg.area_width_m, cfg.area_height_m
    poses = pose_array([
        (0.0, 0.0, 1.25 * math.pi),
        (w, h, 0.25 * math.pi),
        (w, 20.0, 0.0),
        (30.0, h, 0.5 * math.pi),
    ])
    assert_steps_match(poses, cfg, seed=11)


@st.composite
def mobility_cases(draw, max_poses=150):
    n = draw(st.integers(1, max_poses))
    speed = draw(st.sampled_from([0.0, 1e-6, 2.0, 25.0]))
    width = draw(st.sampled_from([10.0, 50.0]))
    height = 50.0
    packing_sep = 2.0 * math.sqrt(width * height / (math.pi * n))
    sep = draw(st.sampled_from([0.0, 1.5, 0.95 * packing_sep]))
    seed = draw(st.integers(0, 2**32 - 1))
    cfg = make_config(
        n_subnets=n, speed_mps=speed, min_separation_m=sep, area_width_m=width, area_height_m=height
    )
    g = np.random.default_rng(seed)
    x = g.uniform(0.0, width, n)
    y = g.uniform(0.0, height, n)
    # a share of the poses sits exactly on an edge or a corner
    on_edge = g.random(n) < 0.2
    x[on_edge & (g.random(n) < 0.5)] = 0.0
    x[on_edge & (g.random(n) < 0.5)] = width
    y[on_edge & (g.random(n) < 0.3)] = height
    if n >= 2:  # a pair closer than the separation
        x[1], y[1] = min(x[0] + 0.93 * sep, width), y[0]
    headings = g.uniform(0.0, 2.0 * math.pi, n)
    return pose_array(zip(x.tolist(), y.tolist(), headings.tolist())), cfg, seed


@settings(max_examples=40, deadline=None)
@given(mobility_cases())
def test_step_matches_scalar_reference(case):
    poses, cfg, seed = case
    assert_steps_match(poses, cfg, seed)


def test_step_matches_reference_on_placed_crowd():
    cfg = make_config(n_subnets=150, speed_mps=25.0)
    poses = place_uniform(cfg, np.random.default_rng(2))
    assert_steps_match(poses, cfg, seed=2, n_steps=20)


def assert_multi_step_matches(poses, cfg, seed, n_steps):
    """One call of n_steps gives the poses and the RNG state of n_steps
    one-step reference calls."""
    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    ref = headed(poses)
    for _ in range(n_steps):
        ref = _reference_step(ref, cfg, rng_ref)
    assert_same_poses(stepped_apart(poses, cfg, rng_new, n_steps), pose_array(ref))
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


def window_of(cfg):
    return _window_steps(cfg.min_separation_m, cfg.speed_mps * cfg.slot_ms / 1000.0)


@settings(max_examples=30, deadline=None)
@given(mobility_cases(max_poses=2 * _SCREEN_MIN_POSES), st.data())
def test_multi_step_matches_scalar_reference(case, data):
    poses, cfg, seed = case
    window = window_of(cfg)
    # a few steps, one window and its edges, and more than two windows
    n_steps = data.draw(
        st.one_of(
            st.integers(1, 3),
            st.sampled_from([max(1, window - 1), window, window + 1, 2 * window + 1]),
            st.integers(1, 2 * window + 2),
        ),
        label="n_steps",
    )
    assert_multi_step_matches(poses, cfg, seed, n_steps)


@pytest.mark.parametrize("speed", [2.0, 25.0])
def test_multi_step_matches_reference_on_placed_crowd(speed):
    # at 2 m/s a window is 125 steps, at 25 m/s 10
    cfg = make_config(n_subnets=60, speed_mps=speed, area_width_m=20.0, area_height_m=20.0)
    poses = place_uniform(cfg, np.random.default_rng(3))
    assert_multi_step_matches(poses, cfg, seed=3, n_steps=2 * window_of(cfg) + 5)


def test_multi_step_matches_reference_at_dense_rch_density():
    # N = 300 in 50 x 50 m at 2 m/s: a window of 125 steps, then one of 3
    cfg = make_config(n_subnets=300, speed_mps=2.0, area_width_m=50.0, area_height_m=50.0)
    assert window_of(cfg) == 125
    poses = place_uniform(cfg, np.random.default_rng(8))
    assert_multi_step_matches(poses, cfg, seed=8, n_steps=window_of(cfg) + 3)


def counted_builds(monkeypatch):
    """A list that counts the neighbour searches `step_mobility` makes."""
    builds = []

    def counted(xs, ys, reach):
        builds.append(reach)
        return _within_reach(xs, ys, reach)

    monkeypatch.setattr(geometry, "_within_reach", counted)
    return builds


def assert_reads_match(poses, cfg, seed, gaps, neighbours):
    """Reads `gaps` steps apart through one `neighbours` list give the poses
    and the RNG state of one-step reference calls at every read."""
    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    ref = headed(poses)
    for gap in gaps:
        poses = stepped_apart(poses, cfg, rng_new, gap, neighbours)
        for _ in range(gap):
            ref = _reference_step(ref, cfg, rng_ref)
        assert_same_poses(poses, pose_array(ref))
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state
    return poses


@pytest.mark.parametrize(
    "scenario,seed",
    [
        (dict(n_subnets=300, speed_mps=2.0, area_width_m=50.0, area_height_m=50.0), 8),  # dense_rch, W = 125
        (dict(n_subnets=150, speed_mps=25.0), 2),  # the placed crowd, W = 10
    ],
)
def test_reused_list_matches_reference_over_read_gaps(monkeypatch, scenario, seed):
    cfg = make_config(**scenario)
    window = window_of(cfg)
    poses = place_uniform(cfg, np.random.default_rng(seed))
    builds = counted_builds(monkeypatch)
    gaps = [1, 2, 3, 7, window + 5, 2, 1, 3, 7, 1]
    assert_reads_match(poses, cfg, seed, gaps, NeighbourList())
    # every search is at the longest window's reach, and the list was rebuilt twice or more
    assert len(builds) >= 3 and set(builds) == {_reach(cfg, cfg.speed_mps * cfg.slot_ms / 1000.0, window)}


def test_pair_from_just_outside_the_build_reach_is_caught(monkeypatch):
    # two poses just beyond the list's reach head straight at each other;
    # they first come within the separation one slot after the span ends
    cfg = make_config(n_subnets=_SCREEN_MIN_POSES)
    step = cfg.speed_mps * cfg.slot_ms / 1000.0
    window = window_of(cfg)
    apart = math.nextafter(_reach(cfg, step, window), math.inf)
    pair = [(20.0, 25.0, 0.0), (20.0 + apart, 25.0, math.pi)]
    # distant poses that never come near, so the screen runs
    padding = [(3.0 + 3.5 * i, 45.0, 0.5 * math.pi) for i in range(_SCREEN_MIN_POSES - 2)]
    poses = pose_array(pair + padding)
    builds = counted_builds(monkeypatch)
    stepped = assert_reads_match(poses, cfg, 3, [1] * (window + 5), NeighbourList())
    assert len(builds) == 2
    assert stepped.heading[0] != 0.0 or stepped.heading[1] != math.pi  # the pair met and resampled


def test_list_is_rebuilt_for_another_array_or_config(monkeypatch):
    cfg = make_config(n_subnets=150, speed_mps=25.0)
    poses = place_uniform(cfg, np.random.default_rng(2))
    other = place_uniform(cfg, np.random.default_rng(5))
    builds = counted_builds(monkeypatch)
    neighbours = NeighbourList()
    assert_reads_match(poses, cfg, 2, [1, 1], neighbours)
    last = assert_reads_match(other, cfg, 5, [1, 1, 2], neighbours)  # not the array it returned
    assert len(builds) == 2
    # the array it returned, under a separation beyond the list's reach
    wider = make_config(n_subnets=150, speed_mps=25.0, min_separation_m=5.0)
    assert_reads_match(last, wider, 5, [1], neighbours)
    assert len(builds) == 3
    few = pose_array([(10.0, 10.0, 0.0), (11.6, 10.0, math.pi)])  # below the screen: no list
    assert_reads_match(few, make_config(n_subnets=2), 2, [1, 3], neighbours)
    assert len(builds) == 3


@pytest.mark.parametrize(
    "n_steps,valid", [(0, True), (-3, False), (2.5, False), (2.0, False), (True, False), ("3", False), (None, False)]
)
def test_step_mobility_takes_a_non_negative_int_n_steps(n_steps, valid):
    cfg = make_config(n_subnets=2)
    poses = pose_array([(10.0, 10.0, 0.3), (40.0, 40.0, 2.0)])
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    if valid:  # no step: a new array holding the same poses, and no draw
        assert_same_poses(stepped_apart(poses, cfg, rng, n_steps), poses)
    else:
        with pytest.raises(ValueError, match="n_steps"):
            step_mobility(poses, cfg, rng, n_steps)
    assert rng.bit_generator.state == state


def test_window_keeps_reach_within_twice_the_separation():
    assert _window_steps(1.5, 0.006) == 125
    assert _window_steps(1.5, 0.075) == 10
    assert _window_steps(0.0, 0.075) == 6  # a 1 m floor under the separation
    assert _window_steps(1.5, 10.0) == 1
    assert _window_steps(1.5, 0.0) == _window_steps(1.5, 1e-9) == 256


def test_clear_of_decides_exactly_at_the_threshold():
    # a pose exactly at the separation is clear of its neighbour, one ulp
    # inside it is not; the squared distance is dx * dx + dy * dy
    origin = np.zeros(1)
    for x, y in np.random.default_rng(0).uniform(-60.0, 60.0, (5000, 2)).tolist():
        d2 = x * x + y * y
        assert _clear_of(x, y, origin, origin, d2)
        assert not _clear_of(x, y, origin, origin, math.nextafter(d2, math.inf))


@pytest.mark.parametrize("n", [0, 1, 2, 200])
def test_within_reach_matches_brute_force(n):
    g = np.random.default_rng(n)
    xs = g.uniform(0.0, 20.0, n)
    ys = g.uniform(0.0, 20.0, n)
    xs[: n // 2] = 7.0  # a column sharing one x: far more sweep pairs than one chunk holds
    reach = 1.6
    d2 = (xs[:, None] - xs[None, :]) ** 2 + (ys[:, None] - ys[None, :]) ** 2
    np.fill_diagonal(d2, np.inf)
    first, second = _within_reach(xs, ys, reach)
    pairs = [tuple(sorted(pair)) for pair in zip(first.tolist(), second.tolist())]
    assert len(pairs) == len(set(pairs))  # each pair once
    assert set(pairs) == {(i, j) for i, j in zip(*np.nonzero(d2 < reach * reach)) if i < j}


def test_step_memory_is_linear_in_poses():
    # an N x N float matrix would be 32 MB here
    cfg = make_config(n_subnets=2000, area_width_m=200.0, area_height_m=200.0)
    rng = np.random.default_rng(4)
    poses = place_uniform(cfg, rng)
    for n_steps in (1, 20):  # one step, and one window of 20
        tracemalloc.start()
        try:
            step_mobility(poses, cfg, rng, n_steps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 1024 * 1024
