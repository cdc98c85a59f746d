import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from alarmmac import geometry
from alarmmac.config import ConfigError
from alarmmac.geometry import (
    _MAX_WINDOW_STEPS,
    _PLACEMENT_BLOCK,
    PlacementError,
    _too_close,
    place_uniform,
    step_mobility,
)

from conftest import make_config, pose_array


def test_single_pose_inside_rectangle(rng):
    cfg = make_config(n_subnets=1)
    poses = place_uniform(cfg, rng)
    assert poses.dtype.names == ("x", "y", "heading", "cos", "sin") and poses.shape == (1,)
    # a plain array, whose record dtype still gives its items attribute access
    assert type(poses) is np.ndarray and poses.dtype.type is np.record
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


def test_overdense_placement_infeasible():
    # refused when the config is built: 3000 disks of diameter 1.5 m do not
    # fit in 51.5 x 51.5 m
    with pytest.raises(ConfigError, match="n_subnets"):
        make_config(n_subnets=3000)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(n_subnets=1, min_separation_m=1e9),  # one pose needs no separation
        dict(n_subnets=2, min_separation_m=40.0),  # the corners are 70 m apart
    ],
)
def test_packing_bound_accepts_what_fits(overrides):
    cfg = make_config(**overrides)
    poses = place_uniform(cfg, np.random.default_rng(0))
    if len(poses) == 2:
        assert math.hypot(poses["x"][1] - poses["x"][0], poses["y"][1] - poses["y"][0]) >= 40.0


def test_placement_gives_up_below_the_packing_bound(rng):
    # 45 disks of diameter 1.5 m fit in the bound's 11.5 x 11.5 m, but
    # random sequential placement jams before it places them all
    cfg = make_config(n_subnets=45, area_width_m=10.0, area_height_m=10.0)
    with pytest.raises(PlacementError, match="10000 tries"):
        place_uniform(cfg, rng)


def test_displacement_is_speed_times_slot(rng):
    # far from the walls: no direction change can trigger
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


def test_containment_holds_over_many_slots():
    cfg = make_config(n_subnets=10, speed_mps=25.0)  # fast poses meet the walls often
    rng = np.random.default_rng(7)
    poses = place_uniform(cfg, rng)
    for _ in range(200):
        poses = step_mobility(poses, cfg, rng)
        for x, y in zip(poses["x"].tolist(), poses["y"].tolist()):
            assert 0 <= x <= cfg.area_width_m and 0 <= y <= cfg.area_height_m


# --- scalar references: the per-pose loops the vectorised code must match ---


def headed(poses):
    """(x, y, heading) tuples of Python floats, the state the references keep."""
    return [(x, y, heading) for x, y, heading, _, _ in poses.tolist()]


def assert_same_poses(new, ref):
    """Equal bit for bit in every field: positions, headings and directions."""
    assert new.dtype.names == ref.dtype.names
    assert new.tobytes() == ref.tobytes()


def _reference_place(config, rng, rejected=None):
    """One candidate at a time; appends each pose's count of rejected
    candidates to `rejected`, if given."""
    n, sep = config.n_subnets, config.min_separation_m
    placed = []
    for _ in range(n):
        misses = 0
        while True:
            x = rng.uniform(0.0, config.area_width_m)
            y = rng.uniform(0.0, config.area_height_m)
            if all((x - px) * (x - px) + (y - py) * (y - py) >= sep * sep for px, py in placed):
                placed.append((x, y))
                break
            misses += 1
        if rejected is not None:
            rejected.append(misses)
    headings = rng.uniform(0.0, 2.0 * math.pi, size=n)
    return pose_array((px, py, h) for (px, py), h in zip(placed, headings.tolist()))


def _reference_step(poses, config, rng):
    """One slot over (x, y, heading) tuples of Python floats, pose by pose:
    only the walls turn a pose."""
    step = config.speed_mps * config.slot_ms / 1000.0
    out = []
    for x, y, heading in poses:
        moved = None
        for _ in range(16):
            nx = x + step * math.cos(heading)
            ny = y + step * math.sin(heading)
            if 0.0 <= nx <= config.area_width_m and 0.0 <= ny <= config.area_height_m:
                moved = (nx, ny, heading)
                break
            heading = rng.uniform(0.0, 2.0 * math.pi)
        out.append((x, y, heading) if moved is None else moved)
    return out


def stepped_apart(poses, cfg, rng, n_steps=1):
    """step_mobility's result, checked to be a new array that left `poses` as
    it was: the benchmark and the golden test compare the two."""
    before = poses.copy()
    after = step_mobility(poses, cfg, rng, n_steps)
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


def assert_places_match(cfg, seed):
    """Both placements give equal poses and leave the RNG in the same state."""
    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    assert_same_poses(place_uniform(cfg, rng_new), _reference_place(cfg, rng_ref))
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


def first_block_clashes(cfg, seed):
    """Whether two candidates of the first block lie closer than the
    separation. No pose is placed before that block, so then some candidate
    is rejected by one accepted earlier in the same block."""
    m = min(cfg.n_subnets, _PLACEMENT_BLOCK)
    rng = np.random.default_rng(seed)
    xy = rng.uniform(0.0, (cfg.area_width_m, cfg.area_height_m), size=(m, 2))
    return bool(np.tril(_too_close(xy[:, 0], xy[:, 1], xy[:, 0], xy[:, 1], cfg.min_separation_m**2), -1).any())


CROWD = dict(n_subnets=100, area_width_m=20.0, area_height_m=20.0)


@pytest.mark.parametrize(
    "overrides",
    [
        pytest.param(dict(n_subnets=1), id="1"),
        pytest.param(dict(n_subnets=40), id="40"),
        pytest.param(dict(n_subnets=300), id="300"),
        pytest.param(dict(n_subnets=_PLACEMENT_BLOCK - 1), id="block-1"),
        pytest.param(dict(n_subnets=_PLACEMENT_BLOCK), id="block"),
        pytest.param(dict(n_subnets=_PLACEMENT_BLOCK + 1), id="block+1"),
        pytest.param(dict(n_subnets=300, area_width_m=80.0, area_height_m=30.0), id="rectangle"),
        pytest.param(dict(n_subnets=300, min_separation_m=0.0), id="no-separation"),
        pytest.param(CROWD, id="crowd"),
    ],
)
def test_placement_matches_scalar_reference(overrides):
    cfg = make_config(**overrides)
    for seed in range(4):
        if overrides is CROWD:
            assert first_block_clashes(cfg, seed)
        assert_places_match(cfg, seed)


def test_placement_counts_tries_per_pose_across_blocks(monkeypatch):
    # in the crowd the last poses take many blocks of few candidates each: a
    # limit of the most rejections any pose needs fails, one more places
    cfg = make_config(**CROWD)
    rejected = []
    _reference_place(cfg, np.random.default_rng(0), rejected)
    most = max(rejected)
    assert most > _PLACEMENT_BLOCK
    monkeypatch.setattr(geometry, "_PLACEMENT_TRIES_PER_POSE", most)
    with pytest.raises(PlacementError):
        place_uniform(cfg, np.random.default_rng(0))
    monkeypatch.setattr(geometry, "_PLACEMENT_TRIES_PER_POSE", most + 1)
    assert_places_match(cfg, seed=0)


def separation_exactly(d2):
    """A separation s with s * s == d2, or None."""
    root = math.sqrt(d2)
    return next((s for s in (root, math.nextafter(root, 0.0), math.nextafter(root, math.inf)) if s * s == d2), None)


@pytest.mark.parametrize("later", [1, 2])
def test_pair_exactly_at_the_separation_is_placed(later):
    # two poses; the first candidate is pose 0. Candidate `later` lies exactly
    # at the separation from it: candidate 1 in the same block, or candidate
    # 2 in the next block once candidate 1 (closer) was rejected. At that
    # separation it is placed, and one ulp more rejects it
    for seed in range(1000):
        xy = np.random.default_rng(seed).uniform(0.0, 50.0, size=(3, 2)).tolist()
        d2 = [(x - xy[0][0]) * (x - xy[0][0]) + (y - xy[0][1]) * (y - xy[0][1]) for x, y in xy]
        sep = separation_exactly(d2[later])
        if sep is not None and all(d < d2[later] for d in d2[1:later]):
            break
    wider = math.nextafter(sep, math.inf)
    assert wider * wider > d2[later]
    for separation, placed in ((sep, True), (wider, False)):
        cfg = make_config(n_subnets=2, min_separation_m=separation)
        poses = place_uniform(cfg, np.random.default_rng(seed))
        assert ((poses["x"][1], poses["y"][1]) == tuple(xy[later])) == placed
        assert_places_match(cfg, seed)


def test_placement_memory_is_linear_in_poses():
    # one N x N float matrix would be 32 MB here
    cfg = make_config(n_subnets=2000, area_width_m=200.0, area_height_m=200.0)
    tracemalloc.start()
    try:
        place_uniform(cfg, np.random.default_rng(4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 * 1024


def test_close_pair_keeps_its_first_tries():
    # 1 mm apart and heading at each other: the separation binds placement only
    cfg = make_config(n_subnets=2)
    poses = pose_array([(10.0, 10.0, 0.0), (10.001, 10.0, math.pi)])
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    stepped = stepped_apart(poses, cfg, rng, n_steps=3)
    assert rng.bit_generator.state == state  # nothing drawn
    assert stepped["heading"].tolist() == poses["heading"].tolist()
    assert stepped["x"][0] > stepped["x"][1]  # they passed through each other
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
    if n >= 2:  # a pair closer than the separation, which binds placement only
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


@settings(max_examples=30, deadline=None)
@given(mobility_cases(max_poses=30), st.data())
def test_multi_step_matches_scalar_reference(case, data):
    poses, cfg, seed = case
    window = _MAX_WINDOW_STEPS
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
    # two whole windows and part of a third; at 25 m/s a pose crosses the 20 m area in about 270 slots
    cfg = make_config(n_subnets=60, speed_mps=speed, area_width_m=20.0, area_height_m=20.0)
    poses = place_uniform(cfg, np.random.default_rng(3))
    assert_multi_step_matches(poses, cfg, seed=3, n_steps=2 * _MAX_WINDOW_STEPS + 5)


def test_multi_step_matches_reference_at_dense_rch_density():
    # N = 300 in 50 x 50 m at 2 m/s: a whole window, then one of 3 steps
    cfg = make_config(n_subnets=300, speed_mps=2.0, area_width_m=50.0, area_height_m=50.0)
    poses = place_uniform(cfg, np.random.default_rng(8))
    assert_multi_step_matches(poses, cfg, seed=8, n_steps=_MAX_WINDOW_STEPS + 3)


@pytest.mark.parametrize("n", [1, 2, 300])
@pytest.mark.parametrize("gap", [2, 3, 19, 124, 255, _MAX_WINDOW_STEPS, _MAX_WINDOW_STEPS + 1])
def test_catch_up_over_a_long_gap_matches_one_slot_calls(gap, n):
    # the end points of one window are a reduction over its gap; the
    # property tests draw at most 30 poses, so pin one and two poses and
    # dense_rch's 300, over gaps of a few slots up to one window and one more
    cfg = make_config(n_subnets=n)
    if n == 300:
        poses = place_uniform(cfg, np.random.default_rng(8))
    else:  # a free pose, and one that meets the left wall after about 80 slots
        poses = pose_array([(25.0, 25.0, 0.7), (0.5, 10.0, math.pi)][:n])
    assert_multi_step_matches(poses, cfg, seed=gap, n_steps=gap)


@pytest.mark.parametrize(
    "scenario,seed",
    [
        (dict(n_subnets=300, speed_mps=2.0, area_width_m=50.0, area_height_m=50.0), 8),  # dense_rch
        (dict(n_subnets=150, speed_mps=25.0), 2),  # the placed crowd
    ],
)
def test_read_gaps_match_reference(scenario, seed):
    # reads a few slots apart and one across a window boundary, as the engine makes them
    cfg = make_config(**scenario)
    poses = place_uniform(cfg, np.random.default_rng(seed))
    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    ref = headed(poses)
    for gap in [1, 2, 3, 7, _MAX_WINDOW_STEPS + 5, 2, 1, 3, 7, 1]:
        poses = stepped_apart(poses, cfg, rng_new, gap)
        for _ in range(gap):
            ref = _reference_step(ref, cfg, rng_ref)
        assert_same_poses(poses, pose_array(ref))
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("k", [1, 2, 100])
def test_wall_screen_is_exact_at_the_wall(k):
    # the k-th one-slot move, in the exact check's float adds, ends exactly
    # in the far corner: the pose keeps its first tries; with one ulp less
    # room on either wall it turns in slot k and not before
    heading = 0.3
    poses = pose_array([(10.0, 10.0, heading)])
    default = make_config(n_subnets=1)
    step = default.speed_mps * default.slot_ms / 1000.0
    x, y = 10.0, 10.0
    for _ in range(k):
        x += step * math.cos(heading)
        y += step * math.sin(heading)
    cfg = make_config(n_subnets=1, area_width_m=x, area_height_m=y)
    rng = np.random.default_rng(6)
    state = rng.bit_generator.state
    stepped = stepped_apart(poses, cfg, rng, k)
    assert rng.bit_generator.state == state
    assert (stepped["x"][0], stepped["y"][0], stepped["heading"][0]) == (x, y, heading)
    for tight in (dict(area_width_m=math.nextafter(x, 0.0)), dict(area_height_m=math.nextafter(y, 0.0))):
        cfg = make_config(**{"n_subnets": 1, "area_width_m": x, "area_height_m": y, **tight})
        rng = np.random.default_rng(6)
        stepped_apart(poses, cfg, rng, k - 1)
        assert rng.bit_generator.state == state
        assert stepped_apart(poses, cfg, rng, k)["heading"][0] != heading
        assert_multi_step_matches(poses, cfg, seed=6, n_steps=k)


def test_step_mobility_of_zero_steps_copies_the_poses_without_a_draw():
    poses = pose_array([(10.0, 10.0, 0.3), (40.0, 40.0, 2.0)])
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    assert_same_poses(stepped_apart(poses, make_config(n_subnets=2), rng, 0), poses)
    assert rng.bit_generator.state == state


def test_too_close_decides_exactly_at_the_threshold():
    # a pose exactly at the separation is clear of its neighbour, one ulp
    # inside it is not; the squared distance is dx * dx + dy * dy
    origin = np.zeros(1)
    for x, y in np.random.default_rng(0).uniform(-60.0, 60.0, (5000, 2)).tolist():
        d2 = x * x + y * y
        assert not _too_close(np.array([x]), np.array([y]), origin, origin, d2).any()
        assert _too_close(np.array([x]), np.array([y]), origin, origin, math.nextafter(d2, math.inf)).all()


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
