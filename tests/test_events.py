import copy
import hashlib
import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from alarmmac import events, geometry
from alarmmac.config import ActivationMode, derive_stream
from alarmmac.engine import Simulation
from alarmmac.events import (
    activation_probability,
    active_size_pmf,
    build_active_set,
    empirical_activation,
    maybe_spawn_event,
)

from conftest import CONTENTION, make_config, pose_array
from reference_activation import exact_activated, one_pass_activation


def poses_at(points):
    return pose_array((x, y, 0.0) for x, y in points)


def test_activation_probability_values():
    assert activation_probability(0.0, 0.6) == 1.0
    assert abs(activation_probability(1.0, 0.6) - 0.5488116360940264) < 1e-6
    # decreasing in eta at fixed distance
    vals = [activation_probability(2.0, eta) for eta in (0.1, 1.0, 10.0, 100.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-10


def test_activation_probability_rejects_bad_args():
    with pytest.raises(ValueError):
        activation_probability(-1.0, 0.6)
    with pytest.raises(ValueError):
        activation_probability(1.0, 0.0)


def test_alpha_zero_never_spawns(rng):
    cfg = make_config(alpha=0.0)
    poses = poses_at([(10, 10), (20, 20), (30, 30), (40, 40)])
    assert all(maybe_spawn_event(t, lambda: poses, rng, cfg) is None for t in range(1000))


def test_alpha_one_spawns_every_slot(rng):
    cfg = make_config(alpha=1.0, tx_threshold=0.0, activation_mode=ActivationMode.THRESHOLD_ONLY)
    poses = poses_at([(10, 10), (20, 20), (30, 30), (40, 40)])
    for t in range(100):
        event = maybe_spawn_event(t, lambda: poses, rng, cfg)
        assert event is not None and event.birth_slot == t
        assert 0 <= event.epicenter[0] <= 50 and 0 <= event.epicenter[1] <= 50


def test_spawn_count_binomial(rng):
    cfg = make_config(alpha=0.1)
    poses = poses_at([(25, 25)])
    count = sum(maybe_spawn_event(t, lambda: poses, rng, cfg) is not None for t in range(100_000))
    assert abs(count - 10_000) <= 300


def test_threshold_one_excludes_everyone(rng):
    cfg = make_config(tx_threshold=1.0)
    poses = poses_at([(10, 10), (40, 40)])
    assert build_active_set((25.0, 25.0), poses, rng, cfg) == ()


def test_threshold_zero_small_eta_includes_everyone(rng):
    cfg = make_config(tx_threshold=0.0, eta=1e-9, activation_mode=ActivationMode.THRESHOLD_ONLY)
    poses = poses_at([(10, 10), (20, 20), (30, 30), (40, 40)])
    assert build_active_set((25.0, 25.0), poses, rng, cfg) == (0, 1, 2, 3)


def test_inclusion_frequency_matches_closed_form():
    # threshold gate times Bernoulli(p(d)) detection, checked per pose
    cfg = make_config(
        n_subnets=3, eta=0.6, tx_threshold=0.3,
        activation_mode=ActivationMode.THRESHOLD_AND_BERNOULLI,
    )
    poses = poses_at([(25.0, 25.0), (26.0, 25.0), (28.0, 25.0)])
    epicenter = (25.0, 25.0)
    rng = np.random.default_rng(9)
    trials = 100_000
    hits = np.zeros(3)
    for _ in range(trials):
        for n in build_active_set(epicenter, poses, rng, cfg):
            hits[n] += 1
    d = np.array([0.0, 1.0, 3.0])
    p = np.exp(-0.6 * d)
    expected = p * (p >= 0.3)
    assert np.all(np.abs(hits / trials - expected) < 0.01)


def test_empirical_activation_alpha_zero():
    cfg = make_config(alpha=0.0)
    poses = poses_at([(10, 10), (40, 40)])
    est = empirical_activation(poses, cfg, np.random.default_rng(1), n_trials=10_000)
    assert np.all(est == 0.0)


def test_empirical_activation_threshold_zero_gives_alpha():
    cfg = make_config(alpha=0.1, tx_threshold=0.0, activation_mode=ActivationMode.THRESHOLD_ONLY)
    poses = poses_at([(10, 10), (40, 40)])
    est = empirical_activation(poses, cfg, np.random.default_rng(1), n_trials=10_000)
    assert np.allclose(est, 0.1)


def test_empirical_activation_matches_disk_area_fraction():
    # single pose at the center: activation region is the disk of radius
    # ln(1/threshold)/eta, so the estimate must match its area fraction
    cfg = make_config(
        n_subnets=1, alpha=1.0, eta=0.6, tx_threshold=0.5,
        activation_mode=ActivationMode.THRESHOLD_ONLY,
    )
    poses = poses_at([(25.0, 25.0)])
    radius = math.log(1.0 / 0.5) / 0.6
    assert abs(radius - 1.1552453009332421) < 1e-12
    expected = math.pi * radius**2 / 2500.0
    est = empirical_activation(poses, cfg, np.random.default_rng(4), n_trials=1_000_000)
    assert abs(est[0] - expected) < 2.5e-4


def test_active_sets_shrink_with_eta_under_coupled_draws():
    poses = poses_at([(24, 25), (26, 25), (25, 27), (30, 30), (20, 22)])
    for seed in range(20):
        sets = []
        for eta in (0.05, 0.2, 0.8):
            cfg = make_config(n_subnets=5, eta=eta, tx_threshold=0.05)
            sets.append(set(build_active_set((25.0, 25.0), poses, np.random.default_rng(seed), cfg)))
        assert sets[2] <= sets[1] <= sets[0]


def test_active_set_permutation_covariant(rng):
    cfg = make_config(n_subnets=4, eta=0.1, tx_threshold=0.2,
                      activation_mode=ActivationMode.THRESHOLD_ONLY)
    pts = [(24, 25), (26, 25), (25, 27), (40, 40)]
    base = build_active_set((25.0, 25.0), poses_at(pts), rng, cfg)
    perm = [2, 0, 3, 1]  # pose new_i = old perm[new_i]
    permuted = build_active_set((25.0, 25.0), poses_at([pts[i] for i in perm]), rng, cfg)
    assert sorted(perm[i] for i in permuted) == sorted(base)


@pytest.mark.parametrize("mode", list(ActivationMode))
def test_epicenter_is_two_uniform_draws(mode):
    # one `random(2)` scaled by (W, H) gives the doubles and the state of
    # `uniform(0, W)` then `uniform(0, H)`, on sides that are no power of two
    cfg = make_config(
        n_subnets=3, alpha=0.5, eta=0.05, area_width_m=37.3, area_height_m=50.9, activation_mode=mode
    )
    poses = poses_at([(3.0, 4.0), (20.0, 30.0), (36.0, 50.0)])
    rng, twin = np.random.default_rng(4), np.random.default_rng(4)
    spawned = 0
    for t in range(200):
        event = maybe_spawn_event(t, lambda: poses, rng, cfg)
        if twin.random() >= cfg.alpha:
            assert event is None
        else:
            epicenter = (float(twin.uniform(0.0, cfg.area_width_m)), float(twin.uniform(0.0, cfg.area_height_m)))
            assert event.epicenter == epicenter and type(event.epicenter[0]) is float
            assert event.active_set == build_active_set(epicenter, poses, twin, cfg)
            spawned += 1
        assert rng.bit_generator.state == twin.bit_generator.state
    assert 50 < spawned < 150


def test_event_fields(rng):
    cfg = make_config(alpha=1.0, tx_threshold=0.0, eta=1e-6, activation_mode=ActivationMode.THRESHOLD_ONLY)
    event = maybe_spawn_event(12, lambda: poses_at([(25, 25)]), rng, cfg)
    assert event.birth_slot == 12
    assert event.active_set == (0,)
    assert [f.name for f in fields(event)] == ["epicenter", "birth_slot", "active_set"]


# --- the threshold screen against the exact gate ---------------------------

THRESHOLD_ONLY = ActivationMode.THRESHOLD_ONLY


def screen_config(eta, threshold, extent=50.0):
    """A threshold-only config whose area holds offsets up to `extent`."""
    side = max(50.0, extent)
    return make_config(eta=eta, tx_threshold=threshold, activation_mode=THRESHOLD_ONLY,
                       area_width_m=side, area_height_m=side)


def threshold_radius(eta, threshold):
    """The distance at which exp(-eta * d) equals the threshold, 0 at
    threshold 1 and none at threshold 0."""
    return -math.log(threshold) / eta if threshold > 0.0 else None


def offsets_around(radius, rng, n):
    """n offsets uniform in the square of half-side 2 * radius (1 m if there
    is no radius), and n at distances within 1e-16 to 1e-3 of the radius,
    relative, on either side; every fourth of those lies on an axis."""
    half = 2.0 * radius if radius else 1.0
    dx, dy = rng.uniform(-half, half, (2, n))
    if radius is not None:
        d = radius * (1.0 + rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-16.0, -3.0, n))
        angle = rng.uniform(0.0, 2.0 * math.pi, n)
        angle[::4] = 0.0
        dx = np.concatenate([dx, d * np.cos(angle)])
        dy = np.concatenate([dy, d * np.sin(angle)])
    return dx, dy


@settings(max_examples=400, deadline=None)
@given(
    eta=st.floats(-4.0, 4.0).map(lambda e: 10.0 ** e),
    threshold=st.sampled_from([0.0, 1.0, 1e-300, 5e-324]) | st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_screened_gate_decides_every_offset_as_the_exact_one(eta, threshold, seed):
    rng = np.random.default_rng(seed)
    radius = threshold_radius(eta, threshold)
    dx, dy = offsets_around(radius, rng, 64)
    cfg = screen_config(eta, threshold, extent=float(np.max(np.abs([dx, dy]))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflowing square would warn
        got = events._activated(dx, dy, rng, cfg)
    assert np.array_equal(got, exact_activated(np.hypot(dx, dy), rng, cfg))


@pytest.mark.parametrize("mode", list(ActivationMode))
def test_kernel_matches_the_reference_and_its_draws_in_both_modes(mode):
    cfg = make_config(eta=0.06, tx_threshold=0.3, activation_mode=mode)
    dx, dy = np.random.default_rng(5).uniform(-50.0, 50.0, (2, 10_000))
    rng, ref_rng = np.random.default_rng(6), np.random.default_rng(6)
    assert np.array_equal(events._activated(dx, dy, rng, cfg), exact_activated(np.hypot(dx, dy), ref_rng, cfg))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_offsets_at_the_threshold_radius_take_the_exact_test(monkeypatch):
    calls = []

    def counted(d_m, eta):
        calls.append(np.array(d_m, copy=True))
        return activation_probability(d_m, eta)

    monkeypatch.setattr(events, "activation_probability", counted)
    eta, radius = 0.06, 20.0
    threshold = math.exp(-eta * radius)
    cfg = screen_config(eta, threshold)
    sure_pass, sure_fail = events._screen_radii(eta, threshold, 50.0, 50.0)
    # on the radius, a hair inside and outside it, on both axes
    d = radius * (1.0 + np.array([0.0, 1e-15, -1e-15, 1e-13, -1e-13]))
    dx, dy = np.concatenate([d, np.zeros(5)]), np.concatenate([np.zeros(5), -d])
    assert np.all((sure_pass < dx * dx + dy * dy) & (dx * dx + dy * dy <= sure_fail))
    # two offsets the screen decides, one far inside and one far outside
    dx, dy = np.append(dx, [1.0, 40.0]), np.append(dy, [0.0, 0.0])
    got = events._activated(dx, dy, np.random.default_rng(0), cfg)
    assert len(calls) == 1 and np.array_equal(calls[0], np.hypot(dx[:10], dy[:10]))
    assert np.array_equal(got, exact_activated(np.hypot(dx, dy), None, cfg))
    assert got[-2] and not got[-1]


def test_screen_decides_the_contention_preset_without_the_exact_test(monkeypatch):
    monkeypatch.setattr(events, "activation_probability", lambda *args: pytest.fail("the exact test ran"))
    poses = geometry.place_uniform(CONTENTION, np.random.default_rng(2))
    for seed in range(50):
        build_active_set((float(seed), 25.0), poses, np.random.default_rng(seed), CONTENTION)


def test_screen_radii_edge_cases():
    # the band is everything at a threshold of at most 1e-300, and for an
    # area whose squared diagonal could overflow
    assert events._screen_radii(0.6, 0.0, 50.0, 50.0) is None
    assert events._screen_radii(0.6, 1e-300, 50.0, 50.0) is None
    assert events._screen_radii(0.6, 0.3, 1e200, 50.0) is None
    # no sure-pass radius once threshold * (1 + 1e-9) reaches 1
    sure_pass, sure_fail = events._screen_radii(0.6, 1.0, 50.0, 50.0)
    assert sure_pass == -1.0 and 0.0 < sure_fail < math.inf
    # a squared radius past the floats passes only finite squares for certain
    sure_pass, sure_fail = events._screen_radii(1e-160, 0.5, 50.0, 50.0)
    assert sure_pass == np.finfo(float).max and sure_fail == math.inf
    # a squared radius below 1e-300 is left to the exact test
    assert events._screen_radii(1e160, 0.5, 50.0, 50.0) is None
    # both radii bracket the threshold radius
    sure_pass, sure_fail = events._screen_radii(0.06, 0.3, 50.0, 50.0)
    assert sure_pass < threshold_radius(0.06, 0.3) ** 2 < sure_fail


def test_huge_area_takes_the_exact_test_without_overflow():
    cfg = screen_config(1e-300, 0.5, extent=1e200)
    dx = np.array([1e200, -3e199, 1e-200, 0.0])
    dy = np.array([1e200, 5e199, 0.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = events._activated(dx, dy, None, cfg)
    assert np.array_equal(got, exact_activated(np.hypot(dx, dy), None, cfg))


# empirical_activation at seed 11: 20 000 uniform epicenters over the poses
# placed from the same generator, as computed by the exact gate
PINNED_CONTENTION = [
    0.3601, 0.27605, 0.22615, 0.21605, 0.28935, 0.5018, 0.43595, 0.29455, 0.47795, 0.39025,
    0.2134, 0.4994, 0.49595, 0.33915, 0.24535, 0.461, 0.21415, 0.3701, 0.38555, 0.2673,
]
PINNED_BERNOULLI = [
    0.08755, 0.065925, 0.0593, 0.053775, 0.069575, 0.1162, 0.106725, 0.07675, 0.114525, 0.09575,
    0.0524, 0.1153, 0.11765, 0.087125, 0.063625, 0.11245, 0.054675, 0.09125, 0.096325, 0.0684,
]


@pytest.mark.parametrize(
    "cfg,pinned,final_state",
    [
        (CONTENTION, PINNED_CONTENTION, 329181697986283592794964617179305909338),
        (
            replace(CONTENTION, activation_mode=ActivationMode.THRESHOLD_AND_BERNOULLI, alpha=0.5),
            PINNED_BERNOULLI,
            189634518212540464982052395177003226330,
        ),
    ],
    ids=["contention", "bernoulli"],
)
def test_empirical_activation_pinned(cfg, pinned, final_state):
    rng = np.random.default_rng(11)
    poses = geometry.place_uniform(cfg, rng)
    assert empirical_activation(poses, cfg, rng, n_trials=20_000).tolist() == pinned
    assert rng.bit_generator.state["state"]["state"] == final_state


@pytest.mark.parametrize("mode", list(ActivationMode))
@pytest.mark.parametrize("chunk", [events._ACTIVATION_CHUNK, 10_001])
@pytest.mark.parametrize("chunks,extra", [(1, -1), (1, 0), (1, 1), (2, 1)])
def test_empirical_activation_in_chunks_equals_one_pass(monkeypatch, mode, chunk, chunks, extra):
    # n_trials = chunks * chunk + extra; the smallest trial count is 10 000,
    # so the module's chunk is checked one chunk further on, and a chunk of
    # 10 001 checks the counts themselves
    monkeypatch.setattr(events, "_ACTIVATION_CHUNK", chunk)
    n_trials = chunks * chunk + extra
    if n_trials < 10_000:
        n_trials += chunk
    cfg = replace(CONTENTION, n_subnets=6, activation_mode=mode, alpha=0.5)
    rng = np.random.default_rng(23)
    poses = geometry.place_uniform(cfg, rng)
    reference_rng = copy.deepcopy(rng)
    got = empirical_activation(poses, cfg, rng, n_trials=n_trials)
    assert got.tolist() == one_pass_activation(poses, cfg, reference_rng, n_trials).tolist()
    assert rng.bit_generator.state == reference_rng.bit_generator.state


class TestActiveSizePmf:
    @pytest.mark.parametrize("threshold", [0.3, 0.7])
    def test_one_pose_is_active_with_the_rectangles_distance_cdf(self, threshold):
        # one epicentre per placement: the alarms are independent draws of
        # the distance between two uniform points of the W x H rectangle
        width, height, eta = 50.0, 30.0, 0.06
        r = -math.log(threshold) / eta
        assert r <= min(width, height)
        cdf = (math.pi * width * height * r**2 - 4.0 / 3.0 * (width + height) * r**3 + r**4 / 2.0) / (width * height) ** 2
        config = replace(CONTENTION, n_subnets=1, area_width_m=width, area_height_m=height, eta=eta,
                         tx_threshold=threshold)
        trials = 10_000
        pmf = active_size_pmf(config, trials, 1, seed=11)
        assert pmf.shape == (2,)
        assert abs(pmf[1] - cdf) <= 4.0 * math.sqrt(cdf * (1.0 - cdf) / trials)

    @pytest.mark.parametrize("mode", ["threshold_only", "threshold_and_bernoulli"])
    def test_summed_sizes_are_the_activation_hits_of_the_same_draws(self, mode):
        # 10 000 epicentres end in a partial chunk of the kernel
        config = replace(CONTENTION, activation_mode=mode)
        placements, epicentres, seed = 2, 10_000, 5
        pmf = active_size_pmf(config, placements, epicentres, seed)
        counts = np.rint(pmf * placements * epicentres).astype(np.int64)
        assert counts.sum() == placements * epicentres
        rng_placement, rng = derive_stream(seed, "placement"), derive_stream(seed, "epicentres")
        hits = 0
        for _ in range(placements):
            share = empirical_activation(geometry.place_uniform(config, rng_placement), config, rng, epicentres)
            hits += int(np.rint(share / config.alpha * epicentres).sum())
        assert int(np.arange(config.n_subnets + 1) @ counts) == hits

    def test_first_placement_is_the_runs_and_bernoulli_detection_only_shrinks_the_sets(self):
        gate = active_size_pmf(CONTENTION, 1, 20_000, seed=3)
        detected = active_size_pmf(replace(CONTENTION, activation_mode="threshold_and_bernoulli"), 1, 20_000, seed=3)
        sizes = np.arange(CONTENTION.n_subnets + 1)
        assert sizes @ detected < sizes @ gate
        poses = Simulation(CONTENTION, seed=3).poses
        assert np.array_equal(geometry.place_uniform(CONTENTION, derive_stream(3, "placement")), poses)


# sha256 of `active_size_pmf(CONTENTION, 2, 10_000, 3).tobytes()` in each
# activation mode, pinned before the estimator and `empirical_activation`
# came to share one sweep of the epicentres
PINNED_PMF_SHA256 = {
    ActivationMode.THRESHOLD_ONLY: "9eca171f4118f2693667ca6c39ccfd1f22510b0b098f751ba866a21a59163264",
    ActivationMode.THRESHOLD_AND_BERNOULLI: "1ccd6801881a35f443046a83a1a67c3e86700712d4cb0bd7b093f7542acb8f66",
}


@pytest.mark.parametrize("mode", list(ActivationMode))
def test_active_size_pmf_pinned(mode):
    pmf = active_size_pmf(replace(CONTENTION, activation_mode=mode), 2, 10_000, 3)
    assert pmf.shape == (CONTENTION.n_subnets + 1,)
    assert hashlib.sha256(pmf.tobytes()).hexdigest() == PINNED_PMF_SHA256[mode]
