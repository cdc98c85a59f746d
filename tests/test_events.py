import math

import numpy as np
import pytest

from alarmmac.config import ActivationMode
from alarmmac.events import (
    activation_probability,
    build_active_set,
    empirical_activation,
    maybe_spawn_event,
)

from conftest import make_config, pose_array


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


@pytest.mark.parametrize("n_trials", [20000.0, True, 9_999])
def test_empirical_activation_refuses_a_bad_trial_count_before_any_draw(n_trials):
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="^n_trials: "):
        empirical_activation(poses_at([(10, 10)]), make_config(), rng, n_trials=n_trials)
    assert rng.bit_generator.state == state


def test_empirical_activation_takes_a_numpy_integer_trial_count():
    poses, cfg = poses_at([(10, 10), (40, 40)]), make_config()
    est = empirical_activation(poses, cfg, np.random.default_rng(1), n_trials=np.int64(10_000))
    assert np.array_equal(est, empirical_activation(poses, cfg, np.random.default_rng(1), n_trials=10_000))


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


def test_event_fields(rng):
    cfg = make_config(alpha=1.0, tx_threshold=0.0, eta=1e-6, activation_mode=ActivationMode.THRESHOLD_ONLY)
    event = maybe_spawn_event(12, lambda: poses_at([(25, 25)]), rng, cfg)
    assert event.birth_slot == 12
    assert event.active_set == (0,)
    assert event.attempts == 0
