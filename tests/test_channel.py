import copy
import math

import numpy as np

from alarmmac.channel import (
    attenuation,
    complex_gaussian,
    correlation_factor,
    draw_los,
    los_probability,
    pathloss_coefficients,
    pathloss_db,
    shadowing_db,
)
from alarmmac.engine import Simulation

from conftest import make_config


def one_link_pathloss(d, los, cfg):
    """pathloss_db of one link at distance d under line-of-sight state los."""
    return pathloss_db(np.array([d]), pathloss_coefficients(np.array([los]), cfg))[0]


def test_pathloss_at_one_meter_is_offset_only():
    cfg = make_config()
    for los, (a, b, g) in ((True, cfg.pathloss_abg_los), (False, cfg.pathloss_abg_nlos)):
        expected = b + 10.0 * g * math.log10(cfg.carrier_ghz)
        assert abs(one_link_pathloss(1.0, los, cfg) - expected) < 1e-12
        # distances below 1 m clamp to the 1 m value
        assert one_link_pathloss(0.2, los, cfg) == one_link_pathloss(1.0, los, cfg)


def test_pathloss_coefficients_select_per_link():
    cfg = make_config(carrier_ghz=6.0)
    coefficients = pathloss_coefficients(np.array([True, False, True]), cfg)
    abg = (cfg.pathloss_abg_los, cfg.pathloss_abg_nlos)
    los, nlos = ([10.0 * a, b + 10.0 * g * math.log10(6.0)] for a, b, g in abg)
    assert np.array_equal(coefficients, np.column_stack((los, nlos, los)))


def test_pathloss_decade_step_is_ten_a():
    cfg = make_config()
    a_nlos = cfg.pathloss_abg_nlos[0]
    delta = one_link_pathloss(100.0, False, cfg) - one_link_pathloss(10.0, False, cfg)
    assert abs(delta - 10.0 * a_nlos) < 1e-12


def test_pathloss_default_nlos_spreadsheet_value():
    # 10 * 2.55 * log10(25) + 33 + 10 * 2.0 * log10(6), evaluated independently
    cfg = make_config(carrier_ghz=6.0)
    expected = 10.0 * 2.55 * math.log10(25.0) + 33.0 + 10.0 * 2.0 * math.log10(6.0)
    assert abs(expected - 84.21049522880984) < 1e-10
    assert abs(one_link_pathloss(25.0, False, cfg) - expected) < 1e-12


def test_pathloss_monotone_beyond_one_meter():
    cfg = make_config()
    grid = np.linspace(1.0, 80.0, 200)
    vals = pathloss_db(grid, pathloss_coefficients(np.zeros(len(grid), dtype=bool), cfg))
    assert np.all(np.diff(vals) >= 0.0)


def test_correlation_factor_reproduces_the_covariance():
    cfg = make_config()
    pts = np.random.default_rng(3).uniform(0.0, 3.0 * cfg.shadow_corr_distance_m, (12, 2))
    factor = correlation_factor(pts, cfg.shadow_corr_distance_m)
    dist = np.hypot(*(pts[:, None, :] - pts[None, :, :]).transpose(2, 0, 1))
    # the factorised matrix carries a 1e-12 jitter on its diagonal
    covariance = np.exp(-dist / cfg.shadow_corr_distance_m) + 1e-12 * np.eye(len(pts))
    assert np.allclose(factor @ factor.T, covariance, rtol=0.0, atol=1e-12)
    assert np.array_equal(factor, np.tril(factor))


def test_field_is_the_factor_times_the_stream_normals(rng):
    cfg = make_config()
    pts = np.array([[0.0, 0.0], [cfg.shadow_corr_distance_m, 0.0], [4.0, 7.0]])
    normals = copy.deepcopy(rng).standard_normal(3)
    # each link's standard deviation follows its line of sight
    shadow = shadowing_db(pts, np.array([True, False, True]), rng, cfg)
    sigma = np.array([cfg.shadow_sigma_los_db, cfg.shadow_sigma_nlos_db, cfg.shadow_sigma_los_db])
    assert cfg.shadow_sigma_los_db != cfg.shadow_sigma_nlos_db
    assert np.array_equal(shadow, sigma * (correlation_factor(pts, cfg.shadow_corr_distance_m) @ normals))


def test_shadowing_correlation_at_zero_distance(rng):
    cfg = make_config()
    pts, los = np.array([[3.0, 4.0], [3.0, 4.0]]), np.array([True, True])
    for _ in range(1_000):
        draw = shadowing_db(pts, los, rng, cfg)
        assert abs(draw[0] - draw[1]) < 1e-5 * cfg.shadow_sigma_los_db


def test_attenuation_powers_of_ten():
    assert np.array_equal(attenuation(np.array([20.0, 0.0]), np.zeros(2)), [0.01, 1.0])


def test_fading_unit_mean_power(rng):
    k = complex_gaussian(rng, (100_000,))
    assert abs(np.mean(np.abs(k) ** 2) - 1.0) < 0.05


def gain_world(**overrides):
    return Simulation(make_config(**overrides), seed=9)


def expected_attenuation(sim, n):
    """attenuation(pathloss_db(d, coefficients), shadow) of agent n's link to
    the controller, over the snapshot's reference attenuation; the
    coefficients are derived here from the snapshot's line of sight."""
    contexts = sim.contexts
    cx, cy = contexts.cap_xy
    d = np.hypot(sim.poses[n].x - cx, sim.poses[n].y - cy)
    coefficients = pathloss_coefficients(contexts.los[[n]], sim.config)
    return attenuation(pathloss_db(d, coefficients), contexts.shadow_db[[n]])[0] / contexts.reference_amp


def link_amplitudes(sim):
    """The amplitude row of every link at the current poses, which a round's `_link_gains` gathers from."""
    return sim.contexts._amplitudes(sim.poses["x"], sim.poses["y"])


def test_link_gains_compose_exactly():
    sim = gain_world(n_subnets=6, n_channels=3)
    active = np.array([0, 2, 5], dtype=np.intp)
    kappa = complex_gaussian(copy.deepcopy(sim.contexts.rng_fading), (len(active), 3))
    gains = sim.contexts._link_gains(link_amplitudes(sim), active)
    assert gains.shape == (len(active), 3)
    for row, n in enumerate(active):
        assert np.array_equal(gains[row], kappa[row] * expected_attenuation(sim, n))


def test_link_gains_mean_power_matches_attenuation():
    # zero shadowing: E[|gain|^2] = (attenuation(PL, 0) / reference)^2 on every link
    sim = gain_world(shadow_sigma_los_db=0.0, shadow_sigma_nlos_db=0.0)
    active = np.arange(sim.config.n_subnets)
    expected = np.array([expected_attenuation(sim, n) for n in active]) ** 2
    assert np.all(sim.contexts.shadow_db == 0.0)
    amplitudes = link_amplitudes(sim)
    powers = [np.abs(sim.contexts._link_gains(amplitudes, active)) ** 2 / expected[:, None] for _ in range(5_000)]
    assert abs(np.mean(powers) - 1.0) < 0.02


def test_los_probability_shape():
    cfg = make_config()
    assert los_probability(0.0, cfg) == 1.0
    assert 0.0 < los_probability(30.0, cfg) < los_probability(3.0, cfg) < 1.0


def test_draw_los_takes_one_uniform_per_distance(rng):
    cfg = make_config()
    d = np.array([0.0, 3.0, 30.0, 300.0])
    uniforms = copy.deepcopy(rng).random(4)
    assert np.array_equal(draw_los(d, rng, cfg), uniforms < los_probability(d, cfg))
