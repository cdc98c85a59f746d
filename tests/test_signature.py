import numpy as np
import pytest

from alarmmac.channel import complex_gaussian
from alarmmac.signature import aggregate_pilots, broadcast_cs, contention_signatures, featurize


def ones(k, m):
    return np.ones((k, m), dtype=complex)


def test_empty_active_set_leaves_noise_floor(rng):
    noise = complex_gaussian(rng, (2,))
    assert np.array_equal(aggregate_pilots(np.zeros((0, 2)), snr=4.0, noise=noise), noise)


def test_single_unit_link_no_noise(rng):
    # the noiseless aggregate is y minus the noise
    noise = complex_gaussian(rng, (3,))
    y = aggregate_pilots(ones(1, 3), snr=9.0, noise=noise)
    assert np.array_equal(y, 3.0 + noise)


def test_two_links_sum_coherently(rng):
    noise = complex_gaussian(rng, (2,))
    y = aggregate_pilots(ones(2, 2), snr=4.0, noise=noise)
    assert np.array_equal(y, 4.0 + noise)  # 2 links * sqrt(4)


def test_broadcast_of_zero_is_zero(rng):
    noise = complex_gaussian(rng, (3, 2))
    out = broadcast_cs(np.zeros(2, dtype=complex), ones(3, 2), snr=5.0, noise=noise)
    assert np.array_equal(out, noise)


def test_broadcast_identity_gain(rng):
    y = np.array([1.0 + 2.0j, -0.5j])
    noise = complex_gaussian(rng, (2, 2))
    out = broadcast_cs(y, ones(2, 2), snr=1.0, noise=noise)
    assert np.array_equal(out, np.stack([y, y]) + noise)


@pytest.mark.parametrize("k", [1, 2, 7])
def test_one_noise_draw_gives_both_directions_draws(k):
    # the (k + 1, M) draw holds the values of an uplink (M,) draw followed
    # by a downlink (k, M) draw, and leaves the generator where they leave it
    gains = complex_gaussian(np.random.default_rng(0), (k, 3))
    rng, twin = np.random.default_rng(5), np.random.default_rng(5)
    cs = contention_signatures(gains, 4.0, rng)
    y = aggregate_pilots(gains, 4.0, complex_gaussian(twin, (3,)))
    assert np.array_equal(cs, broadcast_cs(y, gains, 4.0, complex_gaussian(twin, (k, 3))))
    assert rng.bit_generator.state == twin.bit_generator.state


def test_broadcast_received_power(rng):
    y = np.array([2.0 + 0.0j, 1.0 - 1.0j])
    h = np.array([[0.5 + 0.5j, 1.5 + 0.0j]])
    snr = 3.0
    powers = np.zeros(2)
    trials = 100_000
    for _ in range(trials):
        out = broadcast_cs(y, h, snr=snr, noise=complex_gaussian(rng, h.shape))
        powers += np.abs(out[0]) ** 2
    expected = snr * np.abs(h[0]) ** 2 * np.abs(y) ** 2 + 1.0
    assert np.all(np.abs(powers / trials - expected) / expected < 0.02)


def test_featurize_zero_signature():
    assert np.array_equal(featurize(np.zeros(4, dtype=complex)), np.zeros(4))


def test_featurize_stated_normalizer():
    feats = featurize(np.array([3.0 + 4.0j, 0.0]))
    assert np.allclose(feats, [5.0 / 6.0, 0.0])


def test_featurize_phase_invariant(rng):
    y = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    rotated = y * np.exp(1j * 0.7)
    assert np.allclose(featurize(y), featurize(rotated))


def test_featurize_bounded_and_length_preserving(rng):
    for m in (1, 2, 5, 8):
        y = 10.0 * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
        feats = featurize(y)
        assert feats.shape == (m,)
        assert np.all(feats >= 0.0) and np.all(feats < 1.0)


def test_featurize_batch_shape(rng):
    y = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
    feats = featurize(y)
    assert feats.shape == (7, 3)
    assert np.allclose(feats[2], featurize(y[2]))


def test_extra_link_does_not_reduce_expected_power(rng):
    # coupled comparison: same noise draws, one additional active link
    base_gain = np.array([[1.0 + 0.0j, 0.5 + 0.5j]])
    extra = rng.standard_normal((20_000, 2)) + 1j * rng.standard_normal((20_000, 2))
    p_one, p_two = 0.0, 0.0
    for i in range(20_000):
        noise = complex_gaussian(rng, (2,))
        y1 = aggregate_pilots(base_gain, 4.0, noise)
        both = np.vstack([base_gain, extra[i][None, :]])
        y2 = aggregate_pilots(both, 4.0, noise)
        p_one += float((np.abs(y1) ** 2).sum())
        p_two += float((np.abs(y2) ** 2).sum())
    assert p_two >= p_one


def test_shape_mismatch_rejected(rng):
    with pytest.raises(ValueError):
        broadcast_cs(np.zeros(3, dtype=complex), ones(2, 2), 1.0, complex_gaussian(rng, (2, 2)))
