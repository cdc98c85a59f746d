"""Property tests for module invariants that hold on arbitrary inputs."""

import numpy as np
from hypothesis import given, settings, strategies as st

from alarmmac.analytics import (
    DtmcSpec,
    deadline_probability,
    deadline_probability_table,
    deadline_probability_via_absorption,
)
from alarmmac.learning import clip_gradient_stacked, grad_norm_stacked
from alarmmac.signature import featurize

probabilities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


@given(st.lists(probabilities, min_size=1, max_size=12))
def test_deadline_probabilities_partition_unity(ps):
    spec = DtmcSpec(np.array(ps))
    p_leq, p_gt = deadline_probability(spec)
    assert 0.0 <= p_leq <= 1.0 and 0.0 <= p_gt <= 1.0
    assert abs(p_leq + p_gt - 1.0) < 1e-12
    a_leq, a_gt = deadline_probability_via_absorption(spec)
    assert abs(a_leq - p_leq) < 1e-10 and abs(a_gt - p_gt) < 1e-10


def product_form_loop(ps):
    """The product form with its clamp to [0, 1], as one loop."""
    survive, p_leq = 1.0, 0.0
    for p in ps:
        p_leq += p * survive
        survive *= 1.0 - p
    return min(max(p_leq, 0.0), 1.0), survive


@given(st.lists(probabilities | st.just(-0.0) | st.floats(1.0 - 1e-12, 1.0), min_size=1, max_size=40))
def test_deadline_table_rows_are_the_prefix_chains(ps):
    rows = list(deadline_probability_table(ps))
    assert rows == [deadline_probability(DtmcSpec(np.array(ps[: d + 1]))) for d in range(len(ps))]
    assert rows == [product_form_loop(ps[: d + 1]) for d in range(len(ps))]


@given(
    st.lists(finite, min_size=2, max_size=24),
    st.floats(min_value=1e-3, max_value=100.0, allow_nan=False),
)
def test_clip_bounds_norm_and_preserves_direction(values, beta0):
    grads = np.array(values)[None]  # one network's gradient block
    clipped = grads.copy()
    clip_gradient_stacked(clipped, beta0)  # in place
    norm = grad_norm_stacked(clipped)[0]
    assert norm <= beta0 * (1.0 + 1e-9) + 1e-12
    raw = grads[0]
    out = clipped[0]
    if grad_norm_stacked(grads)[0] <= beta0:
        assert np.array_equal(raw, out)
    elif np.linalg.norm(out) > 0:
        cos = raw @ out / (np.linalg.norm(raw) * np.linalg.norm(out))
        assert cos > 1.0 - 1e-9


@settings(max_examples=60)
@given(
    st.integers(min_value=1, max_value=8),
    st.floats(min_value=0.0, max_value=2 * np.pi, allow_nan=False),
    st.data(),
)
def test_featurize_bounded_and_phase_invariant(m, theta, data):
    parts = data.draw(
        st.lists(
            st.tuples(
                st.floats(min_value=-50, max_value=50, allow_nan=False),
                st.floats(min_value=-50, max_value=50, allow_nan=False),
            ),
            min_size=m,
            max_size=m,
        )
    )
    y = np.array([re + 1j * im for re, im in parts])
    feats = featurize(y)
    assert feats.shape == (m,)
    assert np.all(feats >= 0.0) and np.all(feats < 1.0)
    assert np.allclose(feats, featurize(y * np.exp(1j * theta)), atol=1e-9)
