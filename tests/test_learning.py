import math

import numpy as np
import pytest

from alarmmac import learning, selfcheck
from alarmmac.learning import (
    Mlp,
    MlpStack,
    RmsPropState,
    StackedReplay,
    backward,
    clip_gradient,
    forward,
    grad_norm,
    grads_to_vector,
    init_mlp,
    loss,
    params_to_vector,
    rmsprop_step,
)


def zero_model(layer_sizes):
    return Mlp(
        weights=[np.zeros((o, i)) for i, o in zip(layer_sizes[:-1], layer_sizes[1:])],
        biases=[np.zeros(o) for o in layer_sizes[1:]],
    )


def test_forward_all_zero_parameters():
    model = zero_model([2, 1, 1, 4])
    assert np.array_equal(forward(model, np.array([0.3, 0.7])), np.zeros(4))


def test_forward_dead_unit_leaves_output_biases():
    model = zero_model([1, 1, 2])
    model.weights[0][0, 0] = 1.0
    model.biases[0][0] = -1.0  # pre-activation is -1 for zero input: rectifier emits 0
    model.biases[1][:] = [0.25, -0.75]
    assert np.array_equal(forward(model, np.array([0.0])), [0.25, -0.75])


def test_forward_matches_hand_evaluation():
    # one input, two hidden units, two outputs, worked by hand
    model = zero_model([1, 2, 2])
    model.weights[0][:, 0] = [2.0, -1.0]
    model.biases[0][:] = [0.5, 0.25]
    model.weights[1][:] = [[1.0, 3.0], [-2.0, 0.5]]
    model.biases[1][:] = [0.1, -0.2]
    x = 0.4
    h1 = max(2.0 * x + 0.5, 0.0)  # 1.3
    h2 = max(-1.0 * x + 0.25, 0.0)  # 0.0 (dead)
    out0 = 1.0 * h1 + 3.0 * h2 + 0.1
    out1 = -2.0 * h1 + 0.5 * h2 - 0.2
    got = forward(model, np.array([x]))
    assert abs(got[0] - out0) < 1e-12 and abs(got[1] - out1) < 1e-12


def test_forward_rejects_nonfinite_input():
    model = zero_model([2, 1, 4])
    with pytest.raises(ValueError):
        forward(model, np.array([np.nan, 0.0]))


def test_loss_cases():
    rng = np.random.default_rng(0)
    model = init_mlp([1, 2, 2], rng)
    ctx = rng.random((3, 1))
    actions = np.array([0, 1, 0])
    fitted = learning._forward_cached(model, ctx)[-1][np.arange(3), actions]
    assert loss(model, (ctx, actions, fitted)) == 0.0

    zm = zero_model([1, 1, 2])
    assert loss(zm, (np.zeros((1, 1)), np.array([0]), np.array([1.0]))) == 1.0
    # residuals +1 and -1 average to 1
    batch = (np.zeros((2, 1)), np.array([0, 1]), np.array([1.0, -1.0]))
    assert loss(zm, batch) == 1.0


def test_loss_rejects_empty_batch():
    model = zero_model([1, 1, 2])
    with pytest.raises(ValueError):
        loss(model, (np.zeros((0, 1)), np.zeros(0, dtype=int), np.zeros(0)))


def test_backward_zero_residuals_zero_gradient():
    rng = np.random.default_rng(1)
    model = init_mlp([2, 2, 4], rng)
    ctx = rng.random((4, 2))
    actions = np.array([0, 1, 2, 3])
    rewards = learning._forward_cached(model, ctx)[-1][np.arange(4), actions]
    grads, value = backward(model, (ctx, actions, rewards))
    assert value == 0.0
    assert grad_norm(grads) == 0.0


def test_backward_masks_untaken_actions():
    rng = np.random.default_rng(2)
    model = init_mlp([2, 3, 4], rng)
    batch = (rng.random((1, 2)), np.array([2]), np.array([0.7]))
    grads, _ = backward(model, batch)
    gw_out, gb_out = grads[-1]
    untaken = [0, 1, 3]
    assert np.all(gw_out[untaken] == 0.0) and np.all(gb_out[untaken] == 0.0)
    assert gb_out[2] != 0.0


def test_backward_matches_finite_differences():
    assert selfcheck.worst_gradient_error(np.random.default_rng(3), 20, max_batch=7) < 1e-4


def test_clip_below_threshold_unchanged():
    g = [(np.array([[1.2, -0.9]]), np.array([2.0]))]
    assert grad_norm(g) < 5.0
    clipped = clip_gradient(g, 5.0)
    assert np.array_equal(clipped[0][0], g[0][0]) and np.array_equal(clipped[0][1], g[0][1])


def test_clip_above_threshold_rescales_to_norm():
    g = [(np.array([[6.0, 8.0]]), np.array([0.0]))]  # norm 10
    clipped = clip_gradient(g, 5.0)
    assert abs(grad_norm(clipped) - 5.0) < 1e-12
    assert np.allclose(clipped[0][0], [[3.0, 4.0]])


def test_clip_zero_gradient():
    g = [(np.zeros((2, 2)), np.zeros(2))]
    clipped = clip_gradient(g, 5.0)
    assert grad_norm(clipped) == 0.0


def test_clip_preserves_direction(rng):
    for _ in range(50):
        raw = rng.standard_normal(6) * rng.uniform(0.1, 40.0)
        g = [(raw[:4].reshape(2, 2), raw[4:])]
        clipped = clip_gradient(g, 5.0)
        flat = grads_to_vector(g)
        flat_clipped = grads_to_vector(clipped)
        assert grad_norm(clipped) <= 5.0 + 1e-9
        cos = flat @ flat_clipped / (np.linalg.norm(flat) * np.linalg.norm(flat_clipped))
        assert cos > 1.0 - 1e-12


def test_rmsprop_single_step_closed_form():
    model = zero_model([1, 1, 2])
    state = RmsPropState.for_model(model, decay=0.9, smoothing=1e-8, lr=0.01)
    grads = [
        (np.ones((1, 1)), np.zeros(1)),
        (np.zeros((2, 1)), np.zeros(2)),
    ]
    rmsprop_step(model, state, grads)
    assert abs(state.sq_weights[0][0, 0] - 0.1) < 1e-15
    expected_dw = -0.01 / (math.sqrt(0.1) + 1e-8)
    assert abs(model.weights[0][0, 0] - expected_dw) < 1e-6
    assert abs(expected_dw + 0.0316228) < 1e-6


def test_rmsprop_zero_gradient_decays_state_only():
    model = zero_model([1, 1, 2])
    state = RmsPropState.for_model(model, decay=0.9)
    state.sq_weights[0][:] = 1.0
    before = params_to_vector(model).copy()
    rmsprop_step(model, state, [(np.zeros((1, 1)), np.zeros(1)), (np.zeros((2, 1)), np.zeros(2))])
    assert np.array_equal(params_to_vector(model), before)
    assert state.sq_weights[0][0, 0] == 0.9


def test_rmsprop_repeated_identical_steps_shrink():
    model = zero_model([1, 1, 2])
    state = RmsPropState.for_model(model)
    grads = [(np.ones((1, 1)), np.zeros(1)), (np.zeros((2, 1)), np.zeros(2))]
    rmsprop_step(model, state, grads)
    first = abs(model.weights[0][0, 0])
    w_before = model.weights[0][0, 0]
    rmsprop_step(model, state, grads)
    second = abs(model.weights[0][0, 0] - w_before)
    assert second < first


def stored_rewards(mem, agent, rng):
    """The agent's stored rewards, sorted: a full sample without replacement."""
    size = int(mem.size[agent])
    return sorted(mem.sample(np.array([agent]), size, rng)[2][0]) if size else []


def test_replay_fifo_eviction(rng):
    mem = StackedReplay(1, 2, n_channels=1)
    for i, tag in enumerate([10.0, 20.0, 30.0]):
        mem.push(np.array([0]), np.array([[float(i)]]), np.array([i]), np.array([tag]))
    assert stored_rewards(mem, 0, rng) == [20.0, 30.0]
    assert mem.size[0] == 2


def test_replay_agents_keep_separate_rings(rng):
    mem = StackedReplay(3, 2, n_channels=1)
    mem.push(np.array([2, 0]), np.array([[1.0], [2.0]]), np.array([1, 2]), np.array([1.0, 2.0]))
    mem.push(np.array([2]), np.array([[3.0]]), np.array([3]), np.array([3.0]))
    mem.push(np.array([2]), np.array([[4.0]]), np.array([4]), np.array([4.0]))
    assert list(mem.size) == [1, 0, 2]
    assert stored_rewards(mem, 0, rng) == [2.0]
    assert stored_rewards(mem, 2, rng) == [3.0, 4.0]


def test_replay_full_sample_is_permutation(rng):
    mem = StackedReplay(1, 8, n_channels=1)
    for i in range(8):
        mem.push(np.array([0]), np.array([[float(i)]]), np.array([i]), np.array([float(i)]))
    _, actions, _ = mem.sample(np.array([0]), 8, rng)
    assert sorted(actions[0]) == list(range(8))


def test_replay_small_memory_samples_with_replacement(rng):
    mem = StackedReplay(1, 100, n_channels=1)
    mem.push(np.array([0]), np.array([[1.0]]), np.array([1]), np.array([1.0]))
    _, actions, _ = mem.sample(np.array([0]), 4, rng)
    assert list(actions[0]) == [1, 1, 1, 1]


def test_replay_sampling_uniform(rng):
    mem = StackedReplay(1, 10, n_channels=1)
    for i in range(10):
        mem.push(np.array([0]), np.array([[float(i)]]), np.array([i]), np.array([0.0]))
    draws = 100_000
    _, actions, _ = mem.sample(np.array([0]), draws, rng)  # with replacement: draws > size
    counts = np.bincount(actions[0], minlength=10)
    assert np.all(np.abs(counts / draws - 0.1) < 0.01)


def test_replay_sample_draws_as_per_agent_choice():
    # memories that hold fewer than B tuples sample with replacement, and a
    # run of them draws in one call; the others draw without replacement
    sizes, b_size = [2, 9, 3, 3, 12], 4
    mem = StackedReplay(len(sizes), 12, n_channels=1)
    for n, size in enumerate(sizes):
        for i in range(size):  # the reward is the tuple's ring index
            mem.push(np.array([n]), np.array([[0.0]]), np.array([0]), np.array([float(i)]))
    rng, reference = np.random.default_rng(5), np.random.default_rng(5)
    _, _, drawn = mem.sample(np.arange(len(sizes)), b_size, rng)
    expected = [reference.choice(size, size=b_size, replace=size < b_size) for size in sizes]
    assert np.array_equal(drawn, np.array(expected, dtype=float))
    assert rng.bit_generator.state == reference.bit_generator.state


def test_replay_empty_sample_rejected(rng):
    mem = StackedReplay(2, 4, n_channels=2)
    mem.push(np.array([0]), np.zeros((1, 2)), np.array([0]), np.array([0.0]))
    with pytest.raises(ValueError):
        mem.sample(np.array([0, 1]), 2, rng)


def test_stacked_kernels_equal_single_model_kernels(rng):
    # a wide network on a short minibatch, and the default shape on the
    # default minibatch, where numpy sums the hidden deltas pairwise
    for sizes, b_size in (([3, 4, 4, 8], 9), ([3, 1, 1, 8], 240)):
        models = [init_mlp(sizes, rng) for _ in range(5)]
        stack = MlpStack.of(models)
        contexts = rng.random((5, 3))
        values = learning.forward_stacked(stack, contexts)
        scales = np.array([[0.1], [50.0], [1.0], [500.0], [0.0]])  # some networks' gradients exceed the clip
        batch = (
            rng.random((5, b_size, 3)),
            rng.integers(0, 8, (5, b_size)),
            rng.standard_normal((5, b_size)) * scales,
        )
        grads, losses = learning.backward_stacked(stack, batch)
        norms = learning.grad_norm_stacked(grads)
        clipped = learning.clip_gradient_stacked(grads, 5.0)
        opt = learning.RmsPropStack.for_stack(stack, decay=0.9, smoothing=1e-8, lr=0.01)
        opt.lr[:] = [0.01, 0.02, 0.005, 0.01, 0.03]
        opt.sq[:] = rng.random(opt.sq.shape)
        sq_before = opt.sq.copy()
        learning.rmsprop_step_stacked(stack, opt, clipped)
        for k, model in enumerate(models):
            assert np.array_equal(values[k], forward(model, contexts[k]))
            single, single_loss = backward(model, tuple(part[k] for part in batch))
            assert losses[k] == single_loss and norms[k] == grad_norm(single)
            assert np.array_equal(grads.params[k], grads_to_vector(single))
            single_clipped = clip_gradient(single, 5.0)
            assert np.array_equal(clipped.params[k], grads_to_vector(single_clipped))
            state = RmsPropState.for_model(model, decay=0.9, smoothing=1e-8, lr=opt.lr[k])
            sq = MlpStack(sq_before, sizes).model(k)
            state.sq_weights, state.sq_biases = sq.weights, sq.biases
            rmsprop_step(model, state, single_clipped)
            assert np.array_equal(stack.params[k], params_to_vector(model))
            assert np.array_equal(opt.sq[k], grads_to_vector(list(zip(state.sq_weights, state.sq_biases))))
        assert np.any(norms > 5.0) and np.any(norms < 5.0)  # the clip fires for some networks only


def test_stack_is_one_parameter_block(rng):
    sizes = [3, 2, 1, 8]
    models = [init_mlp(sizes, rng) for _ in range(4)]
    stack = MlpStack.of(models)
    assert stack.params.shape == (4, (3 * 2 + 2) + (2 * 1 + 1) + (1 * 8 + 8))
    for k, model in enumerate(models):
        assert np.array_equal(stack.params[k], params_to_vector(model))

    # writes through a network's view and through the layer views land in the block
    stack.model(2).weights[1][:] = 7.0
    stack.biases[0][3] = -1.0
    stack.weights[2][1, 4, 0] = 5.0
    assert np.all(stack.params[2, 8:10] == 7.0)  # layer 1's weights follow layer 0's 3*2 + 2
    assert np.all(stack.params[3, 6:8] == -1.0)
    assert stack.params[1, 11 + 4] == 5.0
    assert np.array_equal(stack.model(3).biases[0], [-1.0, -1.0])

    idx = np.array([3, 0])
    part = stack.rows(idx)
    assert np.array_equal(part.params, stack.params[idx])
    part.weights[0][:] = 0.25  # a copy: the stack does not see it yet
    assert not np.any(stack.weights[0][idx] == 0.25)
    before = stack.params.copy()
    stack.put(idx, part)
    assert np.array_equal(stack.params[idx], part.params)
    assert np.all(stack.weights[0][idx] == 0.25)
    assert np.array_equal(stack.params[[1, 2]], before[[1, 2]])

    with pytest.raises(ValueError):
        MlpStack(np.zeros((2, 5)), sizes)


def test_output_bias_gradient_equals_delta_sum(rng):
    # bincount adds each (network, action) bin in minibatch order, as the
    # sum over the minibatch axis of the zero-filled delta does; array_equal
    # compares every bit but the sign of a zero
    for _ in range(40):
        n_nets, b_size, m = int(rng.integers(1, 7)), int(rng.integers(1, 300)), int(rng.integers(1, 4))
        sizes = [m, int(rng.integers(1, 4)), 1 << m]
        stack = MlpStack.of([init_mlp(sizes, rng) for _ in range(n_nets)])
        actions = rng.integers(0, max(1, (1 << m) - 1), (n_nets, b_size))  # the last action is never taken
        batch = (rng.random((n_nets, b_size, m)), actions, rng.standard_normal((n_nets, b_size)) * 10.0)
        grads, _ = learning.backward_stacked(stack, batch)

        values = learning._forward_stacked_cached(stack, batch[0])[-1]
        nets, rows = np.meshgrid(np.arange(n_nets), np.arange(b_size), indexing="ij")
        delta = np.zeros_like(values)
        delta[nets, rows, actions] = 2.0 * (values[nets, rows, actions] - batch[2]) / b_size
        assert np.array_equal(grads.biases[-1], delta.sum(axis=1))
        assert np.all(grads.biases[-1][:, -1] == 0.0)


def test_stacked_forward_rejects_nonfinite_input():
    stack = MlpStack.of([zero_model([2, 1, 4])])
    with pytest.raises(ValueError):
        learning.forward_stacked(stack, np.array([[np.nan, 0.0]]))


def test_stacked_backward_matches_finite_differences():
    rng = np.random.default_rng(8)
    for _ in range(10):
        sizes = [2, int(rng.integers(1, 5)), 4]
        models = [init_mlp(sizes, rng) for _ in range(3)]
        batch = (rng.random((3, 5, 2)), rng.integers(0, 4, (3, 5)), rng.standard_normal((3, 5)))
        grads, _ = learning.backward_stacked(MlpStack.of(models), batch)
        for k, model in enumerate(models):
            analytic = grads.params[k]
            numeric = selfcheck.finite_difference_gradient(model, tuple(part[k] for part in batch))
            assert selfcheck.relative_error(analytic, numeric) < 1e-4


def test_training_reduces_loss_on_fixed_batch():
    rng = np.random.default_rng(5)
    model = init_mlp([2, 4, 4], rng)
    state = RmsPropState.for_model(model, lr=0.01)
    batch = (rng.random((16, 2)), rng.integers(0, 4, 16), rng.uniform(-1, 1, 16))
    initial = loss(model, batch)
    for _ in range(200):
        grads, _ = backward(model, batch)
        rmsprop_step(model, state, clip_gradient(grads, 5.0))
    assert loss(model, batch) < initial
