"""Tiny fully connected networks with exact backprop, RMSProp, and replay.

Each network maps a length-M context to one value per transmission pattern
(2**M outputs), with rectifier hidden layers and an identity output layer.
Training regresses the value of the action actually taken onto its observed
reward:

    J(w) = (1/B) * sum_j (r_j - V[j, a_j])**2

so gradients flow only through taken-action outputs. Updates are RMSProp
steps on the globally norm-clipped gradient.

Every kernel works on a stack of K networks of one shape, network k on its
own minibatch, so one call trains all active agents:

- A stack is one (K, P) float64 block, taken with its layer sizes. Row k
  holds network k's parameters layer by layer, each layer's weights
  row-major and then its biases: `n_params` gives P, and `layer_views` any
  block's per-layer weight and bias views. A gradient and the RMSProp
  averages are blocks of the same layout, and the clip and the RMSProp step
  change theirs in place.
- The clipping norm is one sum of squares over each network's row.
- The backward pass computes only the taken action's output of each
  minibatch row: the hidden layers run forward, and the row's value is the
  product of its last hidden activations with the taken action's output
  weights, plus that action's bias. So only taken actions carry an
  output-layer gradient. Its bias gradient, and its weight gradient for
  each hidden unit, is one `np.bincount` over (network, action) bins,
  which adds each bin's terms in minibatch order; an untaken action's
  rows are exact zeros.

`selfcheck` checks the gradient against finite differences and the clip
against its bound. The tests keep a one-network reference that computes
all 2**M outputs: the forward pass and the RMSProp step agree with it bit
for bit; the gradient, loss, norm and clip agree to a few float64 ulps,
as they add their terms in another order.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from .config import checked_int

# per layer, (weights, biases). Nothing calls grad_norm: bench/workloads.py binds it at import for a
# clipping hook keyed on `learning.clip_gradient`, a name that no longer exists (ROADMAP direction 1b)
Grads = list[tuple[np.ndarray, np.ndarray]]


def grad_norm(grads: Grads) -> float:
    total = 0.0
    for gw, gb in grads:
        total += float((gw**2).sum() + (gb**2).sum())
    return float(np.sqrt(total))


# float contexts (K, B, M), int actions (K, B) and float rewards (K, B)
StackedBatch = tuple[np.ndarray, np.ndarray, np.ndarray]


@lru_cache(maxsize=None, typed=True)
def _layout(*layer_sizes: int) -> tuple[tuple[int, int, int, int, int], ...]:
    """Per layer: (fan_in, fan_out, first weight column, first bias column,
    end column) in a network's row of a parameter block. Each layer size is
    an integer >= 1, numpy's included, or a ValueError names it. The cache
    keys each size with its type, so a size that equals an integer without
    being one (2.0, True) misses an integer's entry and is refused here."""
    sizes = [checked_int(size, f"layer_sizes[{i}]", minimum=1) for i, size in enumerate(layer_sizes)]
    layers, pos = [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        at_bias = pos + fan_out * fan_in
        layers.append((fan_in, fan_out, pos, at_bias, at_bias + fan_out))
        pos = at_bias + fan_out
    return tuple(layers)


def layer_views(block: np.ndarray, layer_sizes: Sequence[int]) -> Grads:
    """Per layer, the weight view (K, fan_out, fan_in) and the bias view
    (K, fan_out) of a (K, P) block laid out for `layer_sizes`: parameters, a
    gradient or RMSProp averages alike."""
    layout = _layout(*layer_sizes)
    if block.shape[1] != layout[-1][-1]:
        raise ValueError("parameter block width does not match layer sizes")
    k = block.shape[0]
    return [
        (block[:, at_w:at_b].reshape(k, fan_out, fan_in), block[:, at_b:end])
        for fan_in, fan_out, at_w, at_b, end in layout
    ]


def n_params(layer_sizes: Sequence[int]) -> int:
    """P, the width of a network's row: each layer's weights and biases."""
    return _layout(*layer_sizes)[-1][-1]


def init_params(layer_sizes: Sequence[int], n: int, rng: np.random.Generator) -> np.ndarray:
    """The (n, P) block of n networks, each layer uniform in
    [-1/sqrt(fan_in), 1/sqrt(fan_in)], drawn network by network and layer by
    layer, each layer's weights row-major and then its biases: the block's C
    order. So one ``rng.uniform(-bound, bound, size=(n, P))`` call, with each
    column's bound, makes the draws, and computes the values with the
    expression ``low + (high - low) * next_double``, of one call per layer's
    weights and one per its biases. `n` is an integer >= 1, or a ValueError
    names it."""
    n = checked_int(n, "n", minimum=1)
    bound = np.empty((1, n_params(layer_sizes)))
    for w, b in layer_views(bound, layer_sizes):
        w[...] = b[...] = 1.0 / np.sqrt(w.shape[2])
    return rng.uniform(-bound[0], bound[0], size=(n, bound.shape[1]))


def _contract(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`a @ b` per network. Over a width-1 axis the one-term sum is the
    broadcast product, which skips matmul's fixed cost."""
    return a * b if a.shape[-1] == 1 else np.matmul(a, b)


def _hidden_stacked(layers: Grads, x: np.ndarray) -> list[np.ndarray]:
    """Activations of the input and of each hidden layer for one batch
    (K, B, M) per network."""
    acts = [x]
    for w, b in layers[:-1]:
        h = _contract(acts[-1], w.transpose(0, 2, 1))
        h += b[:, None, :]
        np.maximum(h, 0.0, out=h)
        acts.append(h)
    return acts


def _outputs_stacked(layers: Grads, x: np.ndarray) -> np.ndarray:
    """All 2**M outputs for one batch (K, B, M) per network: (K, B, 2**M)."""
    w, b = layers[-1]
    out = _contract(_hidden_stacked(layers, x)[-1], w.transpose(0, 2, 1))
    out += b[:, None, :]
    return out


def forward_stacked(params: np.ndarray, layer_sizes: Sequence[int], contexts: np.ndarray) -> np.ndarray:
    """Action values of network k for context k: (K, M) -> (K, 2**M)."""
    x = np.asarray(contexts, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("context must be finite")
    return _outputs_stacked(layer_views(params, layer_sizes), x[:, None, :])[:, 0]


def backward_stacked(
    params: np.ndarray, layer_sizes: Sequence[int], batch: StackedBatch
) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradient of network k's taken-action squared loss on minibatch
    k; returns (grads, per-network loss).

    The gradient is a (K, P) block laid out like `params`. Only the taken
    action's output is computed for each row.
    """
    contexts, actions, rewards = batch
    n_nets, b_size = rewards.shape
    if b_size == 0:
        raise ValueError("empty minibatch")
    layers = layer_views(params, layer_sizes)
    acts = _hidden_stacked(layers, contexts)
    hidden = acts[-1]  # (K, B, H)
    n_hidden, n_out = layer_sizes[-2:]
    w_out, b_out = layers[-1]
    # each row's (network, taken action) bin, the flat index of its output
    bins = np.arange(n_nets)[:, None] * n_out + actions
    w_taken = w_out.reshape(n_nets * n_out, n_hidden).take(bins, axis=0)  # (K, B, H)
    residual = np.einsum("kbh,kbh->kb", hidden, w_taken) + b_out.take(bins) - rewards
    d_taken = 2.0 * residual / b_size

    grads = np.empty(params.shape)
    g_layers = layer_views(grads, layer_sizes)
    flat_bins = bins.reshape(-1)

    def per_bin(terms: np.ndarray) -> np.ndarray:
        """Each (network, action) bin's sum of `terms`, in minibatch order."""
        return np.bincount(flat_bins, weights=terms.reshape(-1), minlength=n_nets * n_out).reshape(n_nets, n_out)

    gw_out, gb_out = g_layers[-1]
    gb_out[...] = per_bin(d_taken)
    for j in range(n_hidden):
        gw_out[:, :, j] = per_bin(d_taken * hidden[:, :, j])
    delta = d_taken[:, :, None] * w_taken
    delta *= hidden > 0.0
    for i in range(len(layers) - 2, -1, -1):
        np.matmul(delta.transpose(0, 2, 1), acts[i], out=g_layers[i][0])
        np.add.reduce(delta, 1, out=g_layers[i][1])
        if i > 0:
            delta = _contract(delta, layers[i][0])
            delta *= acts[i] > 0.0
    return grads, np.add.reduce(np.square(residual), 1) / b_size


def grad_norm_stacked(grads: np.ndarray) -> np.ndarray:
    """Global gradient norm of each network: (K,), one sum over its row."""
    return np.sqrt(np.einsum("kp,kp->k", grads, grads))


def clip_gradient_stacked(grads: np.ndarray, beta0: float) -> None:
    """Global norm clipping of each network's gradient on its own, in place:
    g <- g * beta0 / max(||g||, beta0)."""
    if beta0 <= 0:
        raise ValueError("beta0 must be > 0")
    grads *= (beta0 / np.maximum(grad_norm_stacked(grads), beta0))[:, None]


def rmsprop_step_stacked(
    params: np.ndarray, sq: np.ndarray, lr: np.ndarray, grads: np.ndarray, decay: float, smoothing: float
) -> None:
    """s <- decay*s + (1-decay)*g^2; w <- w - lr * g / (sqrt(s) + eps), for
    every row of the (K, P) blocks `params` and `sq` with its own lr (K,).
    In place on `params` and `sq`; `grads` is left as it was."""
    step = np.square(grads)
    step *= 1.0 - decay
    sq *= decay
    sq += step
    np.sqrt(sq, out=step)
    step += smoothing
    np.divide(lr[:, None] * grads, step, out=step)
    params -= step


class StackedReplay:
    """One bounded FIFO of (context, action, reward) tuples per agent; each
    agent's oldest tuple is evicted first.

    The rings are one (N * capacity, M + 2) float block, `tuples`: agent n's
    ring is the capacity rows from n * capacity on, and a row holds the
    context, then the action, then the reward. Actions are small integers,
    so they are exact as floats. `pushes` counts each agent's tuples: its
    next one goes to ring row pushes % capacity. Each argument is an
    integer >= 1, numpy's included, or a ValueError names it.
    """

    def __init__(self, n_agents: int, capacity: int, n_channels: int):
        n_agents = checked_int(n_agents, "n_agents", minimum=1)
        capacity = checked_int(capacity, "capacity", minimum=1)
        n_channels = checked_int(n_channels, "n_channels", minimum=1)
        self.capacity = capacity
        self.tuples = np.zeros((n_agents * capacity, n_channels + 2))
        self.pushes = np.zeros(n_agents, dtype=np.int64)

    @property
    def size(self) -> np.ndarray:
        """Each agent's fill: the tuples its memory holds."""
        return np.minimum(self.pushes, self.capacity)

    def push(self, agents: np.ndarray, contexts: np.ndarray, actions: np.ndarray, rewards: np.ndarray) -> None:
        """One tuple for each of the distinct `agents`. A context or reward
        that is not finite raises ValueError, and nothing is stored."""
        new = np.empty((len(agents), self.tuples.shape[1]))
        new[:, :-2] = contexts
        new[:, -2] = actions
        new[:, -1] = rewards
        if not np.isfinite(new).all():
            raise ValueError("contexts and rewards must be finite")
        pushes = self.pushes[agents]
        self.tuples[agents * self.capacity + pushes % self.capacity] = new
        self.pushes[agents] = pushes + 1

    def sample(self, agents: np.ndarray, batch_size: int, rng: np.random.Generator) -> StackedBatch:
        """A uniform minibatch per agent, drawn with replacement from its
        memory's fill.

        One `rng.random((K, batch_size))` call draws every index: each is
        the floor of a uniform u < 1 times the memory's fill, and for a fill
        below 2**53 the product rounds below the fill. One gather reads them.
        """
        sizes = self.size[agents]
        if not sizes.all():
            raise ValueError("cannot sample from empty memory")
        idx = (rng.random((len(agents), batch_size)) * sizes[:, None]).astype(np.int64)  # the floor
        rows = self.tuples.take(agents[:, None] * self.capacity + idx, axis=0)  # (K, B, M + 2)
        return rows[..., :-2], rows[..., -2].astype(np.int64), rows[..., -1]
