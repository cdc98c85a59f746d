"""Tiny fully connected network with exact backprop, RMSProp, and replay.

The network maps a length-M context to one value per transmission pattern
(2**M outputs), with rectifier hidden layers and an identity output layer.
Training regresses the value of the action actually taken onto its observed
reward:

    J(w) = (1/B) * sum_j (r_j - V[j, a_j])**2

so gradients flow only through taken-action outputs. Updates are RMSProp
steps on the globally norm-clipped gradient.

The single-model kernels are the reference. Their stacked twins train N
networks of one shape at once, with the same floating-point operations per
network, so a stacked update agrees with the single-model one bit for bit:

- A stack keeps its networks as one (N, P) float64 block, row k holding
  network k's parameters in `params_to_vector` order (layer by layer,
  weights row-major, then biases). The per-layer weight and bias arrays are
  views into the block. A gradient and the RMSProp averages use the same
  layout, so gathering a stack's rows, clipping and the RMSProp step are
  one operation each over the whole block.
- The clipping norm keeps the reference's grouping: per layer the sum of
  squared weight gradients plus the sum of squared bias gradients, added
  to the total layer by layer.
- Only taken actions carry an output-layer gradient. Its bias gradient is
  one `np.bincount` over (network, action) bins, which adds each bin's
  terms in minibatch order, as the reference's sum over the minibatch does
  with the untaken zeros in between; at most the sign of a zero differs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

Batch = tuple[np.ndarray, np.ndarray, np.ndarray]  # contexts (B, M), actions (B,), rewards (B,)


@dataclass
class Mlp:
    weights: list[np.ndarray]  # per layer, shape (fan_out, fan_in)
    biases: list[np.ndarray]  # per layer, shape (fan_out,)


def init_mlp(layer_sizes: list[int], rng: np.random.Generator) -> Mlp:
    """Uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)] per layer."""
    if len(layer_sizes) < 2:
        raise ValueError("need at least input and output layers")
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(rng.uniform(-bound, bound, size=fan_out))
    return Mlp(weights=weights, biases=biases)


def _forward_cached(model: Mlp, x: np.ndarray) -> list[np.ndarray]:
    """Activations per layer for a batch (B, M); last entry is the output."""
    acts = [x]
    h = x
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = h @ w.T + b
        h = z if i == last else np.maximum(z, 0.0)
        acts.append(h)
    return acts


def forward(model: Mlp, context: np.ndarray) -> np.ndarray:
    """Action values for one context (M,) -> (2**M,)."""
    x = np.asarray(context, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("context must be finite")
    return _forward_cached(model, x[None, :])[-1][0]


def loss(model: Mlp, batch: Batch) -> float:
    contexts, actions, rewards = batch
    if len(rewards) == 0:
        raise ValueError("empty minibatch")
    values = _forward_cached(model, np.asarray(contexts, dtype=float))[-1]
    taken = values[np.arange(len(rewards)), np.asarray(actions, dtype=int)]
    return float(np.mean((np.asarray(rewards, dtype=float) - taken) ** 2))


Grads = list[tuple[np.ndarray, np.ndarray]]


def backward(model: Mlp, batch: Batch) -> tuple[Grads, float]:
    """Exact gradient of the taken-action squared loss; returns (grads, loss)."""
    contexts, actions, rewards = batch
    if len(rewards) == 0:
        raise ValueError("empty minibatch")
    contexts = np.asarray(contexts, dtype=float)
    actions = np.asarray(actions, dtype=int)
    rewards = np.asarray(rewards, dtype=float)
    acts = _forward_cached(model, contexts)
    values = acts[-1]
    b_size = len(rewards)
    rows = np.arange(b_size)
    residual = values[rows, actions] - rewards

    delta = np.zeros_like(values)
    delta[rows, actions] = 2.0 * residual / b_size

    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(model.weights)  # type: ignore[list-item]
    for i in range(len(model.weights) - 1, -1, -1):
        grads[i] = (delta.T @ acts[i], delta.sum(axis=0))
        if i > 0:
            delta = (delta @ model.weights[i]) * (acts[i] > 0.0)
    flat_loss = float(np.mean(residual**2))
    return grads, flat_loss


def grad_norm(grads: Grads) -> float:
    total = 0.0
    for gw, gb in grads:
        total += float((gw**2).sum() + (gb**2).sum())
    return float(np.sqrt(total))


def clip_gradient(grads: Grads, beta0: float) -> Grads:
    """Global norm clipping: g * beta0 / max(||g||, beta0)."""
    if beta0 <= 0:
        raise ValueError("beta0 must be > 0")
    scale = beta0 / max(grad_norm(grads), beta0)
    if scale == 1.0:
        return grads
    return [(gw * scale, gb * scale) for gw, gb in grads]


@dataclass
class RmsPropState:
    sq_weights: list[np.ndarray]
    sq_biases: list[np.ndarray]
    decay: float = 0.9
    smoothing: float = 1e-8
    lr: float = 0.01

    @classmethod
    def for_model(cls, model: Mlp, decay: float = 0.9, smoothing: float = 1e-8, lr: float = 0.01) -> "RmsPropState":
        return cls(
            sq_weights=[np.zeros_like(w) for w in model.weights],
            sq_biases=[np.zeros_like(b) for b in model.biases],
            decay=decay,
            smoothing=smoothing,
            lr=lr,
        )


def rmsprop_step(model: Mlp, state: RmsPropState, grads: Grads) -> None:
    """s <- decay*s + (1-decay)*g^2; w <- w - lr * g / (sqrt(s) + eps). In place."""
    g, eps, lr = state.decay, state.smoothing, state.lr
    for i, (gw, gb) in enumerate(grads):
        state.sq_weights[i] = g * state.sq_weights[i] + (1.0 - g) * gw**2
        state.sq_biases[i] = g * state.sq_biases[i] + (1.0 - g) * gb**2
        model.weights[i] -= lr * gw / (np.sqrt(state.sq_weights[i]) + eps)
        model.biases[i] -= lr * gb / (np.sqrt(state.sq_biases[i]) + eps)


# --- stacked kernels: N networks of one shape, trained together -----------
#
# Network k of a stack is row k of its parameter block; a gradient of a stack
# is a stack of the same layout. Each kernel does, per network, the same
# floating-point operations as its single-model twin above.

StackedBatch = tuple[np.ndarray, np.ndarray, np.ndarray]  # contexts (K, B, M), actions (K, B), rewards (K, B)


@lru_cache(maxsize=None)
def _layout(layer_sizes: tuple[int, ...]) -> tuple[tuple[int, int, int, int, int], ...]:
    """Per layer: (fan_in, fan_out, first weight column, first bias column,
    end column) in the params_to_vector order of a network's parameters."""
    layers, pos = [], 0
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        at_bias = pos + fan_out * fan_in
        layers.append((fan_in, fan_out, pos, at_bias, at_bias + fan_out))
        pos = at_bias + fan_out
    return tuple(layers)


class MlpStack:
    """K networks of one shape as one (K, P) parameter block; the per-layer
    arrays are views into it."""

    def __init__(self, params: np.ndarray, layer_sizes: Sequence[int]):
        self.params = params
        self.layer_sizes = tuple(layer_sizes)
        self.layout = _layout(self.layer_sizes)
        if params.shape[1] != self.layout[-1][-1]:
            raise ValueError("parameter block width does not match layer sizes")
        k = len(params)
        # per layer, views of shape (K, fan_out, fan_in) and (K, fan_out)
        self.weights = [
            params[:, at_w:at_b].reshape(k, fan_out, fan_in) for fan_in, fan_out, at_w, at_b, _ in self.layout
        ]
        self.biases = [params[:, at_b:end] for _, _, _, at_b, end in self.layout]

    @classmethod
    def of(cls, models: list[Mlp]) -> "MlpStack":
        first = models[0]
        sizes = [first.weights[0].shape[1]] + [w.shape[0] for w in first.weights]
        return cls(np.stack([params_to_vector(m) for m in models]), sizes)

    def model(self, k: int) -> Mlp:
        """Network k, its arrays views into the stack."""
        return Mlp(weights=[w[k] for w in self.weights], biases=[b[k] for b in self.biases])

    def rows(self, idx: np.ndarray) -> "MlpStack":
        """A copy of the networks at `idx`."""
        return MlpStack(self.params[idx], self.layer_sizes)

    def put(self, idx: np.ndarray, part: "MlpStack") -> None:
        """Write `part` back over the networks at `idx`."""
        self.params[idx] = part.params


def _forward_stacked_cached(stack: MlpStack, x: np.ndarray) -> list[np.ndarray]:
    """Activations per layer for one batch (K, B, M) per network."""
    acts = [x]
    h = x
    last = len(stack.weights) - 1
    for i, (w, b) in enumerate(zip(stack.weights, stack.biases)):
        h = np.matmul(h, w.transpose(0, 2, 1))
        h += b[:, None, :]
        if i < last:
            np.maximum(h, 0.0, out=h)
        acts.append(h)
    return acts


def forward_stacked(stack: MlpStack, contexts: np.ndarray) -> np.ndarray:
    """Action values of network k for context k: (K, M) -> (K, 2**M)."""
    x = np.asarray(contexts, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("context must be finite")
    return _forward_stacked_cached(stack, x[:, None, :])[-1][:, 0]


def backward_stacked(stack: MlpStack, batch: StackedBatch) -> tuple[MlpStack, np.ndarray]:
    """`backward` of network k on minibatch k; returns (grads, per-network loss).

    The gradient is a stack laid out like `stack`: row k is network k's
    gradient in params_to_vector order.
    """
    contexts, actions, rewards = batch
    actions = np.asarray(actions, dtype=int)
    rewards = np.asarray(rewards, dtype=float)
    n_nets, b_size = rewards.shape
    if b_size == 0:
        raise ValueError("empty minibatch")
    acts = _forward_stacked_cached(stack, np.asarray(contexts, dtype=float))
    values = acts[-1]
    n_out = values.shape[2]
    # flat position of each taken action's value in the (K, B, 2**M) block
    taken = np.arange(n_nets * b_size).reshape(n_nets, b_size) * n_out + actions
    residual = np.take(values, taken) - rewards
    d_taken = 2.0 * residual / b_size

    delta = np.zeros(values.shape)
    delta.reshape(-1)[taken] = d_taken
    grads = MlpStack(np.empty_like(stack.params), stack.layer_sizes)
    last = len(stack.weights) - 1
    for i in range(last, -1, -1):
        np.matmul(delta.transpose(0, 2, 1), acts[i], out=grads.weights[i])
        if i == last:
            # the taken actions' terms per (network, action), in minibatch order
            bins = np.arange(n_nets)[:, None] * n_out + actions
            grads.biases[i][...] = np.bincount(
                bins.reshape(-1), weights=d_taken.reshape(-1), minlength=n_nets * n_out
            ).reshape(n_nets, n_out)
        else:
            grads.biases[i][...] = delta.sum(axis=1)
        if i > 0:
            delta = np.matmul(delta, stack.weights[i])
            delta *= acts[i] > 0.0
    return grads, np.mean(residual**2, axis=1)


def grad_norm_stacked(grads: MlpStack) -> np.ndarray:
    """Global gradient norm of each network: (K,), summed layer by layer as
    `grad_norm` sums."""
    squares = grads.params**2
    total = np.zeros(len(squares))
    for _, _, at_w, at_b, end in grads.layout:
        total = total + (squares[:, at_w:at_b].sum(axis=1) + squares[:, at_b:end].sum(axis=1))
    return np.sqrt(total)


def clip_gradient_stacked(grads: MlpStack, beta0: float) -> MlpStack:
    """Global norm clipping of each network's gradient on its own."""
    if beta0 <= 0:
        raise ValueError("beta0 must be > 0")
    scale = beta0 / np.maximum(grad_norm_stacked(grads), beta0)
    return MlpStack(grads.params * scale[:, None], grads.layer_sizes)


@dataclass
class RmsPropStack:
    """RMSProp state of a stack; each network has its own learning rate."""

    sq: np.ndarray  # (K, P) squared-gradient averages, laid out like MlpStack.params
    lr: np.ndarray  # (K,)
    decay: float = 0.9
    smoothing: float = 1e-8

    @classmethod
    def for_stack(cls, stack: MlpStack, decay: float, smoothing: float, lr: float) -> "RmsPropStack":
        lrs = np.full(len(stack.params), lr)
        return cls(sq=np.zeros_like(stack.params), lr=lrs, decay=decay, smoothing=smoothing)

    def rows(self, idx: np.ndarray) -> "RmsPropStack":
        """A copy of the state of the networks at `idx`."""
        return RmsPropStack(sq=self.sq[idx], lr=self.lr[idx], decay=self.decay, smoothing=self.smoothing)

    def put(self, idx: np.ndarray, part: "RmsPropStack") -> None:
        """Write the squared-gradient averages of `part` back at `idx`."""
        self.sq[idx] = part.sq


def rmsprop_step_stacked(stack: MlpStack, state: RmsPropStack, grads: MlpStack) -> None:
    """`rmsprop_step` of every network of the stack, in place."""
    g = grads.params
    state.sq = state.decay * state.sq + (1.0 - state.decay) * g**2
    stack.params -= state.lr[:, None] * g / (np.sqrt(state.sq) + state.smoothing)


class StackedReplay:
    """One bounded FIFO of (context, action, reward) tuples per agent, kept as
    (N, capacity, M) rings with a cursor and a fill count per agent; each
    agent's oldest tuple is evicted first."""

    def __init__(self, n_agents: int, capacity: int, n_channels: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._contexts = np.zeros((n_agents, capacity, n_channels))
        self._actions = np.zeros((n_agents, capacity), dtype=np.int64)
        self._rewards = np.zeros((n_agents, capacity))
        self._next = np.zeros(n_agents, dtype=np.int64)
        self.size = np.zeros(n_agents, dtype=np.int64)

    def push(self, agents: np.ndarray, contexts: np.ndarray, actions: np.ndarray, rewards: np.ndarray) -> None:
        """One tuple for each of the distinct `agents`."""
        at = self._next[agents]
        self._contexts[agents, at] = contexts
        self._actions[agents, at] = actions
        self._rewards[agents, at] = rewards
        self._next[agents] = (at + 1) % self.capacity
        self.size[agents] = np.minimum(self.size[agents] + 1, self.capacity)

    def sample(self, agents: np.ndarray, batch_size: int, rng: np.random.Generator) -> StackedBatch:
        """A uniform minibatch per agent, with replacement only while its
        memory holds fewer than batch_size tuples.

        The draws are those of `rng.choice(size, batch_size, replace=size <
        batch_size)` per agent, in the order given. A run of agents that
        sample with replacement draws in one `rng.integers` call, which
        takes the same draws from the stream as their `choice` calls.
        """
        agents = np.asarray(agents)
        sizes = self.size[agents]
        if not sizes.all():
            raise ValueError("cannot sample from empty memory")
        idx = np.empty((len(agents), batch_size), dtype=np.int64)
        start = 0
        for small, run in itertools.groupby((sizes < batch_size).tolist()):
            end = start + len(list(run))
            if small:
                idx[start:end] = rng.integers(0, sizes[start:end, None], (end - start, batch_size))
            else:
                for k in range(start, end):
                    idx[k] = rng.choice(sizes[k], size=batch_size, replace=False)
            start = end
        flat = agents[:, None] * self.capacity + idx  # position in the (N * capacity) rows
        n_channels = self._contexts.shape[2]
        return (
            np.take(self._contexts.reshape(-1, n_channels), flat, axis=0),
            np.take(self._actions, flat),
            np.take(self._rewards, flat),
        )


def params_to_vector(model: Mlp) -> np.ndarray:
    parts = []
    for w, b in zip(model.weights, model.biases):
        parts.append(w.ravel())
        parts.append(b.ravel())
    return np.concatenate(parts)


def vector_to_params(model: Mlp, vec: np.ndarray) -> None:
    pos = 0
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        model.weights[i] = vec[pos : pos + w.size].reshape(w.shape).copy()
        pos += w.size
        model.biases[i] = vec[pos : pos + b.size].copy()
        pos += b.size
    if pos != vec.size:
        raise ValueError("vector length does not match model")


def grads_to_vector(grads: Grads) -> np.ndarray:
    parts = []
    for gw, gb in grads:
        parts.append(gw.ravel())
        parts.append(gb.ravel())
    return np.concatenate(parts)
