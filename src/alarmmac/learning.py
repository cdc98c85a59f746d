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

- A stack keeps its networks as one (K, P) float64 block. Row k holds
  network k's parameters layer by layer, each layer's weights row-major and
  then its biases. The per-layer weight and bias arrays are views into the
  block. A gradient and the RMSProp averages use the same layout, so
  gathering a stack's rows, clipping and the RMSProp step are one operation
  each over the whole block.
- The clipping norm is summed layer by layer: per layer the sum of squared
  weight gradients plus the sum of squared bias gradients.
- Only taken actions carry an output-layer gradient. Its bias gradient is
  one `np.bincount` over (network, action) bins, which adds each bin's
  terms in minibatch order.

`selfcheck` checks the gradient against finite differences and the clip
against its bound; the tests keep a one-network reference that each kernel
agrees with bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

# only bench/workloads.py calls grad_norm; it goes with ROADMAP direction 1
Grads = list[tuple[np.ndarray, np.ndarray]]


def grad_norm(grads: Grads) -> float:
    total = 0.0
    for gw, gb in grads:
        total += float((gw**2).sum() + (gb**2).sum())
    return float(np.sqrt(total))


StackedBatch = tuple[np.ndarray, np.ndarray, np.ndarray]  # contexts (K, B, M), actions (K, B), rewards (K, B)


@lru_cache(maxsize=None)
def _layout(layer_sizes: tuple[int, ...]) -> tuple[tuple[int, int, int, int, int], ...]:
    """Per layer: (fan_in, fan_out, first weight column, first bias column,
    end column) in a network's row of a parameter block."""
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
    def init(cls, layer_sizes: Sequence[int], n: int, rng: np.random.Generator) -> "MlpStack":
        """n networks, each layer uniform in [-1/sqrt(fan_in), 1/sqrt(fan_in)].
        Network by network and layer by layer, the weights are drawn as one
        (fan_out, fan_in) array and then the biases."""
        stack = cls(np.zeros((n, _layout(tuple(layer_sizes))[-1][-1])), layer_sizes)
        for k in range(n):
            for (fan_in, fan_out, *_), w, b in zip(stack.layout, stack.weights, stack.biases):
                bound = 1.0 / np.sqrt(fan_in)
                w[k] = rng.uniform(-bound, bound, size=(fan_out, fan_in))
                b[k] = rng.uniform(-bound, bound, size=fan_out)
        return stack

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
    """Exact gradient of network k's taken-action squared loss on minibatch
    k; returns (grads, per-network loss).

    The gradient is a stack laid out like `stack`: row k is network k's
    gradient.
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
    """Global gradient norm of each network: (K,), summed layer by layer."""
    squares = grads.params**2
    total = np.zeros(len(squares))
    for _, _, at_w, at_b, end in grads.layout:
        total = total + (squares[:, at_w:at_b].sum(axis=1) + squares[:, at_b:end].sum(axis=1))
    return np.sqrt(total)


def clip_gradient_stacked(grads: MlpStack, beta0: float) -> MlpStack:
    """Global norm clipping of each network's gradient on its own:
    g * beta0 / max(||g||, beta0)."""
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
    """s <- decay*s + (1-decay)*g^2; w <- w - lr * g / (sqrt(s) + eps), for
    every network of the stack with its own lr. In place."""
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

        The memories below batch_size draw their indices in one
        `rng.integers` call. The others draw, in one `rng.random` call, one
        uniform key per ring slot up to the largest of their fills, mask the
        keys beyond each memory's own fill, and take the batch_size
        smallest: a uniform draw without replacement.
        """
        agents = np.asarray(agents)
        sizes = self.size[agents]
        if not sizes.all():
            raise ValueError("cannot sample from empty memory")
        idx = np.empty((len(agents), batch_size), dtype=np.int64)
        small = sizes < batch_size
        if small.any():
            idx[small] = rng.integers(0, sizes[small, None], (np.count_nonzero(small), batch_size))
        if not small.all():
            full = sizes[~small, None]
            keys = rng.random((len(full), int(full.max())))
            keys[np.arange(keys.shape[1]) >= full] = np.inf  # beyond the fill
            idx[~small] = np.argpartition(keys, batch_size - 1, axis=1)[:, :batch_size]
        flat = agents[:, None] * self.capacity + idx  # position in the (N * capacity) rows
        n_channels = self._contexts.shape[2]
        return (
            np.take(self._contexts.reshape(-1, n_channels), flat, axis=0),
            np.take(self._actions, flat),
            np.take(self._rewards, flat),
        )
