"""One network at a time: the reference of the stacked kernels of
`alarmmac.learning`.

Network k of a stack, run through these functions on its own minibatch,
gives row k of the stacked kernels. The forward pass and the RMSProp step
do the same floating-point operations, so they agree bit for bit. The
gradient here computes all 2**M outputs and backpropagates a delta that is
zero off the taken actions, and the norm sums layer by layer; the stacked
kernels compute only the taken outputs, add the output layer's terms per
(network, action) bin and sum the norm over a whole row. Those add the
same terms in another order, so they agree to a few ulps.
"""

from dataclasses import dataclass

import numpy as np

from alarmmac.learning import layer_views

Batch = tuple[np.ndarray, np.ndarray, np.ndarray]  # contexts (B, M), actions (B,), rewards (B,)
Grads = list[tuple[np.ndarray, np.ndarray]]


@dataclass
class Mlp:
    weights: list[np.ndarray]  # per layer, shape (fan_out, fan_in)
    biases: list[np.ndarray]  # per layer, shape (fan_out,)


def init_mlp(layer_sizes: list[int], rng: np.random.Generator) -> Mlp:
    """Uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)] per layer."""
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(rng.uniform(-bound, bound, size=fan_out))
    return Mlp(weights=weights, biases=biases)


def forward_cached(model: Mlp, x: np.ndarray) -> list[np.ndarray]:
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
    return forward_cached(model, np.asarray(context, dtype=float)[None, :])[-1][0]


def backward(model: Mlp, batch: Batch) -> tuple[Grads, float]:
    """Exact gradient of the taken-action squared loss; returns (grads, loss)."""
    contexts, actions, rewards = batch
    contexts = np.asarray(contexts, dtype=float)
    actions = np.asarray(actions, dtype=int)
    rewards = np.asarray(rewards, dtype=float)
    acts = forward_cached(model, contexts)
    values = acts[-1]
    b_size = len(rewards)
    rows = np.arange(b_size)
    residual = values[rows, actions] - rewards

    delta = np.zeros_like(values)
    delta[rows, actions] = 2.0 * residual / b_size

    grads: Grads = [None] * len(model.weights)  # type: ignore[list-item]
    for i in range(len(model.weights) - 1, -1, -1):
        grads[i] = (delta.T @ acts[i], delta.sum(axis=0))
        if i > 0:
            delta = (delta @ model.weights[i]) * (acts[i] > 0.0)
    return grads, float(np.mean(residual**2))


def grad_norm(grads: Grads) -> float:
    total = 0.0
    for gw, gb in grads:
        total += float((gw**2).sum() + (gb**2).sum())
    return float(np.sqrt(total))


def clip_gradient(grads: Grads, beta0: float) -> Grads:
    """Global norm clipping: g * beta0 / max(||g||, beta0)."""
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


def params_to_vector(model: Mlp) -> np.ndarray:
    """The network's row of a stack: layer by layer, weights row-major, then biases."""
    parts = []
    for w, b in zip(model.weights, model.biases):
        parts.append(w.ravel())
        parts.append(b.ravel())
    return np.concatenate(parts)


def grads_to_vector(grads: Grads) -> np.ndarray:
    parts = []
    for gw, gb in grads:
        parts.append(gw.ravel())
        parts.append(gb.ravel())
    return np.concatenate(parts)


def stack_of(models: list[Mlp]) -> np.ndarray:
    """The networks as one (K, P) block, row k a copy of network k."""
    return np.stack([params_to_vector(m) for m in models])


def model_of(block: np.ndarray, layer_sizes: tuple[int, ...], k: int) -> Mlp:
    """Network k of the block, its arrays views into the block."""
    layers = layer_views(block, layer_sizes)
    return Mlp(weights=[w[k] for w, _ in layers], biases=[b[k] for _, b in layers])
