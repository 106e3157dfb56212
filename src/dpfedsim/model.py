"""The local learner: a two-hidden-layer ReLU MLP on a flat parameter vector.

Parameters live in one float64 vector with fixed layer-major layout
(W1, b1, W2, b2, W3, b3), so model updates, clipping, noise, and
aggregation are plain vector arithmetic. forward, mse_loss and gradient
also take a stack of parameter vectors with a matching stack of batches,
which is how train_stack trains all of an episode's nodes at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import N_FEATURES, NodeShard, batches


class TrainingDivergedError(RuntimeError):
    """Raised when local training produces a non-finite loss or parameters."""

    def __init__(self, step: int, node_id: int, episode: int):
        super().__init__(
            f"non-finite values during local training at episode {episode}, "
            f"node {node_id}, step {step}"
        )
        self.step = step
        self.node_id = node_id
        self.episode = episode


@dataclass(frozen=True)
class Architecture:
    """Layer sizes of the MLP; defines the parameter vector length q."""

    hidden: tuple[int, int] = (16, 8)

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (N_FEATURES, *self.hidden, 1)

    @property
    def n_params(self) -> int:
        sizes = self.layer_sizes
        return sum(sizes[i] * sizes[i + 1] + sizes[i + 1] for i in range(len(sizes) - 1))

    def slices(self):
        """(weight_slice, bias_slice, fan_in, fan_out) per layer."""
        sizes = self.layer_sizes
        out = []
        offset = 0
        for i in range(len(sizes) - 1):
            fan_in, fan_out = sizes[i], sizes[i + 1]
            w = slice(offset, offset + fan_in * fan_out)
            offset += fan_in * fan_out
            b = slice(offset, offset + fan_out)
            offset += fan_out
            out.append((w, b, fan_in, fan_out))
        return out


@dataclass(frozen=True)
class ModelUpdate:
    """A node's submitted update: delta = local params - global params."""

    delta: np.ndarray
    node_id: int
    steps: int = 0  # optimizer steps actually taken (diagnostic)


@dataclass(frozen=True)
class OptimizerConfig:
    kind: str = "mbgd"  # "mbgd" | "adamax"
    learning_rate: float = 0.001
    batch_size: int = 32
    local_steps: int = 5
    early_stop: bool = True
    patience: int = 3

    def __post_init__(self):
        if self.kind not in ("mbgd", "adamax"):
            raise ValueError(f"unknown optimizer kind: {self.kind!r}")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.local_steps < 1:
            raise ValueError("local_steps must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.patience < 0:
            raise ValueError("patience must be >= 0")


def init_params(arch: Architecture, rng: np.random.Generator) -> np.ndarray:
    """Glorot-uniform weights, zero biases, packed into one flat vector."""
    params = np.zeros(arch.n_params)
    for w, _b, fan_in, fan_out in arch.slices():
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        params[w] = rng.uniform(-limit, limit, size=fan_in * fan_out)
    return params


def unpack(arch: Architecture, params: np.ndarray):
    """(W, b) per layer; leading axes of a parameter stack carry through."""
    if params.shape[-1:] != (arch.n_params,):
        raise ValueError(f"expected parameter vector of length {arch.n_params}, got {params.shape}")
    lead = params.shape[:-1]
    layers = []
    for w, b, fan_in, fan_out in arch.slices():
        layers.append((params[..., w].reshape(lead + (fan_in, fan_out)), params[..., b]))
    return layers


def _forward_pass(layers, x: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Each layer's input activations ([x, a1, ...]) and the predictions."""
    activations = [x]
    a = x
    for w, b in layers[:-1]:
        a = np.maximum(0.0, a @ w + b[..., None, :])
        activations.append(a)
    w_out, b_out = layers[-1]
    return activations, (a @ w_out + b_out[..., None, :])[..., 0]


def forward(arch: Architecture, params: np.ndarray, batch) -> np.ndarray:
    """Predictions for a batch, given as an (X, y) pair.

    A stack of g parameter vectors (g, q) takes a stack of g batches
    (g, b, 6) and gives (g, b) predictions, each row equal to its own
    unstacked call.
    """
    return _forward_pass(unpack(arch, params), batch[0])[1]


def mse_loss(arch: Architecture, params: np.ndarray, data):
    """Mean squared error over an (X, y) pair; errors on an empty set.

    A float for one parameter vector, one loss per row for a stack.
    """
    x, y = data
    if y.shape[-1] == 0:
        raise ValueError("cannot evaluate loss on empty data")
    residual = forward(arch, params, (x, y)) - y
    loss = np.mean(residual**2, axis=-1)
    return float(loss) if loss.ndim == 0 else loss


def gradient(arch: Architecture, params: np.ndarray, batch) -> np.ndarray:
    """Exact backpropagation gradient of mse_loss over an (X, y) batch.

    Stacks like forward: (g, q) parameters and (g, b, 6) batches give
    (g, q) gradients, each row bitwise equal to its own unstacked call.
    """
    x, y = batch
    if y.shape[-1] == 0:
        raise ValueError("cannot take gradient over an empty batch")
    layers = unpack(arch, params)
    activations, pred = _forward_pass(layers, x)

    grad = np.zeros_like(params)
    lead = params.shape[:-1]
    slices = arch.slices()

    # dL/dpred for mean((pred - y)^2)
    delta = (2.0 / y.shape[-1]) * (pred - y)[..., None]
    for i in range(len(layers) - 1, -1, -1):
        w_slice, b_slice, fan_in, fan_out = slices[i]
        w, _ = layers[i]
        a_prev = activations[i]
        grad[..., w_slice] = (a_prev.swapaxes(-1, -2) @ delta).reshape(lead + (-1,))
        grad[..., b_slice] = delta.sum(axis=-2)
        if i > 0:
            delta = (delta @ w.swapaxes(-1, -2)) * (activations[i] > 0)
    return grad


def _by_length(pairs) -> list[list[int]]:
    """Positions of the (X, y) pairs grouped by row count, first-seen order.

    Pairs of one length stack into a (g, b, 6) batch; ragged pairs are
    never padded, since padding would change the BLAS summation order.
    """
    groups: dict[int, list[int]] = {}
    for pos, (_x, y) in enumerate(pairs):
        groups.setdefault(len(y), []).append(pos)
    return list(groups.values())


def _stack(pairs) -> tuple[np.ndarray, np.ndarray]:
    return np.stack([x for x, _ in pairs]), np.stack([y for _, y in pairs])


def train_stack(
    arch: Architecture,
    global_params: np.ndarray,
    shards: Sequence[NodeShard],
    cfg: OptimizerConfig,
    seeds: Sequence[int],
    episode: int = 0,
) -> list[ModelUpdate]:
    """Local optimization of several nodes from one global model, together.

    Node j trains on shards[j] with its own stream of batches, keyed by
    seeds[j], and its result is bitwise what it would be alone: the
    parameters form an (n, q) stack, each step's batches and validation
    sets are stacked by length, and per-node masks retire nodes that
    stop early. Each node takes up to cfg.local_steps optimizer steps;
    with early stopping on, a node halts once its
    validation loss has failed to improve for cfg.patience consecutive
    evaluations (a node with an empty validation split never stops
    early).

    Each update, and each TrainingDivergedError, carries its shard's
    node_id. The error is raised for the first node, in the given order,
    whose weights or validation loss become non-finite, at that node's
    own step; ``episode`` is only reported in that error.
    """
    n = len(shards)
    streams = [batches(s.train, cfg.batch_size, seed) for s, seed in zip(shards, seeds)]
    validation = [
        (s.validation.x, s.validation.y) if cfg.early_stop and len(s.validation) else None
        for s in shards
    ]
    w = np.tile(global_params, (n, 1))

    # Adamax state (unused for mbgd)
    m = np.zeros_like(w)
    u = np.zeros_like(w)
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    best_val = np.full(n, np.inf)
    stale = np.zeros(n, dtype=int)
    steps = np.zeros(n, dtype=int)
    diverged_at = np.zeros(n, dtype=int)  # step of divergence, 0 for none
    active = np.ones(n, dtype=bool)

    def diverge(nodes: np.ndarray, step: int) -> None:
        # nodes after the first diverging one can no longer decide the error
        diverged_at[nodes] = step
        active[nodes.min():] = False

    # the finiteness checks below report divergence, so the overflow and
    # invalid-value warnings on the way there say nothing new
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, cfg.local_steps + 1):
            idx = np.flatnonzero(active)
            if idx.size == 0:
                break
            step_batches = [next(streams[j]) for j in idx]
            g = np.empty((idx.size, w.shape[1]))
            for rows in _by_length(step_batches):
                g[rows] = gradient(arch, w[idx[rows]], _stack([step_batches[r] for r in rows]))
            if cfg.kind == "mbgd":
                w[idx] = w[idx] - cfg.learning_rate * g
            else:
                m[idx] = beta1 * m[idx] + (1.0 - beta1) * g
                u[idx] = np.maximum(beta2 * u[idx], np.abs(g))
                w[idx] = w[idx] - (cfg.learning_rate / (1.0 - beta1**step)) * m[idx] / (u[idx] + eps)
            steps[idx] = step

            finite = np.isfinite(w[idx]).all(axis=1)
            if not finite.all():
                diverge(idx[~finite], step)

            evaluated = [j for j in idx if active[j] and validation[j] is not None]
            for group in _by_length([validation[j] for j in evaluated]):
                nodes = np.array([evaluated[k] for k in group])
                val = mse_loss(arch, w[nodes], _stack([validation[j] for j in nodes]))
                finite = np.isfinite(val)
                if not finite.all():
                    diverge(nodes[~finite], step)
                nodes, val = nodes[finite], val[finite]
                improved = val < best_val[nodes]
                best_val[nodes] = np.where(improved, val, best_val[nodes])
                stale[nodes] = np.where(improved, 0, stale[nodes] + 1)
                active[nodes[~improved & (stale[nodes] >= cfg.patience)]] = False

    if diverged_at.any():
        first = int(np.flatnonzero(diverged_at)[0])
        raise TrainingDivergedError(int(diverged_at[first]), shards[first].node_id, episode)
    deltas = w - global_params
    return [ModelUpdate(delta=deltas[j], node_id=shards[j].node_id, steps=int(steps[j])) for j in range(n)]


def local_train(
    arch: Architecture,
    global_params: np.ndarray,
    shard: NodeShard,
    cfg: OptimizerConfig,
    seed: int,
    episode: int = 0,
) -> ModelUpdate:
    """Run local optimization of one shard from the global model and
    return the delta: train_stack on a stack of one."""
    return train_stack(arch, global_params, [shard], cfg, [seed], episode)[0]
