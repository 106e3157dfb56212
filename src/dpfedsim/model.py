"""The local learner: a two-hidden-layer ReLU MLP on a flat parameter vector.

Parameters live in one float64 vector with fixed layer-major layout
(W1, b1, W2, b2, W3, b3), so model updates, clipping, noise, and
aggregation are plain vector arithmetic. All functions here are pure;
training many nodes concurrently is safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import BatchSampler, NodeShard

CHECKPOINT_VERSION = 1


class TrainingDivergedError(RuntimeError):
    """Raised when local training produces a non-finite loss or parameters."""

    def __init__(self, step: int):
        super().__init__(f"non-finite values during local training at step {step}")
        self.step = step


@dataclass(frozen=True)
class Architecture:
    """Layer sizes of the MLP; defines the parameter vector length q."""

    input_dim: int = 6
    hidden: tuple[int, int] = (16, 8)
    output_dim: int = 1

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden, self.output_dim)

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
    episode: int
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
    if params.shape != (arch.n_params,):
        raise ValueError(f"expected parameter vector of length {arch.n_params}, got {params.shape}")
    layers = []
    for w, b, fan_in, fan_out in arch.slices():
        layers.append((params[w].reshape(fan_in, fan_out), params[b]))
    return layers


def forward(arch: Architecture, params: np.ndarray, batch) -> np.ndarray:
    """Predictions for a batch, given as an (X, y) pair."""
    x, _ = batch
    layers = unpack(arch, params)
    a = x
    for w, b in layers[:-1]:
        a = np.maximum(0.0, a @ w + b)
    w_out, b_out = layers[-1]
    return (a @ w_out + b_out)[:, 0]


def mse_loss(arch: Architecture, params: np.ndarray, data) -> float:
    """Mean squared error over an (X, y) pair; errors on an empty set."""
    x, y = data
    if len(y) == 0:
        raise ValueError("cannot evaluate loss on empty data")
    residual = forward(arch, params, (x, y)) - y
    return float(np.mean(residual**2))


def gradient(arch: Architecture, params: np.ndarray, batch) -> np.ndarray:
    """Exact backpropagation gradient of mse_loss over an (X, y) batch."""
    x, y = batch
    if len(y) == 0:
        raise ValueError("cannot take gradient over an empty batch")
    layers = unpack(arch, params)

    activations = [x]
    a = x
    for w, b in layers[:-1]:
        a = np.maximum(0.0, a @ w + b)
        activations.append(a)
    w_out, b_out = layers[-1]
    pred = (a @ w_out + b_out)[:, 0]

    grad = np.zeros_like(params)
    slices = arch.slices()

    # dL/dpred for mean((pred - y)^2)
    delta = (2.0 / len(y)) * (pred - y)[:, None]
    for i in range(len(layers) - 1, -1, -1):
        w_slice, b_slice, fan_in, fan_out = slices[i]
        w, _ = layers[i]
        a_prev = activations[i]
        grad[w_slice] = (a_prev.T @ delta).ravel()
        grad[b_slice] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ w.T) * (activations[i] > 0)
    return grad


def local_train(
    arch: Architecture,
    global_params: np.ndarray,
    shard: NodeShard,
    cfg: OptimizerConfig,
    seed: int,
    *stream_tags,
    node_id: int = -1,
    episode: int = 0,
) -> ModelUpdate:
    """Run local optimization from the global model and return the delta.

    Performs cfg.local_steps optimizer steps over mini-batches from the
    shard's training split. With early stopping on, training halts once
    the shard validation loss has failed to improve for cfg.patience
    consecutive evaluations.
    """
    sampler = BatchSampler.for_shard(shard, cfg.batch_size, seed, *stream_tags)
    w = global_params.copy()

    # Adamax state (unused for mbgd)
    m = np.zeros_like(w)
    u = np.zeros_like(w)
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    best_val = np.inf
    stale = 0
    val_xy = (shard.validation.x, shard.validation.y) if len(shard.validation) else None

    steps_taken = 0
    for step in range(1, cfg.local_steps + 1):
        batch = sampler.next_batch()
        g = gradient(arch, w, batch)
        if cfg.kind == "mbgd":
            w = w - cfg.learning_rate * g
        else:
            m = beta1 * m + (1.0 - beta1) * g
            u = np.maximum(beta2 * u, np.abs(g))
            w = w - (cfg.learning_rate / (1.0 - beta1**step)) * m / (u + eps)
        steps_taken = step

        if not np.all(np.isfinite(w)):
            raise TrainingDivergedError(step)

        if cfg.early_stop and val_xy is not None:
            val = mse_loss(arch, w, val_xy)
            if not np.isfinite(val):
                raise TrainingDivergedError(step)
            if val < best_val:
                best_val = val
                stale = 0
            else:
                stale += 1
                if stale >= cfg.patience:
                    break

    return ModelUpdate(
        delta=w - global_params, node_id=node_id, episode=episode, steps=steps_taken
    )


def save_checkpoint(path, arch: Architecture, params: np.ndarray) -> None:
    """Persist a parameter vector with its architecture header."""
    np.savez(
        path,
        version=CHECKPOINT_VERSION,
        layer_sizes=np.array(arch.layer_sizes),
        activations=np.array(["relu"] * len(arch.hidden) + ["linear"]),
        values=np.asarray(params, dtype=np.float64),
    )


def load_checkpoint(path) -> tuple[Architecture, np.ndarray]:
    with np.load(path) as archive:
        if int(archive["version"]) != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {archive['version']}")
        sizes = [int(s) for s in archive["layer_sizes"]]
        values = archive["values"]
    arch = Architecture(input_dim=sizes[0], hidden=tuple(sizes[1:-1]), output_dim=sizes[-1])
    if values.shape != (arch.n_params,):
        raise ValueError("checkpoint parameter vector does not match its header")
    return arch, values
