"""Episode orchestration: sampling, local training, noise, aggregation.

One episode selects n of the K nodes, trains them from the current
global model, clips and noises their updates (adversarially for
compromised nodes), optionally filters flagged updates, aggregates the
survivors by their mean, and evaluates the new global model on the union
of all nodes' validation splits.

Determinism contract: every random draw comes from a substream keyed by
(master seed, purpose, episode, node), and updates are combined in
ascending node-id order. The episode's nodes train together as one
stack (model.train_stack), and each node's update is bitwise what it
would be if that node trained alone with model.local_train, on the
OpenBLAS kernels where that has been checked: the products' summation
order is the kernel's, and under the Prescott kernel a stacked node of
an adaptive-attack run differs from its lone replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import adversary as adv
from . import detection as det
from .data import NodeShard
from .model import Architecture, ModelUpdate, OptimizerConfig, init_params, mse_loss, train_stack
from .model import local_train  # noqa: F401  (bound here for perfbench/tracer.py's hooks)
from .privacy import PrivacyLedger, PrivacySpec, add_noise, clip
from .rng import substream, substream_seed


class EmptyAggregationError(RuntimeError):
    """Every submitted model was flagged; the episode cannot aggregate."""

    def __init__(self, episode: int):
        super().__init__(f"episode {episode}: all submitted models flagged, empty aggregation")
        self.episode = episode


@dataclass(frozen=True)
class FederationConfig:
    k: int = 100
    n: int = 30
    episodes: int = 30
    seed: int = 0
    privacy: PrivacySpec = field(default_factory=lambda: PrivacySpec(epsilon=0.7))
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    stop_threshold: float = 0.01
    attack: adv.AttackConfig = adv.AttackConfig()
    detector: det.DetectorConfig = det.DetectorConfig()
    arch: Architecture = Architecture()

    def __post_init__(self):
        if not 1 <= self.n <= self.k:
            raise ValueError("need 1 <= participants <= total nodes")
        if self.episodes < 1:
            raise ValueError("episodes must be >= 1")


@dataclass(frozen=True)
class RoundRecord:
    episode: int
    submitted: tuple[ModelUpdate, ...]  # in selection order: ascending node id
    global_params_after: np.ndarray
    global_val_loss: float
    delta_cumulative: float
    # the detector's verdicts; flagged, and so same_outcome, read them
    verdicts: tuple = ()

    @property
    def flagged(self) -> frozenset[int]:
        return frozenset(v.node_id for v in self.verdicts if v.flagged)

    def same_outcome(self, other: "RoundRecord") -> bool:
        """Bitwise equality of the federation-visible fields."""
        return (
            self.episode == other.episode
            and self.flagged == other.flagged
            and len(self.submitted) == len(other.submitted)
            and all(
                a.node_id == b.node_id and np.array_equal(a.delta, b.delta)
                for a, b in zip(self.submitted, other.submitted)
            )
            and np.array_equal(self.global_params_after, other.global_params_after)
            and self.global_val_loss == other.global_val_loss
            and self.delta_cumulative == other.delta_cumulative
        )


@dataclass
class FederationState:
    """Everything the orchestrator owns across episodes (single writer),
    with the run's configuration."""

    cfg: FederationConfig
    shards: list[NodeShard]
    global_params: np.ndarray
    ledger: PrivacyLedger
    # every shard's validation split, concatenated in node-id order
    pooled_validation: tuple[np.ndarray, np.ndarray]
    server_validation: Optional[tuple[np.ndarray, np.ndarray]] = None
    episode: int = 0
    # one row per episode the adaptive attacker stepped in; run_episode
    # is its only writer, and it is the controller's only memory
    attack_trace: list[dict] = field(default_factory=list)

    @classmethod
    def create(cls, cfg: FederationConfig, shards: Sequence[NodeShard], server_validation=None) -> "FederationState":
        for pos, shard in enumerate(shards):  # run_episode looks shards up by node id
            if shard.node_id != pos:
                raise ValueError(f"shard at position {pos} has node_id {shard.node_id}, expected {pos}")
        if cfg.detector.kind in ("accuracy", "mix") and server_validation is None:
            raise ValueError(f"{cfg.detector.kind} detection requires a server validation set")
        params = init_params(cfg.arch, substream(cfg.seed, "init"))
        return cls(
            cfg=cfg,
            shards=list(shards),
            global_params=params,
            ledger=PrivacyLedger(stop_threshold=cfg.stop_threshold),
            pooled_validation=(
                np.concatenate([s.validation.x for s in shards]),
                np.concatenate([s.validation.y for s in shards]),
            ),
            server_validation=server_validation,
        )

    def global_validation_loss(self) -> float:
        return mse_loss(self.cfg.arch, self.global_params, self.pooled_validation)


def select_nodes(k: int, n: int, rng: np.random.Generator) -> list[int]:
    """Uniform sample of n node ids without replacement, sorted ascending."""
    if n > k:
        raise ValueError(f"cannot select {n} of {k} nodes")
    chosen = rng.choice(k, size=n, replace=False)
    return sorted(int(c) for c in chosen)


def aggregate(global_params: np.ndarray, updates: Sequence[ModelUpdate]) -> np.ndarray:
    """New global model: old params plus the mean of the updates.

    Summation runs in ascending node-id order for bit-reproducibility.
    """
    if not updates:
        raise ValueError("cannot aggregate an empty update set")
    q = global_params.shape[0]
    total = np.zeros(q)
    for update in sorted(updates, key=lambda u: u.node_id):
        if update.delta.shape != (q,):
            raise ValueError(
                f"update from node {update.node_id} has length {update.delta.shape}, expected {q}"
            )
        total += update.delta
    return global_params + total / len(updates)


def _submission(raw: ModelUpdate, cfg: FederationConfig, episode: int, gamma: float) -> ModelUpdate:
    """Clip and noise one trained update of the episode (adversarially, with
    the episode's degree of poisoning gamma, for compromised nodes)."""
    clipped = clip(raw, cfg.privacy.clip_c)
    noise_rng = substream(cfg.seed, "noise", episode, raw.node_id)
    if raw.node_id in cfg.attack.compromised:
        return adv.inject(clipped, cfg.privacy, gamma, noise_rng)
    return add_noise(clipped, cfg.privacy, noise_rng)


def run_episode(state: FederationState) -> RoundRecord:
    """Execute one full federation episode and advance the state."""
    if state.ledger.stopped:
        raise RuntimeError("privacy ledger exhausted; cannot run another episode")
    cfg, attack = state.cfg, state.cfg.attack
    state.episode += 1
    t = state.episode

    selected = select_nodes(cfg.k, cfg.n, substream(cfg.seed, "select", t))
    active_compromised = sorted(set(selected) & attack.compromised)

    # The adaptive controller observes the just-received global model
    # before any local work happens; it only steps when compromised nodes
    # actually participate this episode, and all of them poison with its
    # degree.
    gamma = 0.0
    if attack.kind == "mpelm" and active_compromised:
        row = adv.gamma_for_episode(state)
        state.attack_trace.append(row)
        gamma = row["gamma_t"]

    # rmd nodes submit a random vector instead of training; every other
    # node, compromised or not, trains in one stack
    rmd = set(active_compromised) if attack.kind == "rmd" else set()
    training = [i for i in selected if i not in rmd]
    trained = train_stack(
        cfg.arch,
        state.global_params,
        [state.shards[i] for i in training],
        cfg.optimizer,
        [substream_seed(cfg.seed, "train", t, i) for i in training],
        episode=t,
    )
    raw = dict(zip(training, trained))
    submitted = []
    for i in selected:
        if i in rmd:
            rng = substream(cfg.seed, "rmd", t, i)
            submitted.append(adv.rmd_update(cfg.privacy, rng, cfg.arch.n_params, node_id=i))
        else:
            submitted.append(_submission(raw[i], cfg, t, gamma))

    verdicts = det.evaluate(
        submitted,
        cfg.detector,
        cfg.arch,
        state.global_params,
        state.server_validation,
    )
    flagged = frozenset(v.node_id for v in verdicts if v.flagged)

    survivors = [u for u in submitted if u.node_id not in flagged]
    if not survivors:
        raise EmptyAggregationError(t)

    state.global_params = aggregate(state.global_params, survivors)
    state.ledger.account(cfg.privacy)

    return RoundRecord(
        episode=t,
        submitted=tuple(submitted),
        global_params_after=state.global_params.copy(),
        global_val_loss=state.global_validation_loss(),
        delta_cumulative=state.ledger.cumulative_delta,
        verdicts=tuple(verdicts),
    )
