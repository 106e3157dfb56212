"""DP-exploiting model poisoning: adaptive mean-shifted noise and baselines.

The attacker replaces the benign DP noise on compromised updates with
draws from a Gaussian whose mean is shifted by sqrt(2*gamma)*sigma_x,
where gamma is the degree of poisoning and sigma_x matches the benign
noise standard deviation. An adaptive controller tunes gamma every
episode from the ratio of the current compromised validation loss to the
historical mean, and every compromised node in the episode poisons with
that one degree. A random-update baseline (rmd) submits a uniformly
random vector scaled to the clipping threshold instead of a trained
update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .data import NodeShard
from .model import Architecture, ModelUpdate, mse_loss
from .privacy import PrivacySpec


@dataclass(frozen=True)
class AttackConfig:
    compromised: frozenset[int] = frozenset()
    theta: float = 0.0
    rho: float = 0.1
    gamma0: float = 1.0  # callers default this to epsilon
    r_hi: float = 1.5
    r_lo: float = 0.5
    gamma_fixed: Optional[float] = None  # set to disable adaptation

    def __post_init__(self):
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if not self.r_lo < 1.0 < self.r_hi:
            raise ValueError("loss-ratio thresholds must straddle 1")
        if self.gamma0 < 0:
            raise ValueError("initial degree of poisoning must be >= 0")
        if self.gamma_fixed is not None and self.gamma_fixed < 0:
            raise ValueError("fixed degree of poisoning must be >= 0")


@dataclass(frozen=True)
class AttackState:
    """Controller memory: loss history and the current degree of poisoning."""

    episodic_losses: tuple[float, ...] = ()
    gamma_current: float = 1.0
    gamma_episode: float = 1.0
    loss_ratio: float = 0.0

    @classmethod
    def initial(cls, gamma0: float) -> "AttackState":
        return cls(episodic_losses=(), gamma_current=gamma0,
                   gamma_episode=gamma0, loss_ratio=0.0)


def adversarial_mu(theta: float, gamma: float, sigma_x: float) -> float:
    """Optimal mean shift of the attack distribution: theta + sqrt(2*gamma)*sigma_x."""
    if gamma < 0:
        raise ValueError("degree of poisoning must be >= 0")
    if sigma_x < 0:
        raise ValueError("sigma_x must be >= 0")
    return theta + math.sqrt(2.0 * gamma) * sigma_x


def inject(
    clipped: ModelUpdate,
    spec: PrivacySpec,
    cfg: AttackConfig,
    gamma_episode: float,
    rng: np.random.Generator,
) -> ModelUpdate:
    """Replace benign DP noise with the adversarial draw.

    Each coordinate receives i.i.d. noise with mean adversarial_mu(theta,
    gamma, sigma_x) and the benign standard deviation, where sigma_x is
    also the benign standard deviation. With gamma 0 and theta 0 the draw
    is bit-identical to the benign mechanism on the same substream.
    """
    mu = adversarial_mu(cfg.theta, gamma_episode, spec.noise_std)
    noise = mu + spec.noise_std * rng.standard_normal(clipped.delta.shape)
    return replace(clipped, delta=clipped.delta + noise)


def episodic_loss(
    arch: Architecture,
    global_params: np.ndarray,
    shards: Sequence[NodeShard],
) -> float:
    """Average validation loss of the received global model over the
    compromised nodes' validation sets."""
    if not shards:
        raise ValueError("no compromised shards to evaluate")
    losses = [mse_loss(arch, global_params, (s.validation.x, s.validation.y)) for s in shards]
    return float(np.mean(losses))


def tune_poison_degree(state: AttackState, current_loss: float, cfg: AttackConfig) -> AttackState:
    """One controller step: memorize the episode loss and retune gamma.

    The loss ratio compares the current loss to the mean of all previous
    episodes' losses. Well above 1 the attack pauses (gamma_episode 0,
    last nonzero gamma retained); well below 1 it is amplified in
    proportion to the ratio; near 1 it is damped the same way. Before any
    history exists the initial gamma is used unchanged.
    """
    history = state.episodic_losses
    if not history:
        ratio = 0.0
        gamma_episode = state.gamma_current
    else:
        hist_mean = float(np.mean(history))
        # zero historical mean leaves the ratio undefined; fall through
        # to the damping branch at ratio 1
        ratio = current_loss / hist_mean if hist_mean != 0.0 else 1.0
        gamma = state.gamma_current
        if ratio > cfg.r_hi:
            gamma_episode = 0.0
        elif ratio < cfg.r_lo:
            gamma_episode = gamma + cfg.rho * ratio * gamma
        else:
            gamma_episode = max(0.0, gamma - cfg.rho * ratio * gamma)

    return AttackState(
        episodic_losses=history + (current_loss,),
        gamma_current=gamma_episode if gamma_episode != 0.0 else state.gamma_current,
        gamma_episode=gamma_episode,
        loss_ratio=ratio,
    )


def rmd_update(
    spec: PrivacySpec,
    rng: np.random.Generator,
    n_params: int,
    node_id: int = -1,
    episode: int = 0,
) -> ModelUpdate:
    """Random-update baseline: a uniform direction scaled to the clipping
    threshold, submitted with benign DP noise on top."""
    direction = rng.uniform(-1.0, 1.0, size=n_params)
    norm = float(np.linalg.norm(direction))
    while norm == 0.0:  # measure-zero, but keep the draw well-defined
        direction = rng.uniform(-1.0, 1.0, size=n_params)
        norm = float(np.linalg.norm(direction))
    delta = direction * (spec.clip_c / norm)
    noisy = delta + spec.noise_std * rng.standard_normal(n_params)
    return ModelUpdate(delta=noisy, node_id=node_id, episode=episode)


class Attacker:
    """Per-run attacker: mode, config, controller state and its trace.

    gamma_for_episode is the only source of an episode's degree of
    poisoning; every active compromised node injects with that degree.
    """

    def __init__(self, kind: str, config: AttackConfig):
        if kind not in ("rmd", "mpelm"):
            raise ValueError(f"unknown attack kind: {kind!r}")
        self.kind = kind
        self.config = config
        self.state = AttackState.initial(config.gamma0)
        self.trace: list[dict] = []

    def gamma_for_episode(self, state) -> float:
        """Degree of poisoning for the episode that ``state`` (the
        federation state) has just entered; steps the controller unless
        the degree is fixed."""
        if self.kind == "rmd":
            return 0.0
        if self.config.gamma_fixed is not None:
            self.trace.append(
                {
                    "episode": state.episode,
                    "gamma_t": self.config.gamma_fixed,
                    "gamma_current": self.config.gamma_fixed,
                    "loss_ratio": float("nan"),
                    "avg_compromised_val_loss": float("nan"),
                }
            )
            return self.config.gamma_fixed
        shards = [state.shards[i] for i in sorted(self.config.compromised)]
        current = episodic_loss(state.arch, state.global_params, shards)
        self.state = tune_poison_degree(self.state, current, self.config)
        self.trace.append(
            {
                "episode": state.episode,
                "gamma_t": self.state.gamma_episode,
                "gamma_current": self.state.gamma_current,
                "loss_ratio": self.state.loss_ratio,
                "avg_compromised_val_loss": current,
            }
        )
        return self.state.gamma_episode
