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
    """The run's attack; the default, kind "none", is no attack."""

    kind: str = "none"  # "none" | "rmd" | "mpelm"
    compromised: frozenset[int] = frozenset()
    rho: float = 0.1
    gamma0: float = 1.0  # callers default this to epsilon
    r_hi: float = 1.5
    r_lo: float = 0.5
    gamma_fixed: Optional[float] = None  # set to disable adaptation

    def __post_init__(self):
        if self.kind not in ("none", "rmd", "mpelm"):
            raise ValueError(f"unknown attack kind: {self.kind!r}")
        if self.kind == "none" and self.compromised:
            raise ValueError("compromised nodes need an attack kind other than none")
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if not self.r_lo < 1.0:
            raise ValueError("loss-ratio threshold r_lo must be below 1")
        if not self.r_hi > 1.0:
            raise ValueError("loss-ratio threshold r_hi must be above 1")
        if self.gamma0 < 0:
            raise ValueError("initial degree of poisoning gamma0 must be >= 0")
        if self.gamma_fixed is not None and self.gamma_fixed < 0:
            raise ValueError("fixed degree of poisoning gamma_fixed must be >= 0")


def adversarial_mu(gamma: float, sigma_x: float) -> float:
    """Optimal mean shift of the attack distribution from the benign noise
    mean, which is 0 for the Gaussian mechanism: sqrt(2*gamma)*sigma_x."""
    if gamma < 0:
        raise ValueError("degree of poisoning must be >= 0")
    if sigma_x < 0:
        raise ValueError("sigma_x must be >= 0")
    return math.sqrt(2.0 * gamma) * sigma_x


def inject(
    clipped: ModelUpdate,
    spec: PrivacySpec,
    gamma_episode: float,
    rng: np.random.Generator,
) -> ModelUpdate:
    """Replace benign DP noise with the adversarial draw.

    Each coordinate receives i.i.d. noise with mean adversarial_mu(gamma,
    sigma_x) and the benign standard deviation, where sigma_x is also the
    benign standard deviation. With gamma 0 the draw is bit-identical to
    the benign mechanism on the same substream.
    """
    mu = adversarial_mu(gamma_episode, spec.noise_std)
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


def tune_poison_degree(
    history: Sequence[float], gamma: float, current_loss: float, cfg: AttackConfig
) -> tuple[float, float, float]:
    """One controller step: (gamma_episode, gamma_current, loss_ratio).

    ``history`` holds the previous episodes' losses and ``gamma`` the
    current degree of poisoning. The loss ratio compares the current loss
    to the mean of the history. Well above 1 the attack pauses
    (gamma_episode 0, last nonzero gamma retained as gamma_current); well
    below 1 it is amplified in proportion to the ratio; near 1 it is
    damped the same way. Before any history exists gamma is used
    unchanged.
    """
    if not history:
        ratio = 0.0
        gamma_episode = gamma
    else:
        hist_mean = float(np.mean(history))
        # zero historical mean leaves the ratio undefined; fall through
        # to the damping branch at ratio 1
        ratio = current_loss / hist_mean if hist_mean != 0.0 else 1.0
        if ratio > cfg.r_hi:
            gamma_episode = 0.0
        elif ratio < cfg.r_lo:
            gamma_episode = gamma + cfg.rho * ratio * gamma
        else:
            gamma_episode = max(0.0, gamma - cfg.rho * ratio * gamma)
    return gamma_episode, gamma_episode if gamma_episode != 0.0 else gamma, ratio


def gamma_for_episode(state) -> dict:
    """The attack-trace row of the episode that ``state`` (the federation
    state) has just entered, under its run's attack ``state.cfg.attack``;
    its gamma_t is the one degree of poisoning every active compromised
    node injects with.

    The run's trace so far, ``state.attack_trace``, is the controller's
    memory: its losses are the history and its last gamma_current the
    current degree (gamma0 before the first row). A fixed degree skips
    the controller and records no loss.
    """
    cfg = state.cfg.attack
    if cfg.gamma_fixed is not None:
        gamma_episode = gamma_current = cfg.gamma_fixed
        ratio = current = float("nan")
    else:
        trace = state.attack_trace
        shards = [state.shards[i] for i in sorted(cfg.compromised)]
        current = episodic_loss(state.cfg.arch, state.global_params, shards)
        gamma_episode, gamma_current, ratio = tune_poison_degree(
            [row["avg_compromised_val_loss"] for row in trace],
            trace[-1]["gamma_current"] if trace else cfg.gamma0,
            current,
            cfg,
        )
    return {
        "episode": state.episode,
        "gamma_t": gamma_episode,
        "gamma_current": gamma_current,
        "loss_ratio": ratio,
        "avg_compromised_val_loss": current,
    }


def rmd_update(
    spec: PrivacySpec,
    rng: np.random.Generator,
    n_params: int,
    node_id: int = -1,
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
    return ModelUpdate(delta=noisy, node_id=node_id)
