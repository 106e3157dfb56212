"""Aggregator-side anomaly detection over submitted model updates.

Three filters: norm detection (squared L2 distance to the leave-one-out
mean), accuracy detection (validation-loss difference between candidate
global models), and mix (union of both). Every operation is a pure
function of the episode's update list. evaluate sums the episode's
updates once and derives all n leave-one-out standards from that total;
with kind "off" it returns no verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .model import Architecture, ModelUpdate, mse_loss


@dataclass(frozen=True)
class DetectorConfig:
    kind: str = "off"  # "norm" | "accuracy" | "mix" | "off"
    beta1: float = 1.0
    beta2: float = 0.1
    d_max: float = 10.0

    def __post_init__(self):
        if self.kind not in ("norm", "accuracy", "mix", "off"):
            raise ValueError(f"unknown detector kind: {self.kind!r}")
        if self.beta1 <= 0:
            raise ValueError("norm benchmark beta1 must be positive")
        if self.beta2 < 0:
            raise ValueError("accuracy benchmark beta2 must be >= 0")
        if self.d_max <= 0:
            raise ValueError("squared-distance cap d_max must be positive")


@dataclass(frozen=True)
class Verdict:
    node_id: int
    rate: float
    # the terms behind the rate, NaN where the kind computes none: d and
    # e1 from the norm test, e2, loss_i and loss_st from the loss test
    d: float = np.nan
    e1: float = np.nan
    e2: float = np.nan
    loss_i: float = np.nan
    loss_st: float = np.nan

    @property
    def flagged(self) -> bool:
        return self.rate < 1.0


def comparison_standard(updates: Sequence[ModelUpdate]) -> np.ndarray:
    """Leave-one-out references as an (n, q) stack from one sum: row i is
    the mean of all updates except the i-th."""
    if len(updates) < 2:
        raise ValueError("comparison standard needs at least two updates")
    deltas = np.array([u.delta for u in updates])
    total = np.sum(deltas, axis=0)
    return (total - deltas) / (len(updates) - 1)


def norm_rate(update: ModelUpdate, standard: np.ndarray, cfg: DetectorConfig) -> Verdict:
    """Rate an update by squared distance to its comparison standard.

    e1 is the distance relative to the standard's squared norm, capped at
    d_max; the rate is clamp(1 - max(0, e1 - beta1), 0, 1) and anything
    below 1 counts as flagged.
    """
    diff = update.delta - standard
    d = float(diff @ diff)
    st_sq = float(standard @ standard)

    if d == 0.0:
        e1 = 0.0
    elif st_sq == 0.0:
        e1 = cfg.d_max
    elif d < cfg.d_max * st_sq:
        e1 = d / st_sq
    else:
        e1 = cfg.d_max

    rate = min(1.0, max(0.0, 1.0 - max(0.0, e1 - cfg.beta1)))
    return Verdict(node_id=update.node_id, rate=rate, d=d, e1=e1)


def loss_test_rate(loss_i: float, loss_st: float, cfg: DetectorConfig) -> tuple[float, float]:
    """(rate, e2) of the loss test given the two candidate losses.

    Reversing the paper's case split as written, a model is suspect when
    its candidate loss exceeds the standard's: e2 is that excess relative
    to the candidate loss, else 0. e2 equal to beta2 rates 1 (not flagged).
    """
    if loss_i <= loss_st:
        e2 = 0.0
    else:
        e2 = (loss_i - loss_st) / loss_i
    rate = 1.0 if e2 <= cfg.beta2 else min(1.0, max(0.0, 1.0 - e2))
    return rate, e2


def accuracy_rate(
    update: ModelUpdate,
    standard: np.ndarray,
    cfg: DetectorConfig,
    arch: Architecture,
    global_params: np.ndarray,
    validation,
) -> Verdict:
    """Rate an update by a loss test against its comparison standard.

    Two candidate globals are built (global + update, global + standard)
    and evaluated on the server validation set; the loss-test rule turns
    the pair of losses into a rate.
    """
    loss_i = mse_loss(arch, global_params + update.delta, validation)
    loss_st = mse_loss(arch, global_params + standard, validation)
    rate, e2 = loss_test_rate(loss_i, loss_st, cfg)
    return Verdict(node_id=update.node_id, rate=rate, e2=e2, loss_i=loss_i, loss_st=loss_st)


def evaluate(
    updates: Sequence[ModelUpdate],
    cfg: DetectorConfig,
    arch: Architecture = None,
    global_params: np.ndarray = None,
    validation=None,
) -> list[Verdict]:
    """Verdicts for every submitted update under the configured detector,
    or none when it is off.

    For mix detection, the per-node rate is the minimum of the norm and
    accuracy rates, so flagged(mix) is exactly the union of the two, and
    the verdict carries both tests' terms.
    """
    if cfg.kind == "off":
        return []
    pairs = list(zip(updates, comparison_standard(updates)))
    if cfg.kind == "norm":
        return [norm_rate(u, st, cfg) for u, st in pairs]
    acc_v = [accuracy_rate(u, st, cfg, arch, global_params, validation) for u, st in pairs]
    if cfg.kind == "accuracy":
        return acc_v
    norm_v = [norm_rate(u, st, cfg) for u, st in pairs]
    return [replace(av, rate=min(nv.rate, av.rate), d=nv.d, e1=nv.e1) for nv, av in zip(norm_v, acc_v)]


def detection_accuracy(
    episodes: Sequence[Sequence[Verdict]],
    truth: set[int],
) -> float:
    """Mean per-episode percentage of correctly classified models.

    A model counts as correct when it is malicious (its node id is in
    ``truth``) and flagged, or benign and unflagged. Truth is intersected
    with each episode's participants.
    """
    if not episodes:
        return 0.0
    scores = []
    for verdicts in episodes:
        if not verdicts:
            continue
        correct = sum(
            1 for v in verdicts if (v.node_id in truth) == v.flagged
        )
        scores.append(100.0 * correct / len(verdicts))
    if not scores:
        return 0.0
    return float(np.mean(scores))
