"""Calibrated Gaussian local DP: clipping, noise, and a privacy ledger.

The noise multiplier follows the minimal-noise convention
sigma = sqrt(2 ln(1.25/delta)) * sensitivity / epsilon, and sensitivity
always equals the clipping threshold. The ledger composes per-episode
leakage as cumulative = 1 - prod(1 - delta_t) and signals stop once the
configured threshold is exceeded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import ModelUpdate


def calibrate_sigma(epsilon: float, delta: float, sensitivity: float) -> float:
    """Noise multiplier for the Gaussian mechanism at (epsilon, delta)."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if delta >= 1.25:
        raise ValueError("delta must be below 1.25 for the Gaussian calibration")
    if delta <= 0:
        raise ValueError("delta must be positive")
    return math.sqrt(2.0 * math.log(1.25 / delta)) * sensitivity / epsilon


@dataclass(frozen=True)
class PrivacySpec:
    """Privacy parameters; sigma is derived, sensitivity equals the clip."""

    epsilon: float
    delta: float = 0.001
    clip_c: float = 1.0

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        if self.clip_c <= 0:
            raise ValueError("clipping threshold clip_c must be positive")

    @property
    def sensitivity(self) -> float:
        return self.clip_c

    @property
    def sigma(self) -> float:
        return calibrate_sigma(self.epsilon, self.delta, self.sensitivity)

    @property
    def noise_std(self) -> float:
        """Per-coordinate standard deviation of the mechanism's noise."""
        return self.sensitivity * self.sigma


def clip(update: ModelUpdate, clip_c: float) -> ModelUpdate:
    """Scale the update to l2-norm at most clip_c: delta / max(1, |delta|/C)."""
    if clip_c <= 0:
        raise ValueError("clip threshold must be positive")
    with np.errstate(over="ignore"):  # an overflowed norm takes the branch below
        norm = float(np.linalg.norm(update.delta))
    if math.isinf(norm) and np.all(np.isfinite(update.delta)):
        # the sum of squares overflowed: with unit = delta / max|delta| the
        # norm is peak * |unit|, so clipping keeps unit * peak or scales unit to C
        peak = float(np.max(np.abs(update.delta)))
        unit = update.delta / peak
        return replace(update, delta=unit * min(peak, clip_c / float(np.linalg.norm(unit))))
    scale = max(1.0, norm / clip_c)
    return replace(update, delta=update.delta / scale)


def add_noise(clipped: ModelUpdate, spec: PrivacySpec, rng: np.random.Generator) -> ModelUpdate:
    """Add i.i.d. Gaussian noise, std = sensitivity * sigma, per coordinate."""
    noise = spec.noise_std * rng.standard_normal(clipped.delta.shape)
    return replace(clipped, delta=clipped.delta + noise)


@dataclass
class PrivacyLedger:
    """Cumulative leakage tracker with a stop threshold.

    Composition is the basic independent rule: after episodes with
    per-episode leakage d_t, cumulative = 1 - prod(1 - d_t). Stop is
    signaled strictly above the threshold.
    """

    stop_threshold: float = 0.01
    cumulative_delta: float = 0.0

    @property
    def stopped(self) -> bool:
        return self.cumulative_delta > self.stop_threshold

    def account(self, spec: PrivacySpec) -> None:
        """Record one episode's leakage; ``stopped`` then says whether to stop."""
        # 1 - prod(1 - d) composed incrementally as c + d - c*d, which is
        # exact at c = 0 so the strict stop boundary behaves
        c, d = self.cumulative_delta, spec.delta
        self.cumulative_delta = c + d - c * d
