"""Experiment configuration: flat dotted keys with full defaulting.

A config file is plain text, one ``key = value`` per line, ``#`` for
comments. Every key has a default, and the fully resolved mapping is
written into each run's sidecar so runs are self-describing. Validation
failures name the offending field path (usage errors, CLI exit code 1).
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from pathlib import Path

from .adversary import AttackConfig
from .data import shard_sizes
from .detection import DetectorConfig
from .federation import FederationConfig
from .model import Architecture, OptimizerConfig
from .privacy import PrivacySpec


class ConfigError(ValueError):
    """Invalid configuration; carries the dotted field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.field_path = path


DEFAULTS: dict[str, object] = {
    "data.source": "synthetic",  # synthetic | csv | cache
    "data.path": "",
    "data.n_samples": 3000,
    "data.noise_scale": 0.05,
    "data.server_split": 0.02,
    "model.hidden": "16,8",
    "federation.nodes": 100,
    "federation.participants": 30,
    "federation.episodes": 30,
    "privacy.epsilon": 0.7,
    "privacy.delta": 0.001,
    "privacy.clip": 1.0,
    "privacy.stop_threshold": 0.01,
    "attack.mode": "none",  # none | rmd | mpelm
    "attack.m": 0,
    "attack.rho": 0.1,
    "attack.gamma0": "",  # empty: defaults to privacy.epsilon
    "attack.r_hi": 1.5,
    "attack.r_lo": 0.5,
    "attack.gamma_fixed": "",  # empty: adaptive
    "detector.kind": "off",  # off | norm | accuracy | mix
    "detector.beta1": 1.0,
    "detector.beta2": 0.1,
    "detector.d_max": 10.0,
    "detector.orientation": "reversed",  # reversed only; echoed in detection.csv v1
    "optimizer.kind": "mbgd",  # mbgd | adamax
    "optimizer.learning_rate": 0.001,
    "optimizer.batch_size": 32,
    "optimizer.local_steps": 5,
    "optimizer.early_stop": True,  # on | off (also true/false, yes/no)
    "optimizer.patience": 3,
    "seed": 0,
}

_BOOLS = {"on": True, "off": False, "true": True, "false": False, "yes": True, "no": False}
# floats whose empty default means "derive it" (gamma0) or "off" (gamma_fixed)
_OPTIONAL_FLOATS = ("attack.gamma0", "attack.gamma_fixed")


def _coerce(key: str, raw, default) -> object:
    if isinstance(raw, str):
        raw = raw.strip()
    if raw == "" or raw is None:
        if default != "":
            raise ConfigError(key, "empty value")
        return ""
    try:
        if isinstance(default, bool):
            return _BOOLS[str(raw).lower()]
        if isinstance(default, int) and not isinstance(default, bool):
            return int(raw)
        if not (isinstance(default, float) or key in _OPTIONAL_FLOATS):
            return str(raw)
        value = float(raw)
    except (ValueError, KeyError) as exc:
        raise ConfigError(key, f"cannot parse {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(key, f"must be finite, got {raw!r}")
    return value


@contextlib.contextmanager
def _section(path: str):
    """Raise a ValueError from building one typed section as a ConfigError naming it."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def parse_config_text(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; later keys override earlier ones."""
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}", f"expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        values[key.strip()] = value.split("#", 1)[0].strip()
    return values


@dataclass
class ExperimentConfig:
    """Fully resolved experiment settings (one federation run)."""

    values: dict[str, object] = field(default_factory=dict)

    @classmethod
    def from_dict(cls, overrides: dict) -> "ExperimentConfig":
        values = dict(DEFAULTS)
        for key, raw in overrides.items():
            if key not in DEFAULTS:
                raise ConfigError(key, "unknown configuration key")
            values[key] = _coerce(key, raw, DEFAULTS[key])
        cfg = cls(values=values)
        cfg.validate()
        return cfg

    def __getitem__(self, key: str):
        return self.values[key]

    def resolved(self) -> dict[str, object]:
        """Every key with its effective value, defaults included."""
        out = dict(self.values)
        if out["attack.gamma0"] == "":
            out["attack.gamma0"] = out["privacy.epsilon"]
        return out

    def validate(self) -> None:
        v = self.values
        if v["data.source"] not in ("synthetic", "csv", "cache"):
            raise ConfigError("data.source", f"unknown source {v['data.source']!r}")
        if v["data.source"] in ("csv", "cache") and not v["data.path"]:
            raise ConfigError("data.path", "required when data.source is csv or cache")
        if v["data.source"] in ("csv", "cache") and not Path(v["data.path"]).is_file():
            raise ConfigError("data.path", f"no such file {v['data.path']!r}")
        if v["data.noise_scale"] < 0:
            raise ConfigError("data.noise_scale", f"must be >= 0, got {v['data.noise_scale']}")
        k, n, m = v["federation.nodes"], v["federation.participants"], v["attack.m"]
        if not 1 <= n <= k:
            raise ConfigError("federation.participants", f"need 1 <= {n} <= federation.nodes ({k})")
        if not 0 <= m <= n:
            raise ConfigError("attack.m", f"need 0 <= {m} <= federation.participants ({n})")
        if v["attack.mode"] == "none" and m != 0:
            raise ConfigError("attack.m", "must be 0 when attack.mode is none")
        if v["attack.mode"] in ("rmd", "mpelm") and m < 1:
            raise ConfigError("attack.m", f"must be >= 1 when attack.mode is {v['attack.mode']}")
        if v["attack.mode"] not in ("none", "rmd", "mpelm"):
            raise ConfigError("attack.mode", f"unknown mode {v['attack.mode']!r}")
        if v["federation.episodes"] < 1:
            raise ConfigError("federation.episodes", "must be >= 1")
        if v["detector.orientation"] != "reversed":
            raise ConfigError("detector.orientation", f"only reversed is supported, got {v['detector.orientation']!r}")
        if v["privacy.stop_threshold"] < 0:
            raise ConfigError("privacy.stop_threshold", "must be >= 0")
        if v["detector.kind"] in ("norm", "accuracy", "mix") and n < 2:
            raise ConfigError(
                "federation.participants",
                f"{v['detector.kind']} detection compares each update with the others; need >= 2, got {n}",
            )
        split = v["data.server_split"]
        if not 0.0 <= split < 1.0:
            raise ConfigError("data.server_split", f"need 0 <= {split} < 1")
        # the server holdout is carved off before partitioning, with split_holdout's rounding
        n_hold = round(split * v["data.n_samples"])
        left = v["data.n_samples"] - n_hold
        if v["data.source"] == "synthetic":
            if left < k:
                raise ConfigError(
                    "data.n_samples",
                    f"need at least one sample per node after the server holdout of {n_hold}; "
                    f"{left} left for {k} nodes",
                )
            validation_rows = [rows for _train, rows in shard_sizes(left, k)]
            if not any(validation_rows):
                raise ConfigError("data.n_samples", f"{left} samples for {k} nodes leave every validation split empty")
            # only the adaptive controller reads the compromised nodes' splits
            if v["attack.mode"] == "mpelm" and v["attack.gamma_fixed"] == "" and not all(validation_rows[:m]):
                raise ConfigError(
                    "attack.m",
                    f"the adaptive attacker reads compromised node {validation_rows.index(0)}'s validation split, "
                    "which is empty",
                )
        empty_holdout = split == 0.0 or (v["data.source"] == "synthetic" and n_hold == 0)
        if v["detector.kind"] in ("accuracy", "mix") and empty_holdout:
            raise ConfigError(
                "data.server_split", f"{v['detector.kind']} detection needs a nonempty server holdout"
            )
        self.federation_config()

    def federation_config(self) -> FederationConfig:
        """The run as typed values, model included: the one translation from
        the flat keys. A section's ValueError is raised as a ConfigError
        naming that section."""
        v = self.resolved()
        with _section("model.hidden"):
            hidden = tuple(int(h) for h in str(v["model.hidden"]).split(",") if h.strip())
            if len(hidden) != 2 or any(h < 1 for h in hidden):
                raise ValueError(f"model.hidden must be two positive widths, got {v['model.hidden']!r}")
            arch = Architecture(hidden=hidden)
        with _section("privacy"):
            privacy = PrivacySpec(epsilon=v["privacy.epsilon"], delta=v["privacy.delta"], clip_c=v["privacy.clip"])
        with _section("optimizer"):
            optimizer = OptimizerConfig(
                kind=v["optimizer.kind"],
                learning_rate=v["optimizer.learning_rate"],
                batch_size=v["optimizer.batch_size"],
                local_steps=v["optimizer.local_steps"],
                early_stop=v["optimizer.early_stop"],
                patience=v["optimizer.patience"],
            )
        with _section("detector"):
            detector = DetectorConfig(
                kind=v["detector.kind"], beta1=v["detector.beta1"], beta2=v["detector.beta2"], d_max=v["detector.d_max"]
            )
        with _section("attack"):
            attack = AttackConfig(
                kind=v["attack.mode"],
                compromised=frozenset(range(v["attack.m"])),
                rho=v["attack.rho"],
                gamma0=v["attack.gamma0"],
                r_hi=v["attack.r_hi"],
                r_lo=v["attack.r_lo"],
                gamma_fixed=None if v["attack.gamma_fixed"] == "" else v["attack.gamma_fixed"],
            )
        return FederationConfig(
            k=v["federation.nodes"],
            n=v["federation.participants"],
            episodes=v["federation.episodes"],
            seed=v["seed"],
            arch=arch,
            privacy=privacy,
            optimizer=optimizer,
            stop_threshold=v["privacy.stop_threshold"],
            attack=attack,
            detector=detector,
        )
