"""Named experiment grids mirroring the study designs in the README.

A preset expands to an ordered list of (run_name, config overrides).
Run names encode the grid cell so report tables stay self-describing.
"""

from __future__ import annotations

_DESK_BASE = {
    "data.n_samples": 3000,
    "federation.nodes": 100,
    "federation.participants": 30,
    "federation.episodes": 30,
    "privacy.stop_threshold": 0.5,
    "optimizer.learning_rate": 0.02,
    "optimizer.local_steps": 5,
}

# Operating point where the anomaly detectors can pass benign updates:
# per-coordinate noise must stay small against the clip threshold, so the
# privacy loss is large, the poisoning degree is set near 1 explicitly,
# and the horizon is short enough that trained updates stay at clip
# scale: once the model converges the leave-one-out standard is
# noise-dominated and every node is flagged (see README, "stealth sweep").
# Acceptance criterion 7 runs at this point too.
_DETECTOR_BASE = {
    **_DESK_BASE,
    "federation.episodes": 15,
    "model.hidden": "8,4",
    "privacy.epsilon": 60.0,
    "privacy.clip": 0.05,
    "optimizer.learning_rate": 0.05,
    "attack.gamma0": 0.7,
}


def _impact_sweep() -> list[tuple[str, dict]]:
    runs = []
    for eps in (0.5, 0.7, 1.0):
        base = {**_DESK_BASE, "privacy.epsilon": eps}
        runs.append((f"benign_eps{eps}", {**base, "attack.mode": "none"}))
        for gamma in (2, 3):
            for m in (1, 2, 3):
                runs.append(
                    (
                        f"mpelm_eps{eps}_gamma{gamma}_m{m}",
                        {
                            **base,
                            "attack.mode": "mpelm",
                            "attack.m": m,
                            "attack.gamma_fixed": gamma,
                        },
                    )
                )
    return runs


def _stealth_sweep() -> list[tuple[str, dict]]:
    runs = []
    for beta1 in (1.0, 3.0):
        for m in (3, 6):
            for kind in ("norm", "accuracy", "mix"):
                for mode in ("rmd", "mpelm"):
                    runs.append(
                        (
                            f"{mode}_{kind}_beta{beta1}_m{m}",
                            {
                                **_DETECTOR_BASE,
                                "attack.mode": mode,
                                "attack.m": m,
                                "detector.kind": kind,
                                "detector.beta1": beta1,
                            },
                        )
                    )
    return runs


def _smoke() -> list[tuple[str, dict]]:
    return [
        (
            "smoke",
            {
                "data.n_samples": 200,
                "federation.nodes": 10,
                "federation.participants": 5,
                "federation.episodes": 3,
                "model.hidden": "8,4",
                "privacy.epsilon": 60.0,
                "privacy.clip": 0.05,
                "privacy.stop_threshold": 0.5,
                "optimizer.learning_rate": 0.05,
                "attack.mode": "mpelm",
                "attack.m": 2,
                "attack.gamma0": 0.7,
                "detector.kind": "norm",
            },
        )
    ]


PRESETS = {
    "smoke": _smoke,
    "impact-sweep": _impact_sweep,
    "stealth-sweep": _stealth_sweep,
}


def expand(name: str) -> list[tuple[str, dict]]:
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return PRESETS[name]()
