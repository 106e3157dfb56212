"""Acceptance suite: every release-gating property with pinned seeds.

Each criterion is independent, prints one pass/fail line, and never
aborts the others. Directional criteria use fixed seed sets; numeric
ones compare against independent oracles computed in place (finite
differences, closed-form calibration, exhaustive value iteration).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import presets, rdp
from .adversary import adversarial_mu, inject, rmd_update
from .config import ExperimentConfig
from .detection import (
    DetectorConfig,
    Verdict,
    comparison_standard,
    detection_accuracy,
    evaluate,
    loss_test_rate,
    norm_rate,
)
from .experiment import final_loss_runner, prepare_state, run, run_training
from .federation import FederationState, RoundRecord
from .model import Architecture, ModelUpdate, forward, gradient, init_params, local_train
from .privacy import PrivacySpec, add_noise, calibrate_sigma, clip
from .rng import substream, substream_seed

CRITERIA: list[tuple[int, str, Callable]] = []


def criterion(number: int, title: str):
    def register(fn):
        CRITERIA.append((number, title, fn))
        return fn

    return register


@dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    details: str
    runtime_s: float


# Shared desk-scale run helpers -----------------------------------------

_DESK = {
    "data.n_samples": 3000,
    "federation.nodes": 100,
    "federation.participants": 30,
    "federation.episodes": 30,
    "privacy.stop_threshold": 0.5,
    "optimizer.kind": "adamax",
    "optimizer.learning_rate": 0.01,
}

_TABLES = {
    "data.n_samples": 400,
    "federation.nodes": 10,
    "federation.participants": 5,
    "federation.episodes": 10,
    "model.hidden": "8,4",
    "privacy.clip": 0.05,
    "privacy.stop_threshold": 0.5,
    "optimizer.kind": "adamax",
    "optimizer.learning_rate": 0.01,
    "attack.mode": "mpelm",
    "attack.m": 1,
}


def _train_run(overrides: dict):
    """One in-memory federation run; returns (initial_loss, records)."""
    cfg = ExperimentConfig.from_dict(overrides)
    state = prepare_state(cfg)
    initial = state.global_validation_loss()
    records, status = run_training(state)
    if status != "ok":
        raise RuntimeError(f"run ended early: {status}")
    return initial, records


def _final_loss(overrides: dict) -> float:
    _, records = _train_run(overrides)
    return records[-1].global_val_loss


# 1 -----------------------------------------------------------------

@criterion(1, "gradient matches central finite differences")
def _gradient_check(_workdir) -> tuple[bool, str]:
    arch = Architecture()
    worst = 0.0
    for trial in range(20):
        rng = substream(1000 + trial, "gradcheck")
        params = init_params(arch, rng) + 0.1 * rng.standard_normal(arch.n_params)
        x = rng.uniform(0, 1, size=(8, 6))
        y = rng.uniform(0, 1, size=8)
        batch = (x, y)
        analytic = gradient(arch, params, batch)

        def loss_at(p):
            residual = forward(arch, p, batch) - y
            return float(np.mean(residual**2))

        h = 1e-6
        numeric = np.empty_like(params)
        for j in range(arch.n_params):
            bump = np.zeros_like(params)
            bump[j] = h
            numeric[j] = (loss_at(params + bump) - loss_at(params - bump)) / (2 * h)
        denom = max(float(np.linalg.norm(numeric)), 1e-12)
        rel = float(np.linalg.norm(analytic - numeric)) / denom
        worst = max(worst, rel)
    return worst < 1e-4, f"worst relative error {worst:.3e} over 20 fixtures (< 1e-4)"


# 2 -----------------------------------------------------------------

@criterion(2, "gaussian mechanism calibration and noise moments")
def _dp_calibration(_workdir) -> tuple[bool, str]:
    sigma = calibrate_sigma(0.7, 0.001, 1.0)
    oracle = math.sqrt(2.0 * math.log(1250.0)) / 0.7
    calib_ok = abs(sigma - oracle) < 1e-9

    spec = PrivacySpec(epsilon=0.7, delta=0.001, clip_c=1.0)
    rng = substream(42, "noise-moments")
    n = 10**5
    draws = np.empty(n)
    base = ModelUpdate(delta=np.zeros(1), node_id=0)
    for i in range(n):
        draws[i] = add_noise(base, spec, rng).delta[0]
    std = spec.noise_std
    mean_ok = abs(float(draws.mean())) < 4.0 * std / math.sqrt(n)
    var_ok = abs(float(draws.var()) - std**2) < 0.05 * std**2
    detail = (
        f"sigma={sigma:.12f} vs oracle {oracle:.12f}; "
        f"mean={draws.mean():.5f} (bound {4*std/math.sqrt(n):.5f}), "
        f"var={draws.var():.4f} vs {std**2:.4f} (5%)"
    )
    return calib_ok and mean_ok and var_ok, detail


# 3 -----------------------------------------------------------------

@criterion(3, "benign federation converges with negligible noise")
def _benign_convergence(_workdir) -> tuple[bool, str]:
    initial, records = _train_run(
        {
            "data.n_samples": 3000,
            "federation.nodes": 100,
            "federation.participants": 30,
            "federation.episodes": 30,
            "privacy.epsilon": 1e6,
            "privacy.stop_threshold": 0.5,
            "optimizer.learning_rate": 0.05,
            "seed": 1729,
        }
    )
    final = records[-1].global_val_loss
    return final < 0.5 * initial, f"initial {initial:.4f} -> final {final:.4f} (need < 0.5x)"


# 4 -----------------------------------------------------------------

@criterion(4, "more DP noise never helps: loss nonincreasing in privacy loss")
def _privacy_utility(_workdir) -> tuple[bool, str]:
    means = []
    for eps in (0.5, 0.7, 1.0):
        losses = [_final_loss({**_DESK, "privacy.epsilon": eps, "seed": s}) for s in range(5)]
        means.append(float(np.mean(losses)))
    ok = means[0] >= means[1] >= means[2]
    return ok, "mean final loss " + " >= ".join(f"{m:.4g}" for m in means)


# 5 -----------------------------------------------------------------

@criterion(5, "a single attacker degrades the paired benign run")
def _single_attacker(_workdir) -> tuple[bool, str]:
    wins = 0
    pairs = []
    for seed in range(5):
        benign = _final_loss({**_DESK, "privacy.epsilon": 0.7, "seed": seed})
        attacked = _final_loss(
            {**_DESK, "privacy.epsilon": 0.7, "seed": seed, "attack.mode": "mpelm", "attack.m": 1}
        )
        wins += attacked > benign
        pairs.append((benign, attacked))
    detail = f"attacked worse in {wins}/5 paired seeds (need >= 4); last pair {pairs[-1]}"
    return wins >= 4, detail


# 6 -----------------------------------------------------------------

@criterion(6, "damage grows with the degree of poisoning")
def _gamma_monotone(_workdir) -> tuple[bool, str]:
    means = {}
    for gamma in (0, 2, 3):
        losses = [
            _final_loss(
                {
                    **_DESK,
                    "privacy.epsilon": 0.7,
                    "seed": s,
                    "attack.mode": "mpelm",
                    "attack.m": 7,
                    "attack.gamma_fixed": gamma,
                }
            )
            for s in range(5)
        ]
        means[gamma] = float(np.mean(losses))
    ok = means[3] >= means[2] >= means[0]
    return ok, f"mean loss g3={means[3]:.4g} >= g2={means[2]:.4g} >= g0={means[0]:.4g}"


# 7 -----------------------------------------------------------------

@criterion(7, "adaptive attack evades every detector at least as well as random updates")
def _stealth_direction(_workdir) -> tuple[bool, str]:
    aborts = 0

    def d_acc(mode: str, kind: str, seed: int) -> float:
        nonlocal aborts
        cfg = ExperimentConfig.from_dict(
            {**presets._DETECTOR_BASE, "attack.mode": mode, "attack.m": 3,
             "detector.kind": kind, "seed": seed}
        )
        state = prepare_state(cfg)
        records, status = run_training(state)
        aborts += status != "ok"  # a degenerate all-flagged episode ends the run
        return detection_accuracy([r.verdicts for r in records], state.cfg.attack.compromised)

    gaps = {}
    ok = True
    for kind in ("norm", "accuracy", "mix"):
        rmd = float(np.mean([d_acc("rmd", kind, s) for s in range(5)]))
        mpelm = float(np.mean([d_acc("mpelm", kind, s) for s in range(5)]))
        gaps[kind] = (rmd, mpelm, rmd - mpelm)
        ok = ok and mpelm <= rmd
    detail = "; ".join(
        f"{k}: rmd {v[0]:.1f} vs adaptive {v[1]:.1f} (gap {v[2]:+.1f} pts)" for k, v in gaps.items()
    )
    if aborts:
        detail += f"; {aborts} run(s) ended early on an all-flagged episode"
    return ok, detail


# 8 -----------------------------------------------------------------

@criterion(8, "zero poisoning degree collapses the attack to the benign mechanism")
def _gamma_zero_collapse(_workdir) -> tuple[bool, str]:
    base = {
        "data.n_samples": 600,
        "federation.nodes": 20,
        "federation.participants": 8,
        "federation.episodes": 5,
        "privacy.epsilon": 0.7,
        "privacy.stop_threshold": 0.5,
        "optimizer.kind": "adamax",
        "seed": 7,
    }
    _, benign = _train_run(base)
    _, attacked = _train_run(
        {**base, "attack.mode": "mpelm", "attack.m": 3, "attack.gamma_fixed": 0.0}
    )
    mu_ok = adversarial_mu(0.0, 3.0) == 0.0
    same = len(benign) == len(attacked) and all(
        a.same_outcome(b) for a, b in zip(benign, attacked)
    )
    return same and mu_ok, f"{len(benign)} episodes bitwise identical: {same}; mean shift collapses: {mu_ok}"


# 9 -----------------------------------------------------------------

@criterion(9, "privacy-level agent converges on generated loss tables")
def _rdp_convergence(workdir) -> tuple[bool, str]:
    base = ExperimentConfig.from_dict({**_TABLES, "seed": 0})
    tables = rdp.generate_loss_tables(
        rdp.default_epsilon_grid(), [0.5, 1.0], [0, 1], final_loss_runner(base)
    )

    window = 1000
    failures = []
    worst = 0.0
    worst_plateau = 0.0
    for alpha in (0.01, 0.001, 0.0001):
        for zeta in (0.15, 0.2, 0.5):
            hyper = rdp.RdpHyper(alpha=alpha, zeta=zeta, max_episodes=60_000)
            result = rdp.train(tables, hyper, seed=11)
            tail = float(np.mean([row["mean_abs_delta_q"] for row in result.trace[-window:]]))
            cum = np.array([row["cumulative_reward"] for row in result.trace[-window:]])
            plateau = float(np.std(cum) / np.mean(cum))
            worst = max(worst, tail)
            worst_plateau = max(worst_plateau, plateau)
            if tail >= 1e-3 or plateau >= 0.01:
                failures.append(f"alpha={alpha} zeta={zeta}: dQ={tail:.2e} plateau={plateau:.3%}")
    diverged = rdp.train(
        tables, rdp.RdpHyper(alpha=0.001, zeta=1.0, max_episodes=20_000), seed=11
    )
    z1 = float(np.mean([row["mean_abs_delta_q"] for row in diverged.trace[-window:]]))
    detail = (
        f"worst trailing |dQ| {worst:.2e} (< 1e-3), worst reward tail std/mean "
        f"{worst_plateau:.3%} (< 1%); zeta=1.0 stays at {z1:.2e} (no bound)"
    )
    if failures:
        detail += "; FAILED: " + "; ".join(failures)
    return not failures, detail


# 10 ----------------------------------------------------------------

class _MdpAction(Enum):
    STAY = 0
    ADVANCE = 1


@criterion(10, "tabular agent reaches the exact Bellman fixed point on a hand MDP")
def _q_exactness(_workdir) -> tuple[bool, str]:
    states = ("low", "mid", "high")
    nxt = {
        ("low", _MdpAction.STAY): "low",
        ("low", _MdpAction.ADVANCE): "mid",
        ("mid", _MdpAction.STAY): "mid",
        ("mid", _MdpAction.ADVANCE): "high",
        ("high", _MdpAction.STAY): "high",
        ("high", _MdpAction.ADVANCE): "low",
    }
    rew = {
        ("low", _MdpAction.STAY): 0.1,
        ("low", _MdpAction.ADVANCE): 0.4,
        ("mid", _MdpAction.STAY): 0.5,
        ("mid", _MdpAction.ADVANCE): 1.0,
        ("high", _MdpAction.STAY): 2.0,
        ("high", _MdpAction.ADVANCE): 0.0,
    }
    zeta = 0.9
    hyper = rdp.RdpHyper(alpha=0.5, zeta=zeta, max_episodes=3000)
    q, _deltas, _rewards = rdp.fit_tabular(
        states, _MdpAction, lambda s, a: nxt[(s, a)], lambda s, a, _s2: rew[(s, a)], hyper, seed=3
    )

    # independent oracle: exhaustive value iteration on the same MDP
    exact = {(s, a): 0.0 for s in states for a in _MdpAction}
    for _ in range(2000):
        exact = {
            (s, a): rew[(s, a)] + zeta * max(exact[(nxt[(s, a)], b)] for b in _MdpAction)
            for s in states
            for a in _MdpAction
        }
    err = max(abs(q[states.index(s), a.value] - exact[(s, a)]) for s in states for a in _MdpAction)
    return err < 1e-6, f"max |Q - Q*| = {err:.2e} (< 1e-6)"


# 11 ----------------------------------------------------------------

def _vec_updates(rows) -> list[ModelUpdate]:
    return [ModelUpdate(delta=np.array(r, dtype=np.float64), node_id=i) for i, r in enumerate(rows)]


@criterion(11, "detector fixtures reproduce exactly; mix equals the union")
def _detector_oracles(_workdir) -> tuple[bool, str]:
    cfg = DetectorConfig(kind="norm", beta1=1.0, beta2=0.1, d_max=10.0)
    checks = []

    updates = _vec_updates([(1, 0), (1, 0), (1, 0), (3, 0)])
    v = norm_rate(updates[3], comparison_standard(updates)[3], cfg)
    checks.append(v.e1 == 4.0 and v.rate == 0.0 and v.flagged)

    same = _vec_updates([(0.5, 1.0)] * 4)
    checks.append(all(not norm_rate(u, st, cfg).flagged for u, st in zip(same, comparison_standard(same))))

    boundary = _vec_updates([(1, 0), (1, 0), (1, 0), (2, 0)])
    v = norm_rate(boundary[3], comparison_standard(boundary)[3], cfg)
    checks.append(v.e1 == 1.0 and v.rate == 1.0 and not v.flagged)

    rate, e2 = loss_test_rate(2.0, 1.0, DetectorConfig(kind="accuracy"))
    checks.append(e2 == 0.5 and rate == 0.5)
    rate, _ = loss_test_rate(1.5, 1.5, DetectorConfig(kind="accuracy"))
    checks.append(rate == 1.0)

    verdicts = [Verdict(node_id=i, rate=0.5 if i in (0, 2) else 1.0) for i in range(10)]
    checks.append(detection_accuracy([verdicts], {0, 1}) == 80.0)

    arch = Architecture(hidden=(2, 2))
    rng = substream(99, "mix-fuzz")
    rows = rng.uniform(0, 1, size=(8, 7))  # six features then the target, row by row
    validation = (rows[:, :6], rows[:, 6])
    union_ok = True
    for _ in range(1000):
        ups = _vec_updates(rng.normal(0, 0.5, size=(4, arch.n_params)))
        params = init_params(arch, rng)
        fuzz_cfg = DetectorConfig(
            kind="mix", beta1=float(rng.uniform(0.2, 2.0)), beta2=float(rng.uniform(0.0, 0.3))
        )
        norm_flags = {
            v.node_id
            for v in evaluate(ups, DetectorConfig(kind="norm", beta1=fuzz_cfg.beta1, beta2=fuzz_cfg.beta2))
            if v.flagged
        }
        acc_flags = {
            v.node_id
            for v in evaluate(
                ups,
                DetectorConfig(kind="accuracy", beta1=fuzz_cfg.beta1, beta2=fuzz_cfg.beta2),
                arch,
                params,
                validation,
            )
            if v.flagged
        }
        mix_flags = {
            v.node_id for v in evaluate(ups, fuzz_cfg, arch, params, validation) if v.flagged
        }
        if mix_flags != norm_flags | acc_flags:
            union_ok = False
            break
    checks.append(union_ok)

    passed = all(checks)
    return passed, f"{sum(checks)}/{len(checks)} fixture groups exact; union fuzz over 1000 episodes"


# 12 ----------------------------------------------------------------

def replay_per_node(state: FederationState) -> tuple[list[RoundRecord], str, list[tuple[int, int]]]:
    """Run training from ``state``, then replay it one node at a time.

    Returns the run's records and status, and its mismatches. Every
    submission of every episode is recomputed alone, from the global
    model that episode started from and the same substreams: a one-shard
    local_train, then clip and noise (inject for compromised nodes, with
    the episode's degree from the run's attack trace), or the rmd draw.
    A mismatch is an (episode, node) pair whose delta differs in any bit
    from the run's, or whose step count differs.
    """
    params = state.global_params.copy()
    records, status = run_training(state)
    gamma = {row["episode"]: row["gamma_t"] for row in state.attack_trace}
    cfg = state.cfg
    spec, seed = cfg.privacy, cfg.seed
    mismatches = []
    for rec in records:
        t = rec.episode
        for update in rec.submitted:
            i = update.node_id
            compromised = i in cfg.attack.compromised
            if compromised and cfg.attack.kind == "rmd":
                expected = rmd_update(spec, substream(seed, "rmd", t, i), len(params), node_id=i)
            else:
                raw = local_train(
                    cfg.arch, params, state.shards[i], cfg.optimizer,
                    substream_seed(seed, "train", t, i), episode=t,
                )
                clipped, noise_rng = clip(raw, spec.clip_c), substream(seed, "noise", t, i)
                if not compromised:
                    expected = add_noise(clipped, spec, noise_rng)
                else:
                    expected = inject(clipped, spec, gamma[t], noise_rng)
            if not (np.array_equal(expected.delta, update.delta) and expected.steps == update.steps):
                mismatches.append((t, i))
        params = rec.global_params_after
    return records, status, mismatches


@criterion(12, "runs are byte-identical across repeats and against per-node training")
def _determinism(workdir) -> tuple[bool, str]:
    name, overrides = presets.expand("smoke")[0]
    cfg = ExperimentConfig.from_dict({**overrides, "seed": 5})
    outs = []
    for label in ("a", "b"):
        bundle = run(cfg, Path(workdir) / f"det-{label}")
        if bundle.status != "ok":
            return False, f"run {label} ended with status {bundle.status}"
        outs.append(bundle)

    mismatches = [
        key for key in outs[0].csv_paths
        if outs[0].csv_paths[key].read_bytes() != outs[1].csv_paths[key].read_bytes()
    ]
    if mismatches:
        return False, f"mismatched CSVs: {mismatches}"
    records, _status, differing = replay_per_node(prepare_state(cfg))
    checked = sum(len(rec.submitted) for rec in records)
    if differing:
        return False, f"{len(differing)} of {checked} submissions differ from per-node training: {differing[:5]}"
    return True, (
        "episodes/ledger/attack/detection/summary CSVs identical across serial x2; "
        f"all {checked} submissions equal per-node training in delta and steps"
    )


# Runner -------------------------------------------------------------

def run_suite(workdir: Path, only: Optional[set[int]] = None) -> list[CriterionResult]:
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    results = []
    for number, title, fn in sorted(CRITERIA):
        if only and number not in only:
            continue
        start = time.time()
        try:
            passed, details = fn(workdir)
        except Exception as exc:  # isolation: one failure never aborts the suite
            passed, details = False, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.time() - start
        results.append(CriterionResult(number, title, passed, details, elapsed))
        status = "PASS" if passed else "FAIL"
        print(f"[{status}] {number:>2}. {title} ({elapsed:.1f}s) - {details}")
    total = sum(r.runtime_s for r in results)
    n_pass = sum(r.passed for r in results)
    print(f"{n_pass}/{len(results)} criteria passed in {total:.1f}s")
    return results
