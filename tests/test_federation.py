import math
from dataclasses import replace

import numpy as np
import pytest

from dpfedsim.acceptance import replay_per_node
from dpfedsim.adversary import AttackConfig
from dpfedsim.config import ExperimentConfig
from dpfedsim.data import partition, synthesize
from dpfedsim.detection import DetectorConfig
from dpfedsim.experiment import prepare_state, run_training
from dpfedsim.federation import (
    EmptyAggregationError,
    FederationConfig,
    FederationState,
    aggregate,
    run_episode,
    select_nodes,
)
from dpfedsim.model import ModelUpdate, OptimizerConfig, mse_loss
from dpfedsim.privacy import PrivacySpec
from dpfedsim.rng import substream


def _fed_cfg(**kw):
    defaults = dict(
        k=10,
        n=4,
        episodes=3,
        seed=0,
        privacy=PrivacySpec(epsilon=2.0, delta=0.001, clip_c=1.0),
        optimizer=OptimizerConfig(local_steps=2),
        stop_threshold=0.5,
    )
    defaults.update(kw)
    return FederationConfig(**defaults)


def _state(cfg, n_samples=200, seed=0):
    shards = partition(synthesize(n_samples, seed=seed), cfg.k, seed=seed)
    return FederationState.create(cfg, shards)


# node selection --------------------------------------------------------

def test_select_all_nodes():
    assert select_nodes(5, 5, substream(0, "s")) == [0, 1, 2, 3, 4]


def test_select_single_reproducible():
    a = select_nodes(100, 1, substream(1, "s", 7))
    b = select_nodes(100, 1, substream(1, "s", 7))
    assert a == b and len(a) == 1


def test_select_rejects_oversample():
    with pytest.raises(ValueError):
        select_nodes(3, 4, substream(0, "s"))


def test_select_sorted_without_replacement():
    ids = select_nodes(50, 20, substream(3, "s"))
    assert ids == sorted(ids)
    assert len(set(ids)) == 20


def test_select_uniform_inclusion_frequency():
    # binomial-frequency oracle: inclusion ~ Bernoulli(0.30) per id
    k, n, trials = 100, 30, 10_000
    counts = np.zeros(k)
    for t in range(trials):
        for i in select_nodes(k, n, substream(9, "freq", t)):
            counts[i] += 1
    freq = counts / trials
    se = math.sqrt(0.3 * 0.7 / trials)
    assert np.all(np.abs(freq - 0.3) < 4 * se)


# aggregation -----------------------------------------------------------

def _upd(node_id, values):
    return ModelUpdate(delta=np.asarray(values, dtype=np.float64), node_id=node_id)


def test_aggregate_zero_updates_keep_global():
    g = np.array([1.0, 2.0])
    out = aggregate(g, [_upd(0, (0, 0)), _upd(1, (0, 0))])
    assert np.array_equal(out, g)


def test_aggregate_single_update():
    g = np.array([1.0, 2.0])
    out = aggregate(g, [_upd(0, (0.5, -0.5))])
    assert np.allclose(out, [1.5, 1.5])


def test_aggregate_matches_mean_oracle():
    rng = substream(0, "agg")
    g = rng.normal(size=6)
    rows = rng.normal(size=(3, 6))
    updates = [_upd(i, rows[i]) for i in range(3)]
    oracle = g + rows.mean(axis=0)
    assert np.allclose(aggregate(g, updates), oracle, rtol=1e-12)


def test_aggregate_order_independent():
    rng = substream(1, "agg")
    g = rng.normal(size=4)
    updates = [_upd(i, rng.normal(size=4)) for i in range(5)]
    a = aggregate(g, updates)
    b = aggregate(g, list(reversed(updates)))
    assert np.array_equal(a, b)


def test_aggregate_rejects_empty_and_mismatched():
    with pytest.raises(ValueError):
        aggregate(np.zeros(3), [])
    with pytest.raises(ValueError):
        aggregate(np.zeros(3), [_upd(0, (1, 2))])


# episodes --------------------------------------------------------------

def test_episode_noop_when_inert():
    # single node, negligible noise, zero learning rate: nothing changes
    cfg = _fed_cfg(
        k=1,
        n=1,
        privacy=PrivacySpec(epsilon=1e300, delta=0.001, clip_c=1.0),
        optimizer=OptimizerConfig(learning_rate=0.0, local_steps=1),
    )
    state = _state(cfg, n_samples=40)
    before = state.global_params.copy()
    loss_before = state.global_validation_loss()
    record = run_episode(state)
    assert np.allclose(record.global_params_after, before, atol=1e-280)
    assert record.global_val_loss == pytest.approx(loss_before, abs=1e-12)


def test_episode_detector_noop_matches_off():
    cfg = _fed_cfg(privacy=PrivacySpec(epsilon=1e300, delta=0.001, clip_c=1.0))
    permissive = DetectorConfig(kind="norm", beta1=1e9, d_max=10.0)
    s_off = _state(cfg)
    s_on = _state(replace(cfg, detector=permissive))
    r_off = run_episode(s_off)
    r_on = run_episode(s_on)
    assert r_on.flagged == frozenset()
    assert r_off.same_outcome(r_on)


def test_episode_submitted_count_and_flag_subset():
    cfg = _fed_cfg()
    state = _state(cfg)
    record = run_episode(state)
    assert len(record.submitted) == cfg.n
    assert set(record.flagged) <= {u.node_id for u in record.submitted}


def test_episode_clipped_before_noise():
    # reconstruct the noise each node received and remove it: what is
    # left is the clipped update, whose norm must respect the threshold
    cfg = _fed_cfg()
    state = _state(cfg)
    record = run_episode(state)
    for update in record.submitted:
        noise = cfg.privacy.noise_std * substream(
            cfg.seed, "noise", record.episode, update.node_id
        ).standard_normal(update.delta.shape)
        clipped = update.delta - noise
        assert np.linalg.norm(clipped) <= cfg.privacy.clip_c * (1 + 1e-9)


def test_pooled_validation_is_built_once_in_node_id_order():
    cfg = _fed_cfg()
    state = _state(cfg)
    ordered = sorted(state.shards, key=lambda s: s.node_id)
    x, y = state.pooled_validation
    assert np.array_equal(x, np.concatenate([s.validation.x for s in ordered]))
    assert np.array_equal(y, np.concatenate([s.validation.y for s in ordered]))
    run_episode(state)
    loss = mse_loss(cfg.arch, state.global_params, (x, y))
    assert state.global_validation_loss().hex() == loss.hex()


def test_episode_all_flagged_aborts():
    # impossible benchmark: every model beyond it
    cfg = _fed_cfg(n=3, detector=DetectorConfig(kind="norm", beta1=1e-12, d_max=10.0))
    state = _state(cfg)
    # large DP noise guarantees positive distances
    with pytest.raises(EmptyAggregationError):
        run_episode(state)


def test_episode_requires_live_ledger():
    cfg = _fed_cfg(stop_threshold=1e-9)
    state = _state(cfg)
    run_episode(state)
    with pytest.raises(RuntimeError, match="ledger"):
        run_episode(state)


def test_create_rejects_shards_out_of_node_id_order():
    cfg = _fed_cfg()
    shards = partition(synthesize(200, seed=0), cfg.k, seed=0)
    with pytest.raises(ValueError, match="position 0 has node_id 9"):
        FederationState.create(cfg, shards[::-1])


def test_accuracy_detector_requires_server_validation():
    cfg = _fed_cfg(detector=DetectorConfig(kind="accuracy"))
    with pytest.raises(ValueError, match="server validation"):
        _state(cfg)


# training loop ----------------------------------------------------------

def test_training_single_episode():
    cfg = _fed_cfg(episodes=1)
    records, status = run_training(_state(cfg))
    assert len(records) == 1 and status == "ok"


def test_training_stops_with_ledger():
    # delta 0.001 per episode and threshold 0.0025: stop after the third
    cfg = _fed_cfg(episodes=10, stop_threshold=0.0025)
    records, status = run_training(_state(cfg))
    assert len(records) == 3 and status == "ok"
    assert records[-1].delta_cumulative > cfg.stop_threshold


def test_training_bitwise_reproducible():
    cfg = _fed_cfg(episodes=3)
    a, _ = run_training(_state(cfg))
    b, _ = run_training(_state(cfg))
    assert len(a) == len(b)
    assert all(x.same_outcome(y) for x, y in zip(a, b))


@pytest.mark.parametrize(
    "attack,gamma_fixed",
    [
        pytest.param(None, None, id="None"),
        pytest.param("mpelm", 0.5, id="mpelm"),
        pytest.param("rmd", 0.5, id="rmd"),
        pytest.param("mpelm", None, id="mpelm_adaptive"),
    ],
)
def test_training_equals_per_node_reference(attack, gamma_fixed):
    # each submission recomputed alone by the acceptance replay: one-shard
    # local_train, clip, then noise (inject with the episode's one degree
    # from the run's attack trace for compromised nodes) or the rmd draw,
    # from the same substreams and the global model the episode started from
    config = AttackConfig()
    if attack:
        config = AttackConfig(kind=attack, compromised=frozenset({1, 4}), gamma_fixed=gamma_fixed)
    state = _state(_fed_cfg(k=8, n=5, episodes=3, attack=config))
    records, status, mismatches = replay_per_node(state)
    assert status == "ok" and len(records) == 3
    assert mismatches == []
    if attack == "mpelm" and gamma_fixed is None:
        # the controller paused once: the one degree is then 0
        assert 0.0 in [row["gamma_t"] for row in state.attack_trace]
    for rec in records:
        selected = select_nodes(state.cfg.k, state.cfg.n, substream(state.cfg.seed, "select", rec.episode))
        assert [u.node_id for u in rec.submitted] == selected
    seen_compromised = sum(u.node_id in config.compromised for rec in records for u in rec.submitted)
    assert seen_compromised > 0 or attack is None


def test_submitted_updates_report_training_steps():
    local_steps = 12
    cfg = _fed_cfg(optimizer=OptimizerConfig(learning_rate=0.2, local_steps=local_steps, patience=1))
    records, _ = run_training(_state(cfg))
    steps = [u.steps for rec in records for u in rec.submitted]
    assert all(1 <= s <= local_steps for s in steps)
    assert min(steps) < local_steps  # some node stopped early


def test_training_reports_empty_aggregation_status():
    detector = DetectorConfig(kind="norm", beta1=1e-12, d_max=10.0)  # flags every update
    cfg = _fed_cfg(n=3, episodes=5, detector=detector)
    records, status = run_training(_state(cfg))
    assert records == [] and status == "aborted_empty_aggregation_episode_1"


def test_attacked_run_with_gamma_zero_equals_benign():
    base = {
        "data.n_samples": 300,
        "federation.nodes": 10,
        "federation.participants": 5,
        "federation.episodes": 4,
        "privacy.epsilon": 0.7,
        "privacy.stop_threshold": 0.5,
        "seed": 3,
    }
    cfg_b = ExperimentConfig.from_dict(base)
    benign, _ = run_training(prepare_state(cfg_b))

    cfg_a = ExperimentConfig.from_dict(
        {**base, "attack.mode": "mpelm", "attack.m": 3, "attack.gamma_fixed": 0.0}
    )
    attacked, _ = run_training(prepare_state(cfg_a))

    assert len(benign) == len(attacked)
    assert all(x.same_outcome(y) for x, y in zip(benign, attacked))


def test_rmd_nodes_submit_without_training():
    cfg = _fed_cfg(k=5, n=5, episodes=1, attack=AttackConfig(kind="rmd", compromised=frozenset({0})))
    shards = partition(synthesize(100, seed=1), cfg.k, seed=1)
    records, _ = run_training(FederationState.create(cfg, shards))
    rec = records[0]
    assert [u.node_id for u in rec.submitted if u.node_id in cfg.attack.compromised] == [0]
    # the compromised submission reflects the clip-scaled random vector,
    # not a trained update: reconstruct it from its substream
    spec = cfg.privacy
    rng = substream(cfg.seed, "rmd", 1, 0)
    direction = rng.uniform(-1, 1, size=len(rec.submitted[0].delta))
    expected = direction * (spec.clip_c / np.linalg.norm(direction))
    expected = expected + spec.noise_std * rng.standard_normal(len(direction))
    submitted = next(u for u in rec.submitted if u.node_id == 0)
    assert np.array_equal(submitted.delta, expected)


def test_adaptive_attacker_steps_only_when_active():
    attack = AttackConfig(kind="mpelm", compromised=frozenset({0}), gamma0=0.7)
    cfg = _fed_cfg(k=20, n=3, episodes=5, attack=attack)
    shards = partition(synthesize(300, seed=2), cfg.k, seed=2)
    state = FederationState.create(cfg, shards)
    records, _ = run_training(state)
    active_episodes = [r.episode for r in records if any(u.node_id in attack.compromised for u in r.submitted)]
    assert [row["episode"] for row in state.attack_trace] == active_episodes
    losses = [row["avg_compromised_val_loss"] for row in state.attack_trace]
    assert len(losses) == len(active_episodes) and all(math.isfinite(x) for x in losses)


def test_federation_config_validation():
    with pytest.raises(ValueError):
        _fed_cfg(n=11)
    with pytest.raises(ValueError):
        _fed_cfg(episodes=0)
