import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpfedsim.adversary import (
    AttackConfig,
    adversarial_mu,
    episodic_loss,
    gamma_for_episode,
    inject,
    rmd_update,
    tune_poison_degree,
)
from dpfedsim.data import partition, synthesize
from dpfedsim.federation import FederationConfig, FederationState
from dpfedsim.model import Architecture, ModelUpdate, init_params
from dpfedsim.privacy import PrivacySpec, add_noise
from dpfedsim.rng import substream


def _cfg(**kw):
    defaults = dict(kind="mpelm", compromised=frozenset({0, 1}), gamma0=0.7, rho=0.1, r_hi=1.5, r_lo=0.5)
    defaults.update(kw)
    return AttackConfig(**defaults)


# adversarial mean shift -------------------------------------------------

def test_mu_collapses_at_zero_gamma():
    assert adversarial_mu(0.0, 3.0) == 0.0


def test_mu_fixture_values():
    assert adversarial_mu(2.0, 1.0) == pytest.approx(2.0)
    assert adversarial_mu(3.0, 0.5) == pytest.approx(math.sqrt(6) / 2)


def test_mu_rejects_negative_gamma():
    with pytest.raises(ValueError):
        adversarial_mu(-0.1, 1.0)


@given(st.floats(0.01, 10), st.floats(0.01, 10))
@settings(max_examples=50, deadline=None)
def test_mu_strictly_increasing_in_gamma(gamma, sigma_x):
    assert adversarial_mu(gamma + 0.5, sigma_x) > adversarial_mu(gamma, sigma_x)


# injection --------------------------------------------------------------

SPEC = PrivacySpec(epsilon=0.7, delta=0.001, clip_c=1.0)


def test_inject_gamma_zero_equals_benign_mechanism():
    clipped = ModelUpdate(delta=np.linspace(-1, 1, 12), node_id=3)
    benign = add_noise(clipped, SPEC, substream(5, "noise", 2, 3))
    attacked = inject(clipped, SPEC, 0.0, substream(5, "noise", 2, 3))
    assert np.array_equal(benign.delta, attacked.delta)


def test_inject_zero_variance_is_pure_shift():
    # epsilon enormous: noise std underflows, leaving only the mean shift
    spec = PrivacySpec(epsilon=1e300, delta=0.001, clip_c=1.0)
    clipped = ModelUpdate(delta=np.zeros(4), node_id=0)
    out = inject(clipped, spec, 2.0, substream(0, "n"))
    mu = adversarial_mu(2.0, spec.noise_std)
    assert np.allclose(out.delta, mu, atol=1e-280)


def test_inject_mean_estimator():
    # 1e5 scalar draws with gamma=2, sigma_x = S*sigma = 1
    spec = PrivacySpec(epsilon=math.sqrt(2 * math.log(1250.0)), delta=0.001, clip_c=1.0)
    assert spec.noise_std == pytest.approx(1.0)
    clipped = ModelUpdate(delta=np.zeros(10**5), node_id=0)
    out = inject(clipped, spec, 2.0, substream(8, "est"))
    assert abs(out.delta.mean() - 2.0) < 4.0 / math.sqrt(10**5)


# controller -------------------------------------------------------------

def test_first_step_keeps_initial_gamma():
    gamma_episode, gamma_current, ratio = tune_poison_degree([], 0.7, 1.23, _cfg())
    assert gamma_episode == 0.7
    assert ratio == 0.0
    assert gamma_current == 0.7


def test_ratio_one_damps_gamma():
    gamma_episode, gamma_current, ratio = tune_poison_degree([2.0], 0.7, 2.0, _cfg(rho=0.1))
    assert ratio == 1.0
    assert gamma_episode == pytest.approx(0.7 * 0.9)
    assert gamma_current == gamma_episode


def test_high_ratio_pauses_but_preserves_gamma():
    gamma_episode, gamma_current, ratio = tune_poison_degree([1.0], 0.7, 2.0, _cfg(r_hi=1.5))
    assert ratio == 2.0
    assert gamma_episode == 0.0
    assert gamma_current == 0.7  # last nonzero retained


def test_low_ratio_amplifies_fixture():
    # 0.7 + 0.1 * 0.4 * 0.7 = 0.728
    gamma_episode, gamma_current, _ = tune_poison_degree([1.0], 0.7, 0.4, _cfg(rho=0.1, r_lo=0.5))
    assert gamma_episode == pytest.approx(0.728)
    assert gamma_current == pytest.approx(0.728)


def test_zero_history_mean_treated_as_ratio_one():
    gamma_episode, _, ratio = tune_poison_degree([0.0], 0.5, 1.0, _cfg(rho=0.1))
    assert ratio == 1.0
    assert gamma_episode == pytest.approx(0.45)


def test_loss_appended_after_ratio():
    _, gamma, _ = tune_poison_degree([], 0.7, 4.0, _cfg())
    _, _, ratio = tune_poison_degree([4.0], gamma, 2.0, _cfg())
    # the ratio of the second step uses only the first loss
    assert ratio == pytest.approx(0.5)


@given(
    ratio=st.floats(0.0, 10.0),
    gamma=st.floats(0.01, 5.0),
    rho=st.floats(0.01, 0.5),
)
@settings(max_examples=200, deadline=None)
def test_gamma_branches_exhaustive_and_nonnegative(ratio, gamma, rho):
    cfg = _cfg(rho=rho)
    gamma_episode, gamma_current, _ = tune_poison_degree([1.0], gamma, ratio, cfg)
    assert gamma_episode >= 0.0
    assert gamma_current > 0.0
    if gamma_episode == 0.0:
        assert gamma_current == gamma
    if ratio > cfg.r_hi:
        assert gamma_episode == 0.0
    elif ratio < cfg.r_lo:
        assert gamma_episode >= gamma
    else:
        assert gamma_episode <= gamma


def test_loss_list_tracks_step_count():
    # the run's trace is the controller's memory: step k sees the k - 1
    # earlier losses and the last gamma_current
    cfg = _cfg()
    shards = partition(synthesize(60, seed=1), 3, seed=1)
    state = FederationState.create(FederationConfig(k=3, n=3, attack=cfg, arch=Architecture(hidden=(2, 2))), shards)
    losses, gamma = [], cfg.gamma0
    for k in range(1, 8):
        state.episode = k
        row = gamma_for_episode(state)
        loss = row["avg_compromised_val_loss"]
        gamma_episode, gamma, ratio = tune_poison_degree(losses, gamma, loss, cfg)
        assert (row["episode"], row["gamma_t"], row["gamma_current"], row["loss_ratio"]) == (
            k, gamma_episode, gamma, ratio
        )
        losses.append(loss)
        state.attack_trace.append(row)
        assert len(state.attack_trace) == k
        state.global_params = state.global_params + 0.05  # a new loss every episode


def test_episodic_loss_averages_shards():
    arch = Architecture(hidden=(2, 2))
    shards = partition(synthesize(60, seed=1), 3, seed=1)
    params = init_params(arch, substream(0, "init"))
    from dpfedsim.model import mse_loss

    oracle = np.mean([mse_loss(arch, params, (s.validation.x, s.validation.y)) for s in shards])
    assert episodic_loss(arch, params, shards) == pytest.approx(oracle, rel=1e-14)


def test_attack_config_validation():
    with pytest.raises(ValueError):
        _cfg(rho=0.0)
    with pytest.raises(ValueError):
        _cfg(r_hi=0.9)
    with pytest.raises(ValueError):
        _cfg(r_lo=1.1)
    with pytest.raises(ValueError, match="fixed degree"):
        _cfg(gamma_fixed=-1.0)
    with pytest.raises(ValueError, match="unknown attack kind"):
        _cfg(kind="random")
    # "none" is the one spelling of no attack, and it has no compromised nodes
    with pytest.raises(ValueError, match="compromised"):
        _cfg(kind="none")
    assert AttackConfig() == AttackConfig(kind="none", compromised=frozenset())


# random-update baseline --------------------------------------------------

def test_rmd_prenoise_norm_equals_clip():
    spec = PrivacySpec(epsilon=1e300, delta=0.001, clip_c=0.7)  # noise underflows
    out = rmd_update(spec, substream(1, "rmd"), 50)
    assert np.linalg.norm(out.delta) == pytest.approx(0.7, rel=1e-9)


def test_rmd_distinct_directions():
    spec = PrivacySpec(epsilon=1.0, delta=0.001, clip_c=1.0)
    a = rmd_update(spec, substream(1, "rmd", 0), 20)
    b = rmd_update(spec, substream(1, "rmd", 1), 20)
    assert not np.allclose(a.delta, b.delta)


def test_rmd_direction_mean_near_zero():
    spec = PrivacySpec(epsilon=1e300, delta=0.001, clip_c=1.0)
    q = 12
    draws = np.stack([rmd_update(spec, substream(2, "rmd", i), q).delta for i in range(1000)])
    # per-coordinate mean within 4 standard errors of 0
    se = draws.std(axis=0) / math.sqrt(len(draws))
    assert np.all(np.abs(draws.mean(axis=0)) < 4 * se)
