import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpfedsim.detection import (
    DetectorConfig,
    Verdict,
    accuracy_rate,
    comparison_standard,
    detection_accuracy,
    evaluate,
    loss_test_rate,
    norm_rate,
)
from dpfedsim.model import Architecture, ModelUpdate, init_params, mse_loss
from dpfedsim.rng import substream

CFG = DetectorConfig(kind="norm", beta1=1.0, beta2=0.1, d_max=10.0)


def _ups(rows):
    return [ModelUpdate(delta=np.asarray(r, dtype=np.float64), node_id=i)
            for i, r in enumerate(rows)]


def _norm(ups, i, cfg=CFG):
    return norm_rate(ups[i], comparison_standard(ups)[i], cfg)


# comparison standard -------------------------------------------------

def test_standard_of_identical_updates():
    ups = _ups([(2.0, -1.0)] * 5)
    for standard in comparison_standard(ups):
        assert np.allclose(standard, [2.0, -1.0])


def test_standard_excludes_self():
    ups = _ups([(2, 0), (0, 0), (0, 0)])
    assert np.allclose(comparison_standard(ups)[0], [0.0, 0.0])


def test_standard_matches_leave_one_out_mean():
    rng = substream(0, "st")
    for trial in range(4):
        rows = rng.normal(size=(5, 7))
        ups = _ups(rows)
        i = trial % 5
        oracle = np.mean([r for j, r in enumerate(rows) if j != i], axis=0)
        assert np.allclose(comparison_standard(ups)[i], oracle, rtol=1e-12)


def test_standard_needs_two_updates():
    with pytest.raises(ValueError):
        comparison_standard(_ups([(1, 2)]))


# norm detection -------------------------------------------------------

def test_norm_identical_updates_pass():
    ups = _ups([(1.0, 1.0)] * 4)
    for i in range(4):
        v = _norm(ups, i)
        assert v.rate == 1.0 and not v.flagged and v.e1 == 0.0


def test_norm_hand_evaluated_fixture():
    # st = (1,0); d = 4; e1 = 4; rate = clamp(1 - 3) = 0
    ups = _ups([(1, 0), (1, 0), (1, 0), (3, 0)])
    v = _norm(ups, 3)
    assert v.d == 4.0
    assert v.e1 == 4.0
    assert v.rate == 0.0 and v.flagged


def test_norm_boundary_not_flagged():
    # e1 exactly beta1: max(0, 0) = 0 -> rate 1
    ups = _ups([(1, 0), (1, 0), (1, 0), (2, 0)])
    v = _norm(ups, 3)
    assert v.e1 == 1.0 and v.rate == 1.0 and not v.flagged


def test_norm_dmax_cap():
    ups = _ups([(0.1, 0), (0.1, 0), (0.1, 0), (100, 0)])
    v = _norm(ups, 3)
    assert v.e1 == CFG.d_max


def test_norm_degenerate_standard():
    # standard is the zero vector but the update deviates: e1 = d_max
    ups = _ups([(1, 0), (-1, 0), (0.5, 0.5)])
    # for i=2 the standard is mean of (1,0), (-1,0) = (0,0)
    v = _norm(ups, 2)
    assert v.e1 == CFG.d_max and v.flagged


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_norm_rate_in_unit_interval(seed):
    rng = substream(seed, "fuzz")
    ups = _ups(rng.normal(0, 2, size=(4, 6)))
    for i in range(4):
        v = _norm(ups, i)
        assert 0.0 <= v.rate <= 1.0
        assert v.flagged == (v.rate < 1.0)


def test_norm_verdicts_pure_function_of_updates():
    rng = substream(23, "pure")
    rows = rng.normal(0, 1, size=(5, 4))
    a = [_norm(_ups(rows), i) for i in range(5)]
    b = [_norm(_ups(rows), i) for i in range(5)]
    assert [(v.rate, v.flagged) for v in a] == [(v.rate, v.flagged) for v in b]


def test_norm_monotone_leniency():
    rng = substream(17, "len")
    ups = _ups(rng.normal(0, 2, size=(6, 5)))
    flagged_by_beta = []
    for beta1 in (0.5, 1.0, 2.0, 5.0):
        cfg = DetectorConfig(kind="norm", beta1=beta1)
        flagged_by_beta.append({v.node_id for v in evaluate(ups, cfg) if v.flagged})
    for tighter, looser in zip(flagged_by_beta, flagged_by_beta[1:]):
        assert looser <= tighter


# accuracy detection ---------------------------------------------------

def test_loss_test_equal_losses_pass():
    rate, e2 = loss_test_rate(1.5, 1.5, DetectorConfig(kind="accuracy"))
    assert rate == 1.0 and e2 == 0.0


def test_loss_test_reversed_fixture():
    rate, e2 = loss_test_rate(2.0, 1.0, DetectorConfig(kind="accuracy"))
    assert e2 == 0.5 and rate == 0.5


def test_loss_test_benchmark_boundary():
    cfg = DetectorConfig(kind="accuracy", beta2=0.5)
    rate, e2 = loss_test_rate(2.0, 1.0, cfg)
    assert e2 == 0.5 and rate == 1.0  # e2 == beta2 -> pass


def _accuracy_setup(seed=0):
    arch = Architecture(hidden=(2, 2))
    rng = substream(seed, "acc")
    params = init_params(arch, rng)
    rows = rng.uniform(0, 1, size=(10, 7))  # six features then the target, row by row
    return arch, params, (rows[:, :6], rows[:, 6]), rng


def test_accuracy_rate_end_to_end_flags_loss_increaser():
    arch, params, val, rng = _accuracy_setup()
    benign = [ModelUpdate(delta=np.zeros(arch.n_params), node_id=i) for i in range(3)]
    hostile = ModelUpdate(delta=rng.normal(3.0, 1.0, arch.n_params), node_id=3)
    ups = benign + [hostile]
    cfg = DetectorConfig(kind="accuracy", beta2=0.1)
    standards = comparison_standard(ups)
    v = accuracy_rate(ups[3], standards[3], cfg, arch, params, val)
    assert v.loss_i > v.loss_st
    assert v.flagged
    v0 = accuracy_rate(ups[0], standards[0], cfg, arch, params, val)
    assert not v0.flagged  # zero update against near-zero standard


# mix ------------------------------------------------------------------

def test_mix_union_trivial_cases():
    arch, params, val, rng = _accuracy_setup(1)
    cfg = DetectorConfig(kind="mix")
    ups = _ups([np.zeros(arch.n_params)] * 3)
    assert not any(v.flagged for v in evaluate(ups, cfg, arch, params, val))


def test_mix_is_union_of_flag_sets():
    arch, params, val, rng = _accuracy_setup(2)
    for _ in range(25):
        ups = _ups(rng.normal(0, 1.0, size=(5, arch.n_params)))
        cfg = DetectorConfig(kind="mix", beta1=float(rng.uniform(0.3, 2)), beta2=float(rng.uniform(0, 0.2)))
        norm_flags = {v.node_id for v in evaluate(ups, DetectorConfig(kind="norm", beta1=cfg.beta1)) if v.flagged}
        acc_cfg = DetectorConfig(kind="accuracy", beta2=cfg.beta2)
        acc_flags = {v.node_id for v in evaluate(ups, acc_cfg, arch, params, val) if v.flagged}
        mix_verdicts = evaluate(ups, cfg, arch, params, val)
        assert {v.node_id for v in mix_verdicts if v.flagged} == norm_flags | acc_flags
        assert (norm_flags | acc_flags) >= norm_flags and (norm_flags | acc_flags) >= acc_flags


# one total per episode --------------------------------------------------

@pytest.mark.parametrize("n", [2, 5, 30])
def test_evaluate_equals_per_node_standard_oracle(n):
    # evaluate derives every standard from one stacked sum; the oracle
    # builds each node's standard alone as (sum - d_i) / (n - 1)
    arch, params, val, rng = _accuracy_setup(n)
    rows = rng.normal(0, 1.0, size=(n, arch.n_params))
    ups = _ups(rows)
    total = np.sum(rows, axis=0)
    alone = [(total - rows[i]) / (n - 1) for i in range(n)]
    cfg = {kind: DetectorConfig(kind=kind, beta1=0.8, beta2=0.05) for kind in ("norm", "accuracy", "mix")}
    norm = [norm_rate(ups[i], alone[i], cfg["norm"]) for i in range(n)]
    acc = [accuracy_rate(ups[i], alone[i], cfg["accuracy"], arch, params, val) for i in range(n)]
    for i in range(n):
        diff = ups[i].delta - alone[i]
        assert norm[i].d == float(diff @ diff)
        assert acc[i].loss_st == mse_loss(arch, params + alone[i], val)
    assert np.array_equal(comparison_standard(ups), alone)
    assert evaluate(ups, DetectorConfig(kind="off")) == []

    terms_of = ("d", "e1", "e2", "loss_i", "loss_st")

    def terms(verdicts):
        return np.array([[v.node_id, v.rate] + [getattr(v, t) for t in terms_of] for v in verdicts])

    by_kind = {
        "norm": evaluate(ups, cfg["norm"]),
        "accuracy": evaluate(ups, cfg["accuracy"], arch, params, val),
        "mix": evaluate(ups, cfg["mix"], arch, params, val),
    }
    # one verdict shape for every kind, NaN exactly where the kind computes nothing
    uncomputed = {"norm": {"e2", "loss_i", "loss_st"}, "accuracy": {"d", "e1"}, "mix": set()}
    for kind, verdicts in by_kind.items():
        for v in verdicts:
            assert type(v) is Verdict
            assert {t for t in terms_of if math.isnan(getattr(v, t))} == uncomputed[kind], kind
    assert np.array_equal(terms(by_kind["norm"]), terms(norm), equal_nan=True)
    assert np.array_equal(terms(by_kind["accuracy"]), terms(acc), equal_nan=True)
    # mix: each node's min rate, carrying the norm test's d/e1 and the accuracy test's e2/loss_i/loss_st
    expected = terms(norm)
    expected[:, 1] = np.minimum(terms(norm)[:, 1], terms(acc)[:, 1])
    expected[:, 4:] = terms(acc)[:, 4:]
    assert np.array_equal(terms(acc)[:, 0], expected[:, 0])
    assert np.array_equal(terms(by_kind["mix"]), expected)


# detection accuracy ---------------------------------------------------

def _verdicts(rates):
    return [Verdict(node_id=i, rate=r) for i, r in enumerate(rates)]


def test_accuracy_perfect_detector():
    vs = _verdicts([0.2, 0.3] + [1.0] * 8)
    assert detection_accuracy([vs], {0, 1}) == 100.0


def test_accuracy_detector_flags_nothing():
    vs = _verdicts([1.0] * 10)
    assert detection_accuracy([vs], {0, 1}) == pytest.approx(100 * 8 / 10)


def test_accuracy_confusion_fixture():
    # flags one of two malicious plus one benign: 8 correct of 10
    vs = _verdicts([0.5, 1.0, 0.5] + [1.0] * 7)
    assert detection_accuracy([vs], {0, 1}) == 80.0


def test_accuracy_averages_over_episodes():
    perfect = _verdicts([0.1, 1.0, 1.0, 1.0])
    blind = _verdicts([1.0, 1.0, 1.0, 1.0])
    assert detection_accuracy([perfect, blind], {0}) == pytest.approx((100.0 + 75.0) / 2)


def test_accuracy_empty_input():
    assert detection_accuracy([], {0}) == 0.0
