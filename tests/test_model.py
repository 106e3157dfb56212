import warnings

import numpy as np
import pytest

from dpfedsim.data import batches, partition, synthesize
from dpfedsim.model import (
    Architecture,
    OptimizerConfig,
    TrainingDivergedError,
    forward,
    gradient,
    init_params,
    local_train,
    mse_loss,
    train_stack,
    unpack,
)
from dpfedsim.rng import substream

ARCH = Architecture()


def _batch(rng, size=8):
    x = rng.uniform(0, 1, size=(size, 6))
    y = rng.uniform(0, 1, size=size)
    return x, y


def test_param_count():
    # 6->16->8->1 fully connected with biases
    assert ARCH.n_params == 6 * 16 + 16 + 16 * 8 + 8 + 8 * 1 + 1


def test_forward_zero_params_zero_output():
    x, y = _batch(substream(0, "b"))
    preds = forward(ARCH, np.zeros(ARCH.n_params), (x, y))
    assert np.array_equal(preds, np.zeros(len(y)))


def test_forward_batch_independence():
    rng = substream(1, "b")
    params = init_params(ARCH, rng)
    x, y = _batch(rng, size=32)
    full = forward(ARCH, params, (x, y))
    single = forward(ARCH, params, (x[:1], y[:1]))
    assert full[0] == pytest.approx(single[0], abs=1e-12)


def test_forward_matches_scalar_reference():
    # independent oracle: plain-Python evaluation of the same network
    rng = substream(2, "b")
    params = init_params(ARCH, rng)
    x, y = _batch(rng, size=1)
    (w1, b1), (w2, b2), (w3, b3) = unpack(ARCH, params)

    h1 = [max(0.0, sum(x[0][i] * w1[i][j] for i in range(6)) + b1[j]) for j in range(16)]
    h2 = [max(0.0, sum(h1[i] * w2[i][j] for i in range(16)) + b2[j]) for j in range(8)]
    out = sum(h2[i] * w3[i][0] for i in range(8)) + b3[0]
    assert forward(ARCH, params, (x, y))[0] == pytest.approx(out, rel=1e-12)


def test_forward_dimension_mismatch():
    with pytest.raises(ValueError):
        forward(ARCH, np.zeros(10), _batch(substream(0, "b")))


def test_mse_zero_when_predictions_match():
    data = synthesize(20, seed=3, noise_scale=0.0)
    x, y = data.x, data.y
    params = np.zeros(ARCH.n_params)
    # build labels equal to model output (all zeros)
    assert mse_loss(ARCH, params, (x, np.zeros(len(y)))) == 0.0


def test_mse_constant_zero_model_unit_targets():
    x = np.zeros((5, 6))
    y = np.ones(5)
    assert mse_loss(ARCH, np.zeros(ARCH.n_params), (x, y)) == 1.0


def test_mse_matches_direct_summation():
    rng = substream(4, "b")
    params = init_params(ARCH, rng)
    x, y = _batch(rng, size=7)
    preds = forward(ARCH, params, (x, y))
    oracle = sum((p - t) ** 2 for p, t in zip(preds, y)) / 7
    assert mse_loss(ARCH, params, (x, y)) == pytest.approx(oracle, rel=1e-14)


def test_mse_empty_errors():
    with pytest.raises(ValueError):
        mse_loss(ARCH, np.zeros(ARCH.n_params), (np.empty((0, 6)), np.empty(0)))


def test_gradient_zero_at_perfect_fit():
    x = np.zeros((4, 6))
    y = np.zeros(4)
    g = gradient(ARCH, np.zeros(ARCH.n_params), (x, y))
    assert np.array_equal(g, np.zeros(ARCH.n_params))


def test_gradient_single_linear_neuron_closed_form():
    # 1-neuron-ish check through the analytic chain: with weights set so
    # the network is linear in one coordinate, grad of output bias is
    # 2 * residual / batch
    params = np.zeros(ARCH.n_params)
    x = np.zeros((1, 6))
    y = np.array([1.0])
    g = gradient(ARCH, params, (x, y))
    # output bias is the final parameter; residual = -1
    assert g[-1] == pytest.approx(2.0 * (0.0 - 1.0))


def test_gradient_matches_finite_differences():
    rng = substream(5, "b")
    params = init_params(ARCH, rng) + 0.05 * rng.standard_normal(ARCH.n_params)
    batch = _batch(rng, size=6)
    analytic = gradient(ARCH, params, batch)
    h = 1e-6
    numeric = np.empty_like(params)
    for j in range(ARCH.n_params):
        e = np.zeros_like(params)
        e[j] = h
        numeric[j] = (mse_loss(ARCH, params + e, batch) - mse_loss(ARCH, params - e, batch)) / (2 * h)
    rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
    assert rel < 1e-4


def _shard(seed=0, n=60):
    return partition(synthesize(n, seed=seed), 1, seed=seed)[0]


def test_local_train_zero_learning_rate():
    shard = _shard()
    rng0 = substream(0, "init")
    params = init_params(ARCH, rng0)
    cfg = OptimizerConfig(learning_rate=0.0, local_steps=3)
    update = local_train(ARCH, params, shard, cfg, 5)
    assert np.array_equal(update.delta, np.zeros(ARCH.n_params))


def test_local_train_single_step_closed_form():
    shard = _shard()
    params = init_params(ARCH, substream(0, "init"))
    cfg = OptimizerConfig(kind="mbgd", learning_rate=0.01, local_steps=1, early_stop=False)
    update = local_train(ARCH, params, shard, cfg, 5)
    first_batch = next(batches(shard.train, cfg.batch_size, 5))
    expected = -cfg.learning_rate * gradient(ARCH, params, first_batch)
    # (w - lr*g) - w loses a few low bits against -lr*g directly
    assert np.allclose(update.delta, expected, rtol=1e-10, atol=1e-16)


def test_local_train_two_step_replay():
    # scalar replay oracle: run the same two batches by hand
    shard = _shard(seed=3)
    params = init_params(ARCH, substream(1, "init"))
    cfg = OptimizerConfig(kind="mbgd", learning_rate=0.02, local_steps=2, early_stop=False)
    update = local_train(ARCH, params, shard, cfg, 9)

    stream = batches(shard.train, cfg.batch_size, 9)
    w = params.copy()
    for _ in range(2):
        w = w - cfg.learning_rate * gradient(ARCH, w, next(stream))
    assert np.array_equal(update.delta, w - params)


def test_local_train_deterministic():
    shard = _shard(seed=2)
    params = init_params(ARCH, substream(2, "init"))
    cfg = OptimizerConfig(local_steps=4)
    a = local_train(ARCH, params, shard, cfg, 7)
    b = local_train(ARCH, params, shard, cfg, 7)
    assert np.array_equal(a.delta, b.delta)


def test_local_train_early_stop_halts():
    # zero learning rate: validation loss never improves after the first
    # evaluation, so training stops after patience extra steps
    shard = _shard(seed=4)
    params = init_params(ARCH, substream(3, "init"))
    cfg = OptimizerConfig(kind="mbgd", learning_rate=0.0, local_steps=50, early_stop=True, patience=3)
    update = local_train(ARCH, params, shard, cfg, 11)
    assert update.steps == 4  # 1 improving eval + 3 stale evals

    no_stop = local_train(
        ARCH, params, shard,
        OptimizerConfig(kind="mbgd", learning_rate=0.0, local_steps=50, early_stop=False),
        11,
    )
    assert no_stop.steps == 50


def test_local_train_divergence_carries_step():
    from dpfedsim.data import Dataset, NodeShard

    # gradients explode under an absurd rate; only the output bias stays
    # live once the hidden units die, oscillating and growing each step
    data = Dataset(np.ones((40, 6)), np.zeros(40))
    shard = NodeShard(node_id=0, train=data, validation=data.take(slice(0, 5)))
    params = np.full(ARCH.n_params, 50.0)
    cfg = OptimizerConfig(kind="mbgd", learning_rate=1e100, local_steps=8, early_stop=False)
    with pytest.raises(TrainingDivergedError) as err:
        local_train(ARCH, params, shard, cfg, 1)
    assert 1 <= err.value.step <= 8


def test_local_train_divergence_raises_without_numpy_warnings():
    from dpfedsim.data import Dataset, NodeShard

    # the finiteness checks report divergence; the overflows on the way
    # there (in the update and the early-stop loss) stay silent
    data = Dataset(np.ones((40, 6)), np.zeros(40))
    shard = NodeShard(node_id=3, train=data, validation=data.take(slice(0, 5)))
    params = np.full(ARCH.n_params, 50.0)
    cfg = OptimizerConfig(kind="mbgd", learning_rate=1e100, local_steps=8, early_stop=True, patience=8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingDivergedError) as err:
            local_train(ARCH, params, shard, cfg, 1, episode=2)
    assert (err.value.node_id, err.value.episode) == (3, 2)


def test_stacked_gradient_and_loss_equal_per_row():
    rng = substream(7, "stack")
    for arch in (ARCH, Architecture(hidden=(8, 4))):
        for g, b in ((1, 1), (3, 7), (5, 32)):
            params = rng.normal(0, 0.5, size=(g, arch.n_params))
            x, y = rng.uniform(0, 1, size=(g, b, 6)), rng.uniform(0, 1, size=(g, b))
            grads = gradient(arch, params, (x, y))
            losses = mse_loss(arch, params, (x, y))
            assert grads.shape == params.shape and losses.shape == (g,)
            for j in range(g):
                assert np.array_equal(grads[j], gradient(arch, params[j], (x[j], y[j])))
                assert losses[j] == mse_loss(arch, params[j], (x[j], y[j]))
    assert isinstance(mse_loss(arch, params[0], (x[0], y[0])), float)


def _ragged_shards():
    # 15 or 16 training rows each (shard sizes differ by one), so batches
    # of 4 end every epoch short; the last shard has no validation split
    from dpfedsim.data import Dataset, NodeShard

    shards = partition(synthesize(98, seed=8), 5, seed=8)
    last = shards[-1]
    empty = Dataset(np.empty((0, 6)), np.empty(0))
    return shards[:-1] + [NodeShard(last.node_id, last.train, empty)]


@pytest.mark.parametrize("kind", ["mbgd", "adamax"])
@pytest.mark.parametrize("early_stop", [True, False])
def test_train_stack_equals_per_shard_local_train(kind, early_stop):
    shards = _ragged_shards()
    assert len({len(s.train) for s in shards}) == 2
    params = init_params(ARCH, substream(9, "init"))
    cfg = OptimizerConfig(kind=kind, learning_rate=0.2, batch_size=4, local_steps=12,
                          early_stop=early_stop, patience=1)
    seeds = [100 + j for j in range(len(shards))]
    stacked = train_stack(ARCH, params, shards, cfg, seeds, episode=3)
    alone = [local_train(ARCH, params, shard, cfg, seed, episode=3) for shard, seed in zip(shards, seeds)]
    assert [u.node_id for u in stacked] == [s.node_id for s in shards]
    for a, b in zip(stacked, alone):
        assert np.array_equal(a.delta, b.delta)
        assert (a.steps, a.node_id) == (b.steps, b.node_id)
    steps = [u.steps for u in stacked]
    if early_stop:
        assert len(set(steps)) > 1 and min(steps) < cfg.local_steps  # nodes stop apart
        assert steps[-1] == cfg.local_steps  # no validation split: never stops early
    else:
        assert steps == [cfg.local_steps] * len(shards)


def test_train_stack_raises_for_first_diverging_node_in_order():
    from dpfedsim.data import Dataset, NodeShard

    def shard(node_id, x, y):
        data = Dataset(np.full((40, 6), x), np.full(40, y))
        return NodeShard(node_id, data, data.take(slice(0, 5)))

    # alone, these diverge at steps 3, 1 and 2: the error must be node 10's,
    # as one-at-a-time training in node order would raise it
    shards = [shard(10, 100.0, 0.0), shard(11, 1.0, 1e250), shard(12, 1.0, 1e100)]
    params = np.full(ARCH.n_params, 0.5)
    cfg = OptimizerConfig(kind="mbgd", learning_rate=1e100, local_steps=8, early_stop=False)
    with np.errstate(all="ignore"):
        alone = []
        for s in shards:
            with pytest.raises(TrainingDivergedError) as err:
                local_train(ARCH, params, s, cfg, 1, episode=4)
            alone.append(err.value.step)
        with pytest.raises(TrainingDivergedError) as err:
            train_stack(ARCH, params, shards, cfg, [1, 1, 1], episode=4)
    assert alone == [3, 1, 2]
    assert (err.value.node_id, err.value.step, err.value.episode) == (10, 3, 4)
    assert "episode 4, node 10, step 3" in str(err.value)


def test_adamax_steps_bounded():
    shard = _shard(seed=5)
    params = init_params(ARCH, substream(4, "init"))
    cfg = OptimizerConfig(kind="adamax", learning_rate=0.01, local_steps=5, early_stop=False)
    update = local_train(ARCH, params, shard, cfg, 13)
    # per-coordinate movement is at most ~lr per step
    assert np.max(np.abs(update.delta)) <= cfg.local_steps * cfg.learning_rate * 1.001


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(kind="sgd")
    with pytest.raises(ValueError):
        OptimizerConfig(local_steps=0)
    with pytest.raises(ValueError):
        OptimizerConfig(learning_rate=-1)
