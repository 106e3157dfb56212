import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpfedsim.data import (
    EXPECTED_HEADER,
    Dataset,
    IngestionError,
    batches,
    ingest_csv,
    load_cache,
    partition,
    save_cache,
    split_holdout,
    synthesize,
)

HEADER = ";".join(EXPECTED_HEADER)


def _write_csv(tmp_path, rows, name="power.csv"):
    path = tmp_path / name
    path.write_text("\n".join([HEADER] + rows) + "\n")
    return path


def _row(values):
    return "16/12/2006;17:24:00;" + ";".join(str(v) for v in values)


def test_ingest_drops_missing_rows(tmp_path):
    rows = [
        _row([4.216, 0.418, 234.84, 18.4, 0.0, 1.0, 17.0]),
        "16/12/2006;17:25:00;?;0.436;233.63;23.0;0.0;1.0;16.0",
        _row([3.374, 0.498, 233.29, 23.0, 0.0, 2.0, 17.0]),
    ]
    samples = ingest_csv(_write_csv(tmp_path, rows))
    assert len(samples) == 2


def test_ingest_no_missing_keeps_all(tmp_path):
    rows = [_row([1 + i, 0.4, 230 + i, 18, 0, 1, 17]) for i in range(5)]
    assert len(ingest_csv(_write_csv(tmp_path, rows))) == 5


def test_ingest_closes_its_source(tmp_path, monkeypatch):
    path = _write_csv(tmp_path, [_row([1 + i, 0.4, 230 + i, 18, 0, 1, 17]) for i in range(4)])
    # an unclosed file warns from its finalizer, where the error can only
    # reach the unraisable hook
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        assert len(ingest_csv(path)) == 4
    assert [u.exc_value for u in unraisable] == []


def test_degenerate_column_normalizes_to_zero(tmp_path):
    # Sub_metering_1 is constant across the three rows
    rows = [
        _row([1.0, 0.1, 230.0, 10.0, 5.0, 1.0, 17.0]),
        _row([2.0, 0.2, 231.0, 11.0, 5.0, 2.0, 18.0]),
        _row([3.0, 0.3, 232.0, 12.0, 5.0, 3.0, 19.0]),
    ]
    samples = ingest_csv(_write_csv(tmp_path, rows))
    # feature order: reactive, voltage, intensity, sub1, sub2, sub3
    assert samples.x[:, 3].tolist() == [0.0, 0.0, 0.0]


def test_normalized_columns_span_unit_interval(tmp_path):
    rows = [_row([1 + i, 0.1 * i, 230 + i, 10 + i, i, 1 + i, 17 - i]) for i in range(4)]
    samples = ingest_csv(_write_csv(tmp_path, rows))
    x, y = samples.x, samples.y
    assert np.allclose(x.min(axis=0), 0.0)
    assert np.allclose(x.max(axis=0), 1.0)
    assert y.min() == 0.0 and y.max() == 1.0


def test_malformed_rows_over_threshold_error(tmp_path):
    rows = [_row([1, 2, 3, 4, 5, 6, 7]), "garbage;line", "another;bad"]
    with pytest.raises(IngestionError, match="malformed"):
        ingest_csv(_write_csv(tmp_path, rows))


def test_empty_file_errors(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(IngestionError):
        ingest_csv(path)


def test_header_mismatch_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a;b;c\n1;2;3\n")
    with pytest.raises(IngestionError, match="header"):
        ingest_csv(path)


def test_cache_roundtrip(tmp_path):
    rows = [_row([1 + i, 0.4, 230 + i, 18, 0, 1, 17]) for i in range(4)]
    path = _write_csv(tmp_path, rows)
    first = ingest_csv(path, cache_dir=tmp_path / "cache")
    cached = ingest_csv(path, cache_dir=tmp_path / "cache")
    assert np.array_equal(first.x, cached.x) and np.array_equal(first.y, cached.y)


def test_save_load_cache(tmp_path):
    samples = synthesize(10, seed=3)
    save_cache(tmp_path / "c.npz", samples)
    loaded = load_cache(tmp_path / "c.npz")
    assert np.array_equal(samples.x, loaded.x) and np.array_equal(samples.y, loaded.y)


def test_synthesize_deterministic():
    a = synthesize(100, seed=1)
    b = synthesize(100, seed=1)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


def test_synthesize_seed_changes_output():
    a = synthesize(100, seed=1)
    b = synthesize(100, seed=2)
    assert not np.array_equal(a.x, b.x)


def test_synthesize_zero_noise_is_exact_linear():
    from dpfedsim.data import SYNTH_INTERCEPT, SYNTH_WEIGHTS

    samples = synthesize(50, seed=4, noise_scale=0.0)
    for features, target in zip(samples.x, samples.y):
        assert target == pytest.approx(float(features @ SYNTH_WEIGHTS + SYNTH_INTERCEPT))


def test_synthesize_rejects_nonpositive():
    with pytest.raises(ValueError):
        synthesize(0, seed=1)


def test_synthesize_rejects_negative_noise_scale():
    with pytest.raises(ValueError, match="noise_scale"):
        synthesize(10, seed=1, noise_scale=-1.0)


def test_partition_even_split():
    shards = partition(synthesize(100, seed=0), 10, seed=5)
    assert len(shards) == 10
    for shard in shards:
        assert len(shard.train) + len(shard.validation) == 10
        assert len(shard.validation) == 2


def test_partition_single_shard():
    data = synthesize(30, seed=0)
    shards = partition(data, 1, seed=5)
    assert len(shards) == 1
    assert len(shards[0].train) + len(shards[0].validation) == 30


def test_partition_uneven_sizes_counted():
    # direct counting oracle: 101 = 11 + 10*9
    shards = partition(synthesize(101, seed=0), 10, seed=5)
    sizes = sorted(len(s.train) + len(s.validation) for s in shards)
    assert sizes == [10] * 9 + [11]


def test_partition_too_few_samples():
    with pytest.raises(ValueError):
        partition(synthesize(5, seed=0), 6, seed=1)


def _rows(*datasets):
    """Every (features, target) row of the datasets, as hashable tuples."""
    return [
        (tuple(features.tolist()), float(target))
        for d in datasets
        for features, target in zip(d.x, d.y)
    ]


@given(n=st.integers(20, 80), k=st.integers(1, 7), seed=st.integers(0, 50))
@settings(max_examples=25, deadline=None)
def test_partition_preserves_multiset(n, k, seed):
    data = synthesize(n, seed=9)
    shards = partition(data, k, seed=seed)
    pooled = [d for shard in shards for d in (shard.train, shard.validation)]
    assert sorted(_rows(*pooled)) == sorted(_rows(data))


def test_partition_deterministic():
    data = synthesize(60, seed=2)
    a = partition(data, 7, seed=3)
    b = partition(data, 7, seed=3)
    for sa, sb in zip(a, b):
        assert _rows(sa.train) == _rows(sb.train)
        assert _rows(sa.validation) == _rows(sb.validation)


def test_train_validation_disjoint_when_unique():
    data = synthesize(50, seed=11)  # continuous features: samples unique a.s.
    for shard in partition(data, 5, seed=1):
        assert not set(_rows(shard.train)) & set(_rows(shard.validation))


def test_split_holdout_sizes():
    data = synthesize(100, seed=1)
    hold, rest = split_holdout(data, 0.02, seed=0)
    assert len(hold) == 2 and len(rest) == 98
    assert sorted(_rows(hold, rest)) == sorted(_rows(data))


def test_batch_sampler_exact_batches():
    shards = partition(synthesize(100, seed=0), 1, seed=0)
    stream = batches(shards[0].train, 32, 123)
    sizes = [len(next(stream)[1]) for _ in range(4)]
    # 80 train samples -> 32, 32, 16, then a fresh epoch
    assert sizes == [32, 32, 16, 32]


def test_batch_sampler_deterministic():
    shards = partition(synthesize(64, seed=0), 1, seed=0)
    s1 = batches(shards[0].train, 16, 9)
    s2 = batches(shards[0].train, 16, 9)
    for _ in range(5):
        x1, y1 = next(s1)
        x2, y2 = next(s2)
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)


def test_batches_reject_an_empty_split():
    with pytest.raises(ValueError, match="empty training split"):
        next(batches(Dataset(np.empty((0, 6)), np.empty(0)), 4, 0))


def test_dataset_validates_shape_and_finiteness():
    with pytest.raises(ValueError):
        Dataset(np.ones((3, 5)), np.zeros(3))
    with pytest.raises(ValueError):
        Dataset(np.ones((3, 6)), np.zeros(2))
    with pytest.raises(ValueError):
        Dataset(np.full((1, 6), np.nan), np.zeros(1))
    with pytest.raises(ValueError):
        Dataset(np.ones((1, 6)), np.array([np.inf]))
    data = Dataset(np.ones((4, 6)), np.arange(4.0))
    assert len(data) == 4
    assert data.take([3, 1]).y.tolist() == [3.0, 1.0]


def test_load_cache_rejects_non_finite(tmp_path):
    path = tmp_path / "bad.npz"
    np.savez(path, version=1, features=np.full((2, 6), np.nan), target=np.zeros(2))
    with pytest.raises(ValueError, match="non-finite"):
        load_cache(path)
