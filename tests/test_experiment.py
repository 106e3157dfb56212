import numpy as np
import pytest

from dpfedsim import csvio, presets
from dpfedsim.config import ExperimentConfig
from dpfedsim.experiment import discover_runs, report, run

BASE = {
    "data.n_samples": 240,
    "federation.nodes": 8,
    "federation.participants": 4,
    "federation.episodes": 3,
    "privacy.stop_threshold": 0.5,
    "model.hidden": "8,4",
    "privacy.epsilon": 60.0,
    "privacy.clip": 0.05,
    "optimizer.learning_rate": 0.05,
    "seed": 2,
}


def _run(tmp_path, name="r", **extra):
    cfg = ExperimentConfig.from_dict({**BASE, **extra})
    return run(cfg, tmp_path / name)


def test_run_emits_expected_files(tmp_path):
    bundle = _run(tmp_path)
    assert bundle.status == "ok"
    assert set(bundle.csv_paths) == {"episodes", "ledger", "summary"}
    assert (bundle.out_dir / "run_info.txt").exists()
    rows = csvio.read_csv(bundle.csv_paths["episodes"], "episodes", 1)
    assert [r["episode"] for r in rows] == ["1", "2", "3"]
    assert all(r["detector_kind"] == "off" for r in rows)


def test_attack_run_emits_trace(tmp_path):
    bundle = _run(tmp_path, **{"attack.mode": "mpelm", "attack.m": 2, "attack.gamma0": 0.7})
    attack_rows = csvio.read_csv(bundle.csv_paths["attack"], "attack", 1)
    episodes = csvio.read_csv(bundle.csv_paths["episodes"], "episodes", 1)
    assert "gamma_t" in episodes[0]
    active = [r for r in episodes if int(r["m_active"]) > 0]
    assert len(attack_rows) == len(active)


def test_detection_run_emits_verdicts(tmp_path):
    bundle = _run(tmp_path, **{"attack.mode": "rmd", "attack.m": 1, "detector.kind": "norm"})
    assert bundle.status == "ok"
    rows = csvio.read_csv(bundle.csv_paths["detection"], "detection", 1)
    n, episodes = 4, 3
    assert len(rows) == n * episodes
    assert {r["kind"] for r in rows} == {"norm"}
    assert "d_acc" in bundle.summary


def test_summary_recomputable_from_csvs(tmp_path):
    bundle = _run(tmp_path, **{"attack.mode": "rmd", "attack.m": 2, "detector.kind": "norm"})
    # oracle: re-derive the summary from the episode and detection CSVs
    rows = csvio.read_csv(bundle.csv_paths["episodes"], "episodes", 1)
    recomputed = {
        "episodes_executed": len(rows),
        "final_val_loss": float(rows[-1]["global_val_loss"]),
        "delta_spent": float(rows[-1]["delta_cumulative"]),
    }
    by_episode: dict[str, list] = {}
    for row in csvio.read_csv(bundle.csv_paths["detection"], "detection", 1):
        by_episode.setdefault(row["episode"], []).append(row)
    scores = [
        100.0 * sum((r["is_truly_malicious"] == "true") == (r["flagged"] == "true") for r in rows_ep)
        / len(rows_ep)
        for rows_ep in by_episode.values()
    ]
    recomputed["d_acc"] = float(np.mean(scores))
    assert recomputed["episodes_executed"] == bundle.summary["episodes_executed"]
    assert recomputed["final_val_loss"] == pytest.approx(bundle.summary["final_val_loss"], rel=1e-15)
    assert recomputed["delta_spent"] == pytest.approx(bundle.summary["delta_spent"], rel=1e-15)
    assert recomputed["d_acc"] == pytest.approx(bundle.summary["d_acc"], rel=1e-15)


@pytest.mark.parametrize(
    "extra",
    [
        pytest.param({"attack.mode": "rmd", "attack.m": 2, "detector.kind": "norm"}, id="rmd_norm"),
        pytest.param(
            {"attack.mode": "mpelm", "attack.m": 2, "detector.kind": "mix", "privacy.epsilon": 5.0},
            id="mpelm_adaptive_mix",
        ),
    ],
)
def test_episode_counts_agree_with_detection_rows(tmp_path, extra):
    # flagged_count and m_active are derived from the verdicts and the
    # compromised set; each must count that episode's detection.csv rows
    bundle = _run(tmp_path, **{**extra, "federation.episodes": 5})
    episodes = csvio.read_csv(bundle.csv_paths["episodes"], "episodes", 1)
    detection = csvio.read_csv(bundle.csv_paths["detection"], "detection", 1)
    assert bundle.status == "ok" and len(episodes) == 5
    for row in episodes:
        rows_ep = [r for r in detection if r["episode"] == row["episode"]]
        assert len(rows_ep) == int(row["n"])
        assert int(row["flagged_count"]) == sum(r["flagged"] == "true" for r in rows_ep)
        assert int(row["m_active"]) == sum(r["is_truly_malicious"] == "true" for r in rows_ep)
    assert any(int(r["m_active"]) for r in episodes) and any(int(r["flagged_count"]) for r in episodes)


def test_ledger_csv_matches_composition(tmp_path):
    bundle = _run(tmp_path)
    rows = csvio.read_csv(bundle.csv_paths["ledger"], "ledger", 1)
    cumulative = 0.0
    for row in rows:
        d = float(row["delta_step"])
        cumulative = cumulative + d - cumulative * d
        assert float(row["delta_cumulative"]) == pytest.approx(cumulative, rel=1e-12)
        assert row["stopped"] == "false"


def test_run_sidecar_contains_resolved_config(tmp_path):
    bundle = _run(tmp_path)
    sidecar = (bundle.out_dir / "run_info.txt").read_text()
    assert "federation.nodes = 8" in sidecar
    assert "attack.gamma0 = 60.0" in sidecar  # default filled with epsilon
    assert "started_unix" in sidecar


def test_run_sidecar_flags_calibration_outside_its_proof(tmp_path):
    name, overrides = presets.expand("smoke")[0]  # epsilon = 60
    bundle = run(ExperimentConfig.from_dict({**overrides, "seed": 1}), tmp_path / name)
    sidecar = (bundle.out_dir / "run_info.txt").read_text()
    assert "epsilon = 60.0 >= 1" in sidecar and "proven only for epsilon < 1" in sidecar
    small = (_run(tmp_path, **{"privacy.epsilon": 0.7}).out_dir / "run_info.txt").read_text()
    assert "proven only for epsilon < 1" not in small


def test_report_identical_runs_identical_rows(tmp_path):
    a = _run(tmp_path, name="a")
    b = _run(tmp_path, name="b")
    text, rows = report([a.out_dir, b.out_dir])
    assert len(rows) == 2
    trimmed = [{k: v for k, v in r.items() if k != "run"} for r in rows]
    assert trimmed[0] == trimmed[1]


def test_report_empty_set():
    text, rows = report([])
    assert text == "(no runs)" and rows == []


def test_discover_runs(tmp_path):
    _run(tmp_path / "grid", name="a")
    _run(tmp_path / "grid", name="b")
    found = discover_runs(tmp_path / "grid")
    assert [p.name for p in found] == ["a", "b"]


def test_presets_expand_shapes():
    impact = presets.expand("impact-sweep")
    # 3 privacy levels x (1 benign + 2 gammas x 3 attacker counts)
    assert len(impact) == 3 * 7
    names = [n for n, _ in impact]
    assert len(set(names)) == len(names)
    stealth = presets.expand("stealth-sweep")
    assert len(stealth) == 2 * 2 * 3 * 2
    for _, overrides in impact + stealth:
        ExperimentConfig.from_dict(overrides)  # every cell validates
    with pytest.raises(KeyError):
        presets.expand("nope")


def test_smoke_preset_runs_clean(tmp_path):
    name, overrides = presets.expand("smoke")[0]
    bundle = run(ExperimentConfig.from_dict({**overrides, "seed": 1}), tmp_path / name)
    assert bundle.status == "ok"
    assert bundle.summary["episodes_executed"] == 3
