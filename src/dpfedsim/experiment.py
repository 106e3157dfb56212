"""Run orchestration and metrics emission.

A run takes one ExperimentConfig to a directory of schema-versioned
CSVs: per-episode metrics, the privacy ledger, plus attack and detection
traces when armed. Timestamps and environment notes live in a sidecar
(run_info.txt) so the CSV outputs are a pure function of (config, seed).
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from . import csvio
from .config import ExperimentConfig
from .data import ingest_csv, load_cache, partition, split_holdout, synthesize
from .detection import detection_accuracy
from .federation import (
    EmptyAggregationError, FederationConfig, FederationState, RoundRecord, run_episode,
)

SCHEMAS = {
    "episodes": 1,
    "ledger": 1,
    "attack": 1,
    "detection": 1,
    "summary": 1,
    "report": 1,
    "loss_tables": 1,
    "qtable": 1,
    "rdp_trace": 1,
}


@dataclass
class MetricsBundle:
    """Paths of a run's emitted CSVs plus its derived summary."""

    out_dir: Path
    csv_paths: dict[str, Path]
    summary: dict
    status: str = "ok"


def build_dataset(cfg: ExperimentConfig):
    """Materialize the dataset per the data block of the config."""
    source = cfg["data.source"]
    if source == "synthetic":
        return synthesize(cfg["data.n_samples"], cfg["seed"], cfg["data.noise_scale"])
    if source == "csv":
        return ingest_csv(cfg["data.path"])
    return load_cache(cfg["data.path"])


def prepare_state(cfg: ExperimentConfig) -> FederationState:
    """Dataset -> server holdout + node shards -> initial federation state,
    which carries the run's federation config (attack and detector too)."""
    data = build_dataset(cfg)
    holdout, rest = split_holdout(data, cfg["data.server_split"], cfg["seed"])
    shards = partition(rest, cfg["federation.nodes"], cfg["seed"])
    server_validation = (holdout.x, holdout.y) if len(holdout) else None
    return FederationState.create(cfg.federation_config(), shards, server_validation)


def run_training(state: FederationState) -> tuple[list[RoundRecord], str]:
    """Run episodes until the configured count or the ledger stop.

    Returns the episode records and the run status: "ok", or
    "aborted_empty_aggregation_episode_<t>" when every update submitted
    in episode t was flagged. TrainingDivergedError propagates.
    """
    records: list[RoundRecord] = []
    for _ in range(state.cfg.episodes):
        try:
            records.append(run_episode(state))
        except EmptyAggregationError as exc:
            return records, f"aborted_empty_aggregation_episode_{exc.episode}"
        if state.ledger.stopped:
            break
    return records, "ok"


def run(cfg: ExperimentConfig, out_dir) -> MetricsBundle:
    """Execute one configured run and persist its metrics."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.time()

    state = prepare_state(cfg)
    records, status = run_training(state)

    paths = _emit_metrics(out_dir, state, records)
    summary = {
        "episodes_executed": len(records),
        "final_val_loss": records[-1].global_val_loss if records else float("nan"),
        "delta_spent": state.ledger.cumulative_delta,
    }
    if state.cfg.detector.kind != "off":
        summary["d_acc"] = detection_accuracy([r.verdicts for r in records], state.cfg.attack.compromised)
    _write_summary(out_dir / "summary.csv", state.cfg, summary, status)
    paths["summary"] = out_dir / "summary.csv"
    _write_sidecar(out_dir / "run_info.txt", cfg, status, started)
    return MetricsBundle(out_dir=out_dir, csv_paths=paths, summary=summary, status=status)


def _emit_metrics(out_dir: Path, state: FederationState, records: Sequence[RoundRecord]) -> dict[str, Path]:
    cfg = state.cfg
    attack, detector = cfg.attack, cfg.detector
    attacked = attack.kind != "none"
    attack_by_episode = {row["episode"]: row for row in state.attack_trace}

    episode_fields = [
        "episode", "n", "m_active", "global_val_loss", "delta_cumulative",
        "flagged_count", "detector_kind",
    ]
    if attacked:
        episode_fields += ["gamma_t", "loss_ratio"]
    episode_rows = []
    for rec in records:
        row = {
            "episode": rec.episode,
            "n": len(rec.submitted),
            "m_active": sum(u.node_id in attack.compromised for u in rec.submitted),
            "global_val_loss": rec.global_val_loss,
            "delta_cumulative": rec.delta_cumulative,
            "flagged_count": len(rec.flagged),
            "detector_kind": detector.kind,
        }
        if attacked:
            trace = attack_by_episode.get(rec.episode)
            row["gamma_t"] = trace["gamma_t"] if trace else None
            row["loss_ratio"] = trace["loss_ratio"] if trace else None
        episode_rows.append(row)

    paths = {
        "episodes": csvio.write_csv(
            out_dir / "episodes.csv", "episodes", SCHEMAS["episodes"], episode_fields, episode_rows
        )
    }

    ledger_rows = [
        {
            "episode": rec.episode,
            "delta_step": cfg.privacy.delta,
            "delta_cumulative": rec.delta_cumulative,
            "stopped": rec.delta_cumulative > cfg.stop_threshold,
        }
        for rec in records
    ]
    paths["ledger"] = csvio.write_csv(
        out_dir / "ledger.csv", "ledger", SCHEMAS["ledger"],
        ["episode", "delta_step", "delta_cumulative", "stopped"], ledger_rows,
    )

    if attacked:
        paths["attack"] = csvio.write_csv(
            out_dir / "attack.csv", "attack", SCHEMAS["attack"],
            ["episode", "gamma_t", "gamma_current", "loss_ratio", "avg_compromised_val_loss"],
            state.attack_trace,
        )

    if detector.kind != "off":
        det_rows = []
        for rec in records:
            for verdict in rec.verdicts:
                det_rows.append(
                    {
                        "episode": rec.episode,
                        "kind": detector.kind,
                        "beta1": detector.beta1,
                        "beta2": detector.beta2,
                        "d_max": detector.d_max,
                        "orientation": "reversed",  # the one loss test; echoed in detection.csv v1
                        "node_id": verdict.node_id,
                        "rate": verdict.rate,
                        "flagged": verdict.flagged,
                        "is_truly_malicious": verdict.node_id in attack.compromised,
                    }
                )
        paths["detection"] = csvio.write_csv(
            out_dir / "detection.csv", "detection", SCHEMAS["detection"],
            ["episode", "kind", "beta1", "beta2", "d_max", "orientation",
             "node_id", "rate", "flagged", "is_truly_malicious"],
            det_rows,
        )
    return paths


def _write_summary(path: Path, cfg: FederationConfig, summary: dict, status: str) -> None:
    fields = [
        "status", "attack_mode", "detector_kind", "epsilon", "seed",
        "episodes_executed", "final_val_loss", "delta_spent", "d_acc",
    ]
    row = {
        "status": status,
        "attack_mode": cfg.attack.kind,
        "detector_kind": cfg.detector.kind,
        "epsilon": cfg.privacy.epsilon,
        "seed": cfg.seed,
        "episodes_executed": summary["episodes_executed"],
        "final_val_loss": summary["final_val_loss"],
        "delta_spent": summary["delta_spent"],
        "d_acc": summary.get("d_acc"),
    }
    csvio.write_csv(path, "summary", SCHEMAS["summary"], fields, [row])


def _write_sidecar(path: Path, cfg: ExperimentConfig, status: str, started: float) -> None:
    lines = [
        "# run sidecar (timestamps and environment; excluded from determinism)",
        f"status = {status}",
        f"started_unix = {started:.3f}",
        f"duration_s = {time.time() - started:.3f}",
        f"python = {sys.version.split()[0]}",
    ]
    if cfg["privacy.epsilon"] >= 1:
        lines.append(
            f"# privacy note: epsilon = {cfg['privacy.epsilon']} >= 1; the classic calibration "
            "sigma = sqrt(2 ln(1.25/delta))/epsilon is proven only for epsilon < 1 "
            "(Dwork & Roth 2014, Thm A.1)"
        )
    lines += [
        "",
        "# resolved configuration (defaults filled in)",
    ]
    for key, value in sorted(cfg.resolved().items()):
        lines.append(f"{key} = {value}")
    path.write_text("\n".join(lines) + "\n")


def final_loss_runner(base: ExperimentConfig):
    """Loss-table generation hook: one federation run per call.

    Returns a callable (epsilon, gamma, seed) -> final validation loss,
    benign when gamma is None, otherwise a fixed-degree adaptive-noise
    attack using the base config's attack block. No detector runs, so no
    episode can abort on an empty aggregation.
    """

    def final_loss(epsilon: float, gamma, seed: int) -> float:
        overrides = dict(base.values)
        overrides["privacy.epsilon"] = epsilon
        overrides["seed"] = seed
        overrides["detector.kind"] = "off"
        if gamma is None:
            overrides["attack.mode"] = "none"
            overrides["attack.m"] = 0
        else:
            overrides["attack.mode"] = "mpelm"
            overrides["attack.m"] = max(1, int(base["attack.m"]))
            overrides["attack.gamma_fixed"] = gamma
        records, _status = run_training(prepare_state(ExperimentConfig.from_dict(overrides)))
        return records[-1].global_val_loss

    return final_loss


def report(run_dirs: Sequence, out_path=None) -> tuple[str, list[dict]]:
    """Aggregate run summaries into a comparison table.

    Accepts run directories (each holding summary.csv); returns the
    rendered text table and the rows. Refuses mismatched schema versions.
    """
    rows = []
    for run_dir in sorted(Path(d) for d in run_dirs):
        summary_path = run_dir / "summary.csv"
        if not summary_path.exists():
            raise FileNotFoundError(f"{run_dir}: no summary.csv (not a run directory?)")
        for row in csvio.read_csv(summary_path, "summary", SCHEMAS["summary"]):
            rows.append({"run": run_dir.name, **row})

    fields = ["run", "status", "attack_mode", "detector_kind", "epsilon", "seed",
              "episodes_executed", "final_val_loss", "d_acc"]
    if out_path is not None:
        csvio.write_csv(out_path, "report", SCHEMAS["report"], fields, rows)

    if not rows:
        return "(no runs)", rows
    widths = {f: max(len(f), *(len(str(r.get(f, ""))) for r in rows)) for f in fields}
    lines = ["  ".join(f.ljust(widths[f]) for f in fields)]
    for row in rows:
        lines.append("  ".join(str(row.get(f, "")).ljust(widths[f]) for f in fields))
    return "\n".join(lines), rows


def discover_runs(parent) -> list[Path]:
    """Run directories directly under ``parent`` (those with summary.csv)."""
    parent = Path(parent)
    if (parent / "summary.csv").exists():
        return [parent]
    return sorted(p for p in parent.iterdir() if p.is_dir() and (p / "summary.csv").exists())
