"""Outside-in tracing: wrap public dpfedsim functions where they are looked up.

Several functions are imported by name into the module that calls them
(``experiment.run_episode``, ``federation.local_train``, ...), so wrapping
the defining module alone would miss those calls. Each hook names the
object that holds the binding the program actually uses. The wrappers
record spans ``(name, start, end, parent, operation)`` in memory plus a
few counters read off arguments and results; per-layer metrics are
derived from them after the pass. Leaving the ``with`` block puts every
original back.
"""

from __future__ import annotations

import csv
import functools
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import numpy as np

from dpfedsim import adversary, cli, csvio, data, detection, experiment, federation, model, rdp
from dpfedsim.federation import FederationState


@dataclass(frozen=True)
class Hook:
    owner: object  # module or class holding the binding the program looks up
    attr: str
    span: str
    observe: Optional[Callable] = None  # (counters, args, result) -> None


def _node_updates(counters, _args, record):
    counters["federation.node_updates"] += len(record.submitted)


def _samples(counters, _args, samples):
    counters["data.samples"] += len(samples)


def _steps(counters, _args, update):
    counters["model.steps"] += update.steps


def _clip_fired(counters, args, _result):
    update, clip_c = args[0], args[1]
    counters["privacy.clip_fired"] += float(np.linalg.norm(update.delta)) > clip_c


def _verdicts(counters, _args, verdicts):
    counters["detection.verdicts"] += len(verdicts)
    counters["detection.flagged"] += sum(v.flagged for v in verdicts)


def _q_updates(counters, args, _result):
    states, hyper = args[0], args[4]
    counters["rdp.q_updates"] += len(states) * hyper.max_episodes


def _rows_written(counters, args, _result):
    counters["csvio.rows_written"] += len(args[4])


# The two hooks every pass carries: set-up time and episode latency.
LIGHT_HOOKS = (
    Hook(experiment, "prepare_state", "experiment.prepare_state"),
    Hook(experiment, "run_episode", "federation.run_episode", _node_updates),
)

FULL_HOOKS = LIGHT_HOOKS + (
    Hook(experiment, "synthesize", "data.synthesize", _samples),
    Hook(experiment, "split_holdout", "data.split_holdout"),
    Hook(experiment, "partition", "data.partition"),
    Hook(federation, "local_train", "model.local_train", _steps),
    Hook(model, "gradient", "model.gradient"),
    Hook(model, "mse_loss", "model.mse_loss"),
    Hook(federation, "clip", "privacy.clip", _clip_fired),
    Hook(federation, "add_noise", "privacy.add_noise"),
    Hook(adversary, "inject", "adversary.inject"),
    Hook(adversary, "episodic_loss", "adversary.episodic_loss"),
    Hook(adversary, "mse_loss", "adversary.mse_loss"),
    Hook(detection, "evaluate", "detection.evaluate", _verdicts),
    Hook(detection, "norm_rate", "detection.norm_rate"),
    Hook(detection, "accuracy_rate", "detection.accuracy_rate"),
    Hook(detection, "comparison_standard", "detection.comparison_standard"),
    Hook(detection, "mse_loss", "detection.mse_loss"),
    Hook(federation, "select_nodes", "federation.select_nodes"),
    Hook(federation, "aggregate", "federation.aggregate"),
    Hook(FederationState, "global_validation_loss", "federation.global_validation_loss"),
    Hook(federation, "mse_loss", "federation.mse_loss"),
    Hook(federation, "substream", "rng.substream"),
    Hook(data, "substream", "rng.substream"),
    Hook(rdp, "substream", "rng.substream"),
    Hook(federation, "substream_seed", "rng.substream_seed"),
    Hook(rdp, "generate_loss_tables", "rdp.generate_loss_tables"),
    Hook(rdp, "fit_tabular", "rdp.fit_tabular", _q_updates),
    Hook(rdp, "train", "rdp.train"),
    Hook(cli, "read_tables", "cli.read_tables"),
    Hook(csvio, "write_csv", "csvio.write_csv", _rows_written),
    Hook(csvio, "read_csv", "csvio.read_csv"),
)

# Every binding a Tracer may replace, captured at import, before any wrapping.
_ORIGINALS = [
    (owner, attr, owner.__dict__[attr])
    for owner, attr in [(h.owner, h.attr) for h in FULL_HOOKS] + [(cli, "final_loss_runner")]
]


def assert_pristine() -> None:
    """Fail unless every hookable binding is the program's own function."""
    for owner, attr, original in _ORIGINALS:
        if owner.__dict__[attr] is not original:
            raise AssertionError(f"{getattr(owner, '__name__', owner)}.{attr} is still wrapped")


class Tracer:
    """Installs the light or the full set of wrappers and records their spans.

    The light set times only set-up and episodes, one wrapper per run and
    per episode; the full set is the traced pass.
    """

    def __init__(self, full: bool):
        self.full = full
        self.spans: list = []  # (name, start, end, parent index or -1, operation)
        self.counters: Counter = Counter()
        self.operation = ""
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for hook in FULL_HOOKS if self.full else LIGHT_HOOKS:
            wrapper = self._wrap(hook.span, getattr(hook.owner, hook.attr), hook.observe)
            self._replace(hook.owner, hook.attr, wrapper)
        if self.full:
            runner = cli.final_loss_runner

            @functools.wraps(runner)
            def traced_runner(base):
                return self._wrap("rdp.final_loss", runner(base), _count_final_loss)

            self._replace(cli, "final_loss_runner", traced_runner)
        return self

    def __exit__(self, *_exc) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _replace(self, owner, attr, wrapper) -> None:
        self._installed.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn, observe):
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)  # reserve the slot so children can name their parent
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.operation)
            if observe is not None:
                observe(counters, args, result)
            return result

        return wrapper

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["index", "name", "start", "end", "parent", "operation"])
            for index, (name, start, end, parent, operation) in enumerate(self.spans):
                writer.writerow([index, name, repr(start), repr(end), parent, operation])


def _count_final_loss(counters, _args, _result):
    counters["rdp.final_loss_calls"] += 1


def span_table(spans) -> dict[str, dict]:
    """Calls, total and self seconds per span name.

    A span's self time is its duration minus the durations of its direct
    children; wrapped calls nest strictly, so children never overlap.
    """
    child_time = defaultdict(float)
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table: dict[str, dict] = {}
    for index, (name, start, end, _parent, _op) in enumerate(spans):
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_time[index]
    return table


# (metric, unit) in the order they are reported.
LAYER_METRICS = (
    ("data.synthesize_s", "s"), ("data.split_holdout_s", "s"), ("data.partition_s", "s"),
    ("data.samples", "count"),
    ("experiment.prepare_state_s", "s"), ("experiment.runs", "count"),
    ("experiment.diverged_runs", "count"), ("experiment.aborted_runs", "count"),
    ("model.local_train_s", "s"), ("model.local_train_calls", "count"),
    ("model.gradient_s", "s"), ("model.gradient_calls", "count"),
    ("model.early_stop_eval_s", "s"), ("model.steps_per_train", "steps"),
    ("privacy.clip_s", "s"), ("privacy.add_noise_s", "s"), ("privacy.clip_fired_share", "ratio"),
    ("adversary.inject_s", "s"), ("adversary.episodic_loss_s", "s"),
    ("detection.evaluate_s", "s"), ("detection.norm_rate_s", "s"), ("detection.accuracy_rate_s", "s"),
    ("detection.comparison_standard_calls", "count"), ("detection.comparison_standard_s", "s"),
    ("detection.verdicts", "count"), ("detection.flagged_share", "ratio"),
    ("federation.run_episode_s", "s"), ("federation.episode_self_s", "s"),
    ("federation.select_nodes_s", "s"), ("federation.aggregate_s", "s"),
    ("federation.global_validation_loss_s", "s"), ("federation.node_updates", "count"),
    ("rng.substream_calls", "count"), ("rng.substream_s", "s"), ("rng.substream_seed_calls", "count"),
    ("rdp.generate_loss_tables_s", "s"), ("rdp.final_loss_calls", "count"),
    ("rdp.fit_tabular_s", "s"), ("rdp.q_updates", "count"), ("rdp.q_updates_per_s", "1/s"),
    ("rdp.train_self_s", "s"),
    ("csvio.write_csv_s", "s"), ("csvio.rows_written", "count"), ("csvio.read_csv_s", "s"),
    ("trace.overhead_s", "s"),
)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, traced_wall_s: float, untraced_wall_s: float, ends: dict) -> dict[str, float]:
    """Per-layer values of one traced pass, keyed as in LAYER_METRICS; ``ends``
    counts the pass's operations by how they ended (run.run_ends)."""
    table = span_table(tracer.spans)
    c = tracer.counters

    def total(name):
        return table.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    spans = tracer.spans
    early_stop = sum(
        end - start
        for name, start, end, parent, _op in spans
        if name == "model.mse_loss" and parent >= 0 and spans[parent][0] == "model.local_train"
    )
    values = {
        "data.synthesize_s": total("data.synthesize"),
        "data.split_holdout_s": total("data.split_holdout"),
        "data.partition_s": total("data.partition"),
        "data.samples": c["data.samples"],
        "experiment.prepare_state_s": total("experiment.prepare_state"),
        "experiment.runs": calls("experiment.prepare_state"),
        "experiment.diverged_runs": ends["diverged"],
        "experiment.aborted_runs": ends["aborted"],
        "model.local_train_s": total("model.local_train"),
        "model.local_train_calls": calls("model.local_train"),
        "model.gradient_s": total("model.gradient"),
        "model.gradient_calls": calls("model.gradient"),
        "model.early_stop_eval_s": early_stop,
        "model.steps_per_train": _share(c["model.steps"], calls("model.local_train")),
        "privacy.clip_s": total("privacy.clip"),
        "privacy.add_noise_s": total("privacy.add_noise"),
        "privacy.clip_fired_share": _share(c["privacy.clip_fired"], calls("privacy.clip")),
        "adversary.inject_s": total("adversary.inject"),
        "adversary.episodic_loss_s": total("adversary.episodic_loss"),
        "detection.evaluate_s": total("detection.evaluate"),
        "detection.norm_rate_s": total("detection.norm_rate"),
        "detection.accuracy_rate_s": total("detection.accuracy_rate"),
        "detection.comparison_standard_calls": calls("detection.comparison_standard"),
        "detection.comparison_standard_s": total("detection.comparison_standard"),
        "detection.verdicts": c["detection.verdicts"],
        "detection.flagged_share": _share(c["detection.flagged"], c["detection.verdicts"]),
        "federation.run_episode_s": total("federation.run_episode"),
        "federation.episode_self_s": table.get("federation.run_episode", {}).get("self_s", 0.0),
        "federation.select_nodes_s": total("federation.select_nodes"),
        "federation.aggregate_s": total("federation.aggregate"),
        "federation.global_validation_loss_s": total("federation.global_validation_loss"),
        "federation.node_updates": c["federation.node_updates"],
        "rng.substream_calls": calls("rng.substream"),
        "rng.substream_s": total("rng.substream"),
        "rng.substream_seed_calls": calls("rng.substream_seed"),
        "rdp.generate_loss_tables_s": total("rdp.generate_loss_tables"),
        "rdp.final_loss_calls": c["rdp.final_loss_calls"],
        "rdp.fit_tabular_s": total("rdp.fit_tabular"),
        "rdp.q_updates": c["rdp.q_updates"],
        "rdp.q_updates_per_s": _share(c["rdp.q_updates"], total("rdp.fit_tabular")),
        "rdp.train_self_s": table.get("rdp.train", {}).get("self_s", 0.0),
        "csvio.write_csv_s": total("csvio.write_csv"),
        "csvio.rows_written": c["csvio.rows_written"],
        "csvio.read_csv_s": total("csvio.read_csv"),
        "trace.overhead_s": traced_wall_s - untraced_wall_s,
    }
    assert list(values) == [name for name, _unit in LAYER_METRICS]
    return values
