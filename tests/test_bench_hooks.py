"""The benchmark's tracer must still see the calls the program makes.

perfbench/tracer.py wraps public functions at the names the program looks
them up under. A refactor that moves a call behind another binding makes
the per-layer metrics read zero; these checks catch that in the test
suite. The workloads must also still build from the program's config
keys and presets, and the harness must still measure a run end to end.
The benchmark's files are imported read-only.
"""

import importlib
import importlib.util
import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from dpfedsim import cli, csvio, experiment, presets, rdp
from dpfedsim.config import ExperimentConfig

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve the module by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="module")
def tracer():
    yield from _bench_module("tracer")


@pytest.fixture(scope="module")
def workloads():
    yield from _bench_module("workloads")


# perfbench/run.py imports its siblings by these top-level names.
_HARNESS = ("run", "tracer", "workloads", "calibration")


@pytest.fixture
def harness(monkeypatch):
    """The benchmark's modules, imported as run.py imports them: from the
    perfbench directory, without writing bytecode there."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    for name in _HARNESS:
        monkeypatch.delitem(sys.modules, name, raising=False)
    try:
        yield tuple(importlib.import_module(name) for name in _HARNESS)
    finally:
        for name in _HARNESS:
            sys.modules.pop(name, None)


def _smoke_config() -> ExperimentConfig:
    _name, overrides = presets.expand("smoke")[0]
    return ExperimentConfig.from_dict({**overrides, "seed": 5})


def _calls(tracer, traced, name: str) -> int:
    return tracer.span_table(traced.spans).get(name, {}).get("calls", 0)


def test_hooks_trace_a_smoke_run(tracer, tmp_path):
    with tracer.Tracer(full=True) as traced:
        bundle = experiment.run(_smoke_config(), tmp_path / "smoke")
    tracer.assert_pristine()

    assert bundle.status == "ok"
    assert _calls(tracer, traced, "experiment.prepare_state") == 1
    assert _calls(tracer, traced, "federation.run_episode") == bundle.summary["episodes_executed"] == 3
    assert _calls(tracer, traced, "model.gradient") > 0
    assert _calls(tracer, traced, "detection.evaluate") == 3
    # the leave-one-out standards come from one sum per episode, not one per node
    assert _calls(tracer, traced, "detection.comparison_standard") <= 3
    # the smoke attacker is adaptive: one controller loss per attack.csv row
    attack_rows = csvio.read_csv(bundle.csv_paths["attack"], "attack", experiment.SCHEMAS["attack"])
    assert _calls(tracer, traced, "adversary.episodic_loss") == len(attack_rows) > 0
    assert traced.counters["data.samples"] == 200


def test_hooks_trace_every_episode_layer_of_a_mix_run(tracer, tmp_path):
    """Each per-layer count of a mix-detector run is tied to the run, so a
    call moved behind a binding the tracer does not wrap breaks an equality."""
    _name, overrides = presets.expand("smoke")[0]
    cfg = ExperimentConfig.from_dict({**overrides, "seed": 5, "detector.kind": "mix"})
    with tracer.Tracer(full=True) as traced:
        bundle = experiment.run(cfg, tmp_path / "mix")
    tracer.assert_pristine()

    assert bundle.status == "ok"
    episodes = bundle.summary["episodes_executed"]
    counts = traced.counters

    def calls(name):
        return _calls(tracer, traced, name)

    assert calls("adversary.inject") > 0
    assert (
        calls("privacy.clip")
        == calls("privacy.add_noise") + calls("adversary.inject")
        == counts["federation.node_updates"]
        > 0
    )
    assert calls("detection.norm_rate") == calls("detection.accuracy_rate") == counts["detection.verdicts"] > 0
    assert calls("federation.aggregate") == calls("federation.select_nodes") == episodes > 0
    assert calls("federation.global_validation_loss") >= episodes


def test_hooks_trace_a_loss_table_run(tracer):
    base = _smoke_config()
    with tracer.Tracer(full=True) as traced:
        loss = cli.final_loss_runner(base)(base["privacy.epsilon"], None, base["seed"])
    tracer.assert_pristine()

    assert loss > 0
    assert traced.counters["rdp.final_loss_calls"] == 1
    assert _calls(tracer, traced, "experiment.prepare_state") == 1
    assert _calls(tracer, traced, "federation.run_episode") == base["federation.episodes"]
    assert _calls(tracer, traced, "model.gradient") > 0
    assert traced.counters["data.samples"] == 200


def test_hooks_trace_an_rdp_train(tracer):
    grid = (0.5, 1.0, 1.5)
    tables = rdp.LossTables(
        epsilon_grid=grid, m_l=np.array([3.0, 2.0, 1.0]), f_l=np.array([2.0, 1.5, 1.0])
    )
    hyper = rdp.RdpHyper(alpha=0.5, zeta=0.5, max_episodes=40)
    with tracer.Tracer(full=True) as traced:
        result = rdp.train(tables, hyper, seed=0)
    tracer.assert_pristine()

    assert len(result.trace) == hyper.max_episodes
    assert _calls(tracer, traced, "rdp.train") == 1
    assert _calls(tracer, traced, "rdp.fit_tabular") == 1
    # the counter reads fit_tabular's positional (states, ..., hyper, seed) arguments
    assert traced.counters["rdp.q_updates"] == len(grid) * hyper.max_episodes


def test_fit_tabular_steps_exploration_once_per_episode(monkeypatch):
    """perfbench/calibration.py interleaves its kernel on the
    ``rdp.exploration_probability`` binding, so ``fit_tabular`` must call it
    through the module global, once per episode.

    Bindings the benchmark records at import must stay bound too:
    ``tracer._ORIGINALS`` reads ``federation.local_train`` when the tracer
    loads, so that re-export stays although the program no longer calls it.
    """
    episodes = []
    original = rdp.exploration_probability

    def counting(episode, hyper):
        episodes.append(episode)
        return original(episode, hyper)

    monkeypatch.setattr(rdp, "exploration_probability", counting)
    tables = rdp.LossTables(
        epsilon_grid=(0.5, 1.0, 1.5), m_l=np.array([3.0, 2.0, 1.0]), f_l=np.array([2.0, 1.5, 1.0])
    )
    n = len(tables.epsilon_grid)
    hyper = rdp.RdpHyper(alpha=0.5, zeta=0.5, max_episodes=40)
    rdp.fit_tabular(
        range(n), rdp.ACTIONS, lambda s, a: rdp.step(s, a, n), lambda _s, _a, _s2: 1.0, hyper, 0
    )
    assert episodes == list(range(hyper.max_episodes))


def test_workloads_build_the_pinned_operations(workloads):
    """Every workload builds at the pinned seed, which parses each of its
    run configs, and its operations are the ones reference.json pins."""
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    assert reference["seed"] == workloads.DEFAULT_SEED
    assert set(workloads.WORKLOADS) == set(reference["workloads"])
    for name, workload in workloads.WORKLOADS.items():
        names = [op.name for op in workload.build(workloads.DEFAULT_SEED)]
        assert sorted(names) == sorted(reference["workloads"][name]), name
    # the loss-table base is written to a config file only when the operation runs
    ExperimentConfig.from_dict(workloads.TABLES_BASE)


def test_harness_measures_a_smoke_run(harness, tmp_path):
    """One untraced and one traced pass of a smoke run through the
    benchmark's own run_pass, end_to_end and layer_metrics. A run_episode
    the light hook cannot see leaves end_to_end no episode times, and it
    raises."""
    run, tracer, workloads, calibration = harness
    name, overrides = presets.expand("smoke")[0]
    ops = [workloads._run_op(name, {**overrides, "seed": 5})]
    machine = calibration.Calibration()
    # the calibration samples its kernel only once this much time has passed
    time.sleep(1.5 * calibration.NOMINAL_S / calibration.BUDGET_SHARE)
    untraced = run.run_pass(ops, tmp_path / "work", False, machine)
    traced = run.run_pass(ops, tmp_path / "work", True, machine)

    assert [o.status for p in (untraced, traced) for o in p.outcomes.values()] == ["ok", "ok"]
    for values, _samples in (run.end_to_end([untraced], machine), run.end_to_end([untraced])):
        assert all(math.isfinite(v) for v in values.values()), values
    layers = tracer.layer_metrics(traced.tracer, traced.wall_s, untraced.wall_s, run.run_ends(traced.outcomes))
    assert all(math.isfinite(v) for v in layers.values())
    assert layers["federation.node_updates"] == 15


@pytest.mark.xfail(
    strict=True, raises=ZeroDivisionError,
    reason="Calibration.scale and scale_at divide by zero before the first kernel sample",
)
def test_calibration_scales_before_its_first_sample(harness):
    """A Calibration takes its first kernel sample only once
    NOMINAL_S / BUDGET_SHARE seconds of work have passed, so an operation
    that ends sooner is scaled from no samples at all. Both factors must
    still be finite."""
    _run, _tracer, _workloads, calibration = harness
    machine = calibration.Calibration()
    assert not machine.samples
    assert math.isfinite(machine.scale(0))
    assert math.isfinite(machine.scale_at(0.0, 1.0))
