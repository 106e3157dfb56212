"""dpfedsim benchmark: times the paper's three studies as users run them.

    python3 perfbench/run.py --workload impact-sweep --seed 0 --seconds 30 --trace 0

Run from the repository root (``--workload all`` runs every workload, each
in a fresh process). ``--trace 0`` repeats untraced passes of the workload
for about ``--seconds`` and reports the end-to-end metrics; ``--trace 1``
runs one untraced pass, then one traced pass, and reports the per-layer
metrics. Every pass checks its outputs: against invariants, against the
digests pinned in reference.json at the default seed, and byte for byte
against the run's first pass. End-to-end times are calibrated against a
fixed kernel (see calibration.py). The last line of standard output is one
JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench"
REFERENCE = BENCH_DIR / "reference.json"
WORKLOAD_NAMES = ("impact-sweep", "stealth-wide", "privacy-design")
# The workloads are serial; one BLAS thread keeps them so on any machine.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Stop adding passes once the next one could end past this many seconds.
PASS_CEILING_S = 150.0

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("node_updates_per_s", "1/s"),
    ("episode_ms_p50", "ms"),
    ("episode_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class PassResult:
    op_seconds: dict  # operation name -> seconds, calibration time taken out
    outcomes: dict  # operation name -> Outcome
    tracer: object  # the Tracer that was installed during the pass
    peak_rss_mb: float  # of the process, at the end of the pass
    scales: dict  # operation name -> calibration factor to the nominal machine

    @property
    def wall_s(self) -> float:
        return sum(self.op_seconds.values())


def run_pass(ops, work_dir: Path, full: bool, calibration) -> PassResult:
    from tracer import Tracer, assert_pristine
    from workloads import run_operation

    assert_pristine()
    shutil.rmtree(work_dir, ignore_errors=True)
    op_seconds, outcomes, scales = {}, {}, {}
    # The traced pass reports raw layer times, so no kernel runs inside its spans.
    steps = contextlib.nullcontext() if full else calibration.between_steps()
    with Tracer(full) as tracer, steps:
        calibration.settle()
        for op in ops:
            tracer.operation = op.name
            first, spent = len(calibration.samples), calibration.spent
            outcomes[op.name], seconds = run_operation(op, work_dir / op.name)
            op_seconds[op.name] = seconds - (calibration.spent - spent)
            calibration.settle()
            scales[op.name] = calibration.scale(first)
    assert_pristine()
    shutil.rmtree(work_dir, ignore_errors=True)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return PassResult(op_seconds, outcomes, tracer, rss, scales)


def judge(passes, seed: int, reference: dict) -> tuple[bool, int, int, list[str]]:
    """(correct, attempted, failed, problems) over every operation of every pass.

    An operation fails when it raises anything but the program's own
    divergence error, exits non-zero, breaks an invariant, or (at the
    default seed) does not reproduce its pinned outcome: the status, and
    the digest when one is pinned. A run that diverges or aborts is a
    result, not a failure (see workloads.DIVERGED). Outputs are incorrect
    when a pinned outcome or an invariant is not met, or when a pass
    differs from the first.
    """
    from workloads import DEFAULT_SEED

    correct, attempted, failed, problems = True, 0, 0, []
    first = passes[0].outcomes
    for number, result in enumerate(passes, start=1):
        for name, outcome in result.outcomes.items():
            attempted += 1
            bad = outcome.end is None
            if outcome.invariant_error:
                bad, correct = True, False
                problems.append(f"pass {number} {name}: {outcome.invariant_error}")
            if seed == DEFAULT_SEED:
                pinned = reference.get(name, {})
                if outcome.status != pinned.get("status") or outcome.digest != pinned.get("sha256"):
                    bad, correct = True, False
                    problems.append(f"pass {number} {name}: outcome differs from reference")
            if outcome != first[name]:
                correct = False
                problems.append(f"pass {number} {name}: outputs differ from pass 1")
            if bad:
                failed += 1
                if number == 1:
                    problems.append(f"{name}: failed ({outcome.status})")
    return correct, attempted, failed, problems


def run_ends(outcomes) -> dict[str, int]:
    """How many operations of one pass ended ok, diverged or aborted."""
    ends = {"ok": 0, "diverged": 0, "aborted": 0}
    for outcome in outcomes.values():
        if outcome.end:
            ends[outcome.end] += 1
    return ends


def end_to_end(passes, calibration=None) -> tuple[dict, dict]:
    """End-to-end metrics of untraced passes, and the sample counts behind them.

    With a calibration, pass wall times are multiplied by the scale of each
    operation, and set-up and episode times by the scale around each call.
    """
    calibrated = calibration is not None

    def scaled(p, name):
        return [(calibration.scale_at(start, end) if calibrated else 1.0) * (end - start)
                for span, start, end, _parent, _op in p.tracer.spans if span == name]

    walls = [sum((p.scales[op] if calibrated else 1.0) * t for op, t in p.op_seconds.items()) for p in passes]
    setups = [sum(scaled(p, "experiment.prepare_state")) for p in passes]
    rates = [p.tracer.counters["federation.node_updates"] / w for p, w in zip(passes, walls)]
    episodes_ms = [1000.0 * d for p in passes for d in scaled(p, "federation.run_episode")]
    deciles = statistics.quantiles(episodes_ms, n=10)
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "node_updates_per_s": statistics.median(rates),
        "episode_ms_p50": statistics.median(episodes_ms),
        "episode_ms_p90": deciles[8],
        "peak_rss_mb": passes[0].peak_rss_mb,
    }
    samples = {
        "passes": len(passes),
        "pass_wall_s": walls,
        "episodes": len(episodes_ms),
        "episodes_beyond_p90": sum(1 for x in episodes_ms if x > deciles[8]),
        "prepare_state_calls_per_pass": len(scaled(passes[0], "experiment.prepare_state")),
    }
    return values, samples


def machine_facts() -> dict:
    import numpy

    cpu_model = platform.machine()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "loadavg_start": list(os.getloadavg()),
    }


def run_workload(args) -> int:
    from calibration import Calibration
    from tracer import LAYER_METRICS, layer_metrics, span_table
    from workloads import WORKLOADS

    facts = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, **machine_facts()}
    workload = WORKLOADS[args.workload]
    ops = workload.build(args.seed)
    reference = json.loads(REFERENCE.read_text())["workloads"].get(args.workload, {})
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    calibration = Calibration()
    try:
        if args.trace:
            passes = [run_pass(ops, work_dir, False, calibration)]
            traced = run_pass(ops, work_dir, True, calibration)
        else:
            passes = []
            while True:
                passes.append(run_pass(ops, work_dir, False, calibration))
                spent = sum(p.wall_s for p in passes)
                next_end = spent * (len(passes) + 1) / len(passes)
                if next_end > PASS_CEILING_S or (
                    len(passes) >= workload.min_passes and next_end > args.seconds
                ):
                    break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    e2e, samples = end_to_end(passes, calibration)
    raw, _ = end_to_end(passes)
    facts["samples"] = samples
    facts["calibration"] = {
        "kernels": len(calibration.samples),
        "kernel_mean_s": sum(calibration.samples) / len(calibration.samples),
        "pass_wall_raw_s": [p.wall_s for p in passes],
    }
    facts["operations_per_pass"] = len(ops)
    checked = passes + [traced] if args.trace else passes
    correct, attempted, failed, problems = judge(checked, args.seed, reference)
    per_pass = attempted // len(checked)
    ends = run_ends(checked[0].outcomes)
    facts["run_ends_per_pass"] = ends

    print(f"workload {args.workload}  seed {args.seed}  passes {len(checked)}  "
          f"operations/pass {per_pass}")
    print(f"  {'metric':<22} {'calibrated':>14} {'raw':>14}")
    for name, unit in END_TO_END:
        print(f"  {name:<22} {e2e[name]:>14.6g} {raw[name]:>14.6g} {unit}")
    print(f"  {'failed_share':<22} {failed / attempted:>14.6g} share ({failed} of {attempted} operations)")
    print("  run ends per pass: " + ", ".join(f"{k} {v}" for k, v in ends.items()))
    for problem in problems:
        print(f"  problem: {problem}")

    if args.trace:
        layers = layer_metrics(traced.tracer, traced.wall_s, passes[0].wall_s, ends)
        print(f"traced pass {traced.wall_s:.6g} s, untraced {passes[0].wall_s:.6g} s, "
              f"{len(traced.tracer.spans)} spans")
        print(f"  {'span':<36} {'calls':>9} {'total_s':>11} {'self_s':>11}")
        for name, row in sorted(span_table(traced.tracer.spans).items()):
            print(f"  {name:<36} {row['calls']:>9} {row['total_s']:>11.5f} {row['self_s']:>11.5f}")
        for name, unit in LAYER_METRICS:
            print(f"  {name:<36} {layers[name]:>14.6g} {unit}")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in LAYER_METRICS}
        stem = f"{args.workload}-seed{args.seed}"
        traced.tracer.write_spans(OUT_DIR / f"spans-{stem}.csv")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
        stem = f"{args.workload}-seed{args.seed}-e2e"

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {**result, "facts": facts, "problems": problems, "end_to_end": e2e, "end_to_end_raw": raw,
              "outcomes": {n: o.__dict__ for n, o in checked[0].outcomes.items()}}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("facts " + json.dumps(facts))
    print(json.dumps(result))
    return 0


def write_reference() -> int:
    """Pin one pass of every workload at the default seed into reference.json."""
    from calibration import Calibration
    from workloads import DEFAULT_SEED, WORKLOADS

    pinned = {}
    for name in WORKLOAD_NAMES:
        ops = WORKLOADS[name].build(DEFAULT_SEED)
        result = run_pass(ops, OUT_DIR / f"work-{os.getpid()}", False, Calibration())
        pinned[name] = {
            op: {"status": o.status, **({"sha256": o.digest} if o.digest else {})}
            for op, o in result.outcomes.items()
        }
    REFERENCE.write_text(json.dumps({"seed": DEFAULT_SEED, "workloads": pinned}, indent=1) + "\n")
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints each report, then one merged line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        print(child.stdout, end="", flush=True)
        if child.returncode != 0:
            return child.returncode
        last = json.loads(child.stdout.strip().splitlines()[-1])
        merged["correct"] = merged["correct"] and last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        merged["metrics"].update({f"{name}/{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="re-pin reference.json from one pass of each workload at the default seed")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dpfedsim" / "__init__.py").is_file():
        print(f"error: no dpfedsim source tree under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all" and not args.write_reference:
        return run_all(args)
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    if args.write_reference:
        return write_reference()
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
