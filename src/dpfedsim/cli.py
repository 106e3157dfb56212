"""Command-line front door.

Subcommands: ingest, train, rdp-tables, rdp-train, report, accept. A
run's attack and detector come from its config keys (attack.mode,
attack.m, detector.kind), set in a --config file or per cell by a
--preset. Exit codes: 0 ok, 1 usage error, 2 runtime error, 3
acceptance failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import csvio, presets, rdp
from .config import ConfigError, ExperimentConfig, parse_config_text
from .experiment import SCHEMAS, discover_runs, final_loss_runner, report, run
from .model import TrainingDivergedError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_ACCEPTANCE = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# argparse types: a bad value is a usage error naming its flag or argument,
# raised before any command runs.
def _existing(test, kind: str):
    def check(text: str) -> str:
        if not test(Path(text)):
            raise argparse.ArgumentTypeError(f"no such {kind} {text}")
        return text

    return check


def _criteria(text: str) -> set[int]:
    from .acceptance import CRITERIA

    known = {number for number, _title, _fn in CRITERIA}
    entries = [item.strip() for item in text.split(",") if item.strip()]
    bad = [item for item in entries if not (item.isdigit() and int(item) in known)]
    if bad or not entries:
        raise argparse.ArgumentTypeError(
            f"not a criterion number: {', '.join(bad) or '(none given)'} (criteria are {', '.join(map(str, sorted(known)))})"
        )
    return {int(item) for item in entries}


def _build_parser() -> _Parser:
    parser = _Parser(prog="dpfedsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_preset=True):
        p.add_argument("--config", type=_existing(Path.is_file, "file"), help="key = value config file")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("--out", default="runs", help="output directory")
        if with_preset:
            p.add_argument("--preset", choices=sorted(presets.PRESETS), help="run a named grid")

    p_ingest = sub.add_parser("ingest", help="parse a source CSV into a cleaned cache file")
    p_ingest.add_argument("path", type=_existing(Path.is_file, "file"), help="semicolon-separated source CSV")
    p_ingest.add_argument("--out", default="cache", help="cache directory")

    p_train = sub.add_parser("train", help="run federation with the configured attack and detector")
    common(p_train)

    p_tables = sub.add_parser("rdp-tables", help="generate attacker/federated loss tables")
    common(p_tables, with_preset=False)
    p_tables.add_argument("--gammas", default="0.5,1.0", help="comma-separated poisoning degrees")
    p_tables.add_argument("--table-seeds", default="0,1", help="comma-separated run seeds per cell")

    p_rdp = sub.add_parser("rdp-train", help="train the privacy-level agent on generated tables")
    p_rdp.add_argument("--tables", type=_existing(Path.is_file, "file"), required=True, help="loss-tables CSV from rdp-tables")
    p_rdp.add_argument("--out", default="runs/rdp", help="output directory")
    p_rdp.add_argument("--seed", type=int, default=0)
    p_rdp.add_argument("--alpha", type=float, default=0.001)
    p_rdp.add_argument("--zeta", type=float, default=0.5)
    p_rdp.add_argument("--episodes", type=int, default=60000)

    p_report = sub.add_parser("report", help="summarize one or more run directories")
    p_report.add_argument(
        "runs", nargs="+", type=_existing(Path.is_dir, "directory"), help="run directories or their parent directories"
    )
    p_report.add_argument("--out", help="also write the table as CSV")

    p_accept = sub.add_parser("accept", help="run the acceptance suite with pinned seeds")
    p_accept.add_argument("--only", type=_criteria, help="comma-separated criterion numbers, e.g. 1,2,10")
    p_accept.add_argument("--out", default="runs/acceptance", help="scratch directory")
    return parser


def _load_config(args, overrides=None) -> ExperimentConfig:
    values = {}
    if args.config:
        values.update(parse_file(args.config))
    if overrides:
        values.update(overrides)
    if args.seed is not None:
        values["seed"] = args.seed
    return ExperimentConfig.from_dict(values)


def parse_file(path) -> dict:
    return parse_config_text(Path(path).read_text())


def _cmd_ingest(args) -> int:
    from .data import ingest_csv

    samples = ingest_csv(args.path, cache_dir=args.out)
    print(f"ingested {len(samples)} samples; cache written under {args.out}")
    return EXIT_OK


def _run_single(cfg: ExperimentConfig, out_dir: Path) -> int:
    bundle = run(cfg, out_dir)
    print(f"{out_dir}: status={bundle.status} episodes={bundle.summary['episodes_executed']} "
          f"final_val_loss={bundle.summary['final_val_loss']:.6g}")
    return EXIT_OK if bundle.status == "ok" else EXIT_RUNTIME


def _cmd_train(args) -> int:
    out_root = Path(args.out)
    if args.preset:
        cells = presets.expand(args.preset)
        if args.config:
            preset_keys = set().union(*(overrides for _name, overrides in cells))
            clash = sorted(preset_keys.intersection(parse_file(args.config)))
            if clash:
                raise UsageError(
                    f"--config sets {', '.join(clash)}, which --preset {args.preset} sets per cell"
                )
        worst = EXIT_OK
        for name, overrides in cells:
            cfg = _load_config(args, overrides)
            try:
                worst = max(worst, _run_single(cfg, out_root / name))
            except TrainingDivergedError as exc:  # one diverging cell must not end the grid
                print(f"{out_root / name}: diverged at episode {exc.episode}, node {exc.node_id}, step {exc.step}")
                worst = EXIT_RUNTIME
        return worst
    return _run_single(_load_config(args), out_root)


def _cmd_rdp_tables(args) -> int:
    base = _load_config(args)
    gammas = _parse_list("--gammas", args.gammas, float)
    seeds = _parse_list("--table-seeds", args.table_seeds, int)
    if not gammas or not seeds:
        raise UsageError("--gammas and --table-seeds must be nonempty")
    tables = rdp.generate_loss_tables(
        rdp.default_epsilon_grid(), gammas, seeds, final_loss_runner(base)
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = write_tables(out / "loss_tables.csv", tables)
    print(f"wrote {path} ({len(tables.cells)} cells)")
    return EXIT_OK


def _parse_list(flag: str, text: str, cast) -> list:
    try:
        return [cast(item) for item in text.split(",") if item.strip()]
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from exc


def write_tables(path, tables: rdp.LossTables):
    return csvio.write_csv(
        path, "loss_tables", SCHEMAS["loss_tables"],
        ["epsilon", "gamma", "seed", "m_l", "f_l"], tables.cells,
    )


def read_tables(path) -> rdp.LossTables:
    rows = csvio.read_csv(path, "loss_tables", SCHEMAS["loss_tables"])
    return rdp.LossTables.from_cells(
        [
            {
                "epsilon": float(r["epsilon"]),
                "gamma": float(r["gamma"]),
                "seed": int(r["seed"]),
                "m_l": float(r["m_l"]),
                "f_l": float(r["f_l"]),
            }
            for r in rows
        ]
    )


def _cmd_rdp_train(args) -> int:
    try:
        hyper = rdp.RdpHyper(alpha=args.alpha, zeta=args.zeta, max_episodes=args.episodes)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    tables = read_tables(args.tables)
    try:
        tables.require_complete()
    except ValueError as exc:
        raise UsageError(f"{args.tables}: {exc}") from exc
    result = rdp.train(tables, hyper, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    m_bins, f_bins = tables.bins
    cells = sorted((m_bins[i], f_bins[i], i, a.value) for i in range(len(result.values)) for a in rdp.ACTIONS)
    csvio.write_csv(
        out / "qtable.csv", "qtable", SCHEMAS["qtable"],
        ["m_l_bin", "f_l_bin", "eps_index", "action", "q_value"],
        [
            {
                "m_l_bin": m,
                "f_l_bin": f,
                "eps_index": i,
                "action": rdp.ACTIONS[j].name.lower(),
                "q_value": float(result.values[i, j]),
            }
            for m, f, i, j in cells
        ],
    )
    csvio.write_csv(
        out / "rdp_trace.csv", "rdp_trace", SCHEMAS["rdp_trace"],
        ["episode", "cumulative_reward", "mean_abs_delta_q", "exploration_prob"],
        result.trace,
    )
    print(f"trained {args.episodes} episodes; epsilon*={result.epsilon_star}; "
          f"final mean|dQ|={result.trace[-1]['mean_abs_delta_q']:.3e}; outputs in {out}")
    return EXIT_OK


def _cmd_report(args) -> int:
    run_dirs = []
    for arg in args.runs:
        found = discover_runs(arg)
        if not found:
            raise UsageError(f"argument runs: no summary.csv in {arg} or its subdirectories")
        run_dirs += found
    text, _rows = report(run_dirs, args.out)
    print(text)
    return EXIT_OK


def _cmd_accept(args) -> int:
    from .acceptance import run_suite

    results = run_suite(Path(args.out), only=args.only)
    failed = [r for r in results if not r.passed]
    return EXIT_ACCEPTANCE if failed else EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handlers = {
            "ingest": _cmd_ingest,
            "train": _cmd_train,
            "rdp-tables": _cmd_rdp_tables,
            "rdp-train": _cmd_rdp_train,
            "report": _cmd_report,
            "accept": _cmd_accept,
        }
        return handlers[args.command](args)
    except (UsageError, ConfigError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except csvio.SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
