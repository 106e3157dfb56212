"""Configs drawn from a fixed boundary-value domain, with fixed seeds.

The contract: a config that ``ExperimentConfig.from_dict`` accepts runs
to a status (``ok`` or ``aborted_empty_aggregation_*``) or diverges with
``TrainingDivergedError``; a config it rejects raises a ``ConfigError``
naming a key or a key's section. The CLI's own inputs (the
``rdp-tables`` lists, the ``rdp-train`` hyper-parameters and the
``--preset``/``--config`` clash) end with exit 0 or, naming what is
wrong, with exit 1 and no output directory.
"""

import random
import shutil

import numpy as np
import pytest

from dpfedsim import experiment, presets
from dpfedsim.cli import main, write_tables
from dpfedsim.config import DEFAULTS, ConfigError, ExperimentConfig
from dpfedsim.model import TrainingDivergedError
from dpfedsim.rdp import LossTables, default_epsilon_grid

BASE = {
    "data.n_samples": 60,
    "federation.nodes": 5,
    "federation.participants": 3,
    "federation.episodes": 2,
}

# Mostly boundary values that must run; each key has at most one or two
# that must be refused, so that about half the drawn configs run.
DOMAIN = {
    "data.source": ["synthetic", "synthetic", "synthetic", "csv", "cache", "bogus"],
    "data.path": ["", "nosuch.csv"],
    "data.n_samples": [10, 11, 14, 15, 16, 25, 60, 61],
    "data.noise_scale": [-1, 0, 0.05, 1, 10],
    "data.server_split": [0, 0.001, 0.02, 0.05, 0.5, 0.99, 1],
    "model.hidden": ["16,8", "1,1", "2,3", "0,1", "4"],
    "federation.nodes": [1, 2, 3, 5, 6, 12],
    "federation.participants": [0, 1, 2, 3, 4],
    "federation.episodes": [0, 1, 2, 3],
    "privacy.epsilon": [1e-3, 0.1, 0.7, 2, 60, 0],
    "privacy.delta": [1e-9, 1e-3, 0.5, 0.999, 1],
    "privacy.clip": [1e-6, 0.05, 1, 100, 0],
    "privacy.stop_threshold": [0, 1e-3, 0.01, 1, -0.1],
    "attack.mode": ["none", "rmd", "mpelm", "mpelm", "bogus"],
    "attack.m": [0, 1, 2, 3, 4],
    "attack.rho": [0, 0.1, 1, 2, -1],
    "attack.gamma0": ["", 0, 0.5, 100, -1],
    "attack.r_hi": [1, 1.5, 100, 0.5],
    "attack.r_lo": [0, 0.5, 1, 1.2],
    "attack.gamma_fixed": ["", "", 0, 1, 1e6, -1],
    "detector.kind": ["off", "norm", "accuracy", "mix", "bogus"],
    "detector.beta1": [0.01, 1, 100, 0],
    "detector.beta2": [0, 0.1, 1, -1],
    "detector.d_max": [1e-6, 10, 1e9, 0],
    "detector.orientation": ["reversed", "reversed", "as_written"],
    "optimizer.kind": ["mbgd", "adamax", "sgd"],
    "optimizer.learning_rate": [1e-6, 1e-3, 0.1, 1, 1e6, 0],
    "optimizer.batch_size": [1, 2, 32, 1000, 0],
    "optimizer.local_steps": [1, 2, 5, 20, 0],
    "optimizer.early_stop": ["on", "off", "yes", "maybe"],
    "optimizer.patience": [0, 1, 3, -1],
    "seed": [-1, 0, 1, 2**40, "nan"],
}

SEEDS = (0, 1, 2, 3, 4, 5)
CONFIGS_PER_SEED = 100


def _names_a_key(path: str) -> bool:
    return path in DEFAULTS or any(key.startswith(path + ".") for key in DEFAULTS)


def _draw(rng: random.Random) -> dict:
    keys = rng.sample(sorted(DOMAIN), rng.randint(2, 8))
    return {**BASE, **{key: rng.choice(DOMAIN[key]) for key in keys}}


def test_domain_covers_every_key():
    assert set(DOMAIN) == set(DEFAULTS)


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_configs_run_to_a_status_or_fail_at_parse_time(tmp_path, seed):
    rng = random.Random(seed)
    for i in range(CONFIGS_PER_SEED):
        overrides = _draw(rng)
        try:
            cfg = ExperimentConfig.from_dict(overrides)
        except ConfigError as exc:
            assert _names_a_key(exc.field_path), (overrides, exc)
            continue
        try:
            with np.errstate(all="ignore"):
                status = experiment.run(cfg, tmp_path / str(i)).status
        except TrainingDivergedError:
            continue
        assert status == "ok" or status.startswith("aborted_empty_aggregation_episode_"), (overrides, status)


def _exit_and_out(tmp_path, argv) -> tuple[int, bool]:
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        code = main(argv + ["--out", str(out)])
    exists = out.exists()
    shutil.rmtree(out, ignore_errors=True)
    return code, exists


LISTS = ["0", "0.5", "0.5,1", "1e6", "1,", "", "abc", "nan", "-1", "1e400"]
SEED_LISTS = ["0", "0,1", "-1", "7", "", ",", "1.5"]


def test_generated_rdp_tables_lists(tmp_path, capsys):
    config = tmp_path / "base.cfg"
    config.write_text("".join(f"{k} = {v}\n" for k, v in {**BASE, "federation.episodes": 1}.items()))
    rng = random.Random(0)
    for _ in range(12):
        gammas, seeds = rng.choice(LISTS), rng.choice(SEED_LISTS)
        argv = ["rdp-tables", "--config", str(config), "--gammas", gammas, "--table-seeds", seeds]
        code, wrote = _exit_and_out(tmp_path, argv)
        err = capsys.readouterr().err
        assert (code, wrote) in ((0, True), (1, False)), (gammas, seeds, code, err)
        assert code == 0 or "usage error:" in err


RDP_FLAGS = {
    "--alpha": ["1e-6", "0.001", "0.5", "1", "0", "2", "nan"],
    "--zeta": ["0", "0.5", "0.99", "1", "-0.5", "nan"],
    "--episodes": ["1", "2", "50", "0", "-3"],
    "--seed": ["-1", "0", "7"],
}


def test_generated_rdp_train_hyper_parameters(tmp_path, capsys):
    cells = [{"epsilon": eps, "gamma": 1.0, "seed": 0, "m_l": 2.0 / eps, "f_l": 1.0} for eps in default_epsilon_grid()]
    tables = write_tables(tmp_path / "lt.csv", LossTables.from_cells(cells))
    rng = random.Random(0)
    for _ in range(40):
        flags = [part for flag in sorted(RDP_FLAGS) for part in (flag, rng.choice(RDP_FLAGS[flag]))]
        code, wrote = _exit_and_out(tmp_path, ["rdp-train", "--tables", str(tables)] + flags)
        err = capsys.readouterr().err
        assert (code, wrote) in ((0, True), (1, False)), (flags, code, err)
        assert code == 0 or "usage error:" in err


def test_generated_preset_config_clash(tmp_path, capsys):
    """A --config key that a --preset cell sets is refused, naming the key,
    before anything is written."""
    config = tmp_path / "file.cfg"
    rng = random.Random(0)
    for _ in range(40):
        preset = rng.choice(sorted(presets.PRESETS))
        keys = rng.sample(sorted(DEFAULTS), rng.randint(1, 4))
        config.write_text("".join(f"{key} = {DEFAULTS[key]}\n" for key in keys))
        clash = sorted(set().union(*(o for _n, o in presets.expand(preset))).intersection(keys))
        if not clash:
            continue
        code, wrote = _exit_and_out(tmp_path, ["train", "--preset", preset, "--config", str(config)])
        err = capsys.readouterr().err
        assert (code, wrote) == (1, False), (preset, keys, err)
        assert all(key in err for key in clash), (clash, err)
