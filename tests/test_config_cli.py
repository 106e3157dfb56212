import numpy as np
import pytest

from dpfedsim import csvio, presets
from dpfedsim.cli import main, parse_file, read_tables, write_tables
from dpfedsim.config import DEFAULTS, ConfigError, ExperimentConfig, parse_config_text
from dpfedsim.rdp import ACTIONS, Action, LossTables, RdpHyper, generate_loss_tables, train


# config parsing ---------------------------------------------------------

def test_defaults_complete():
    cfg = ExperimentConfig.from_dict({})
    assert cfg["federation.nodes"] == 100
    assert cfg["attack.mode"] == "none"
    resolved = cfg.resolved()
    assert set(resolved) == set(DEFAULTS)
    assert resolved["attack.gamma0"] == cfg["privacy.epsilon"]


def test_parse_text_roundtrip():
    text = """
    # comment
    federation.nodes = 20
    federation.participants = 8
    privacy.epsilon = 1.5    # inline comment
    attack.mode = mpelm
    attack.m = 2
    """
    values = parse_config_text(text)
    cfg = ExperimentConfig.from_dict(values)
    assert cfg["federation.nodes"] == 20
    assert cfg["federation.participants"] == 8
    assert cfg["privacy.epsilon"] == 1.5
    assert cfg["attack.m"] == 2


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown"):
        ExperimentConfig.from_dict({"federation.bogus": 1})


def test_cross_field_validation_names_path():
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict({"federation.participants": 200})
    assert err.value.field_path == "federation.participants"

    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict({"attack.m": 5})  # mode none
    assert err.value.field_path == "attack.m"


def test_bad_literal_rejected():
    with pytest.raises(ConfigError, match="cannot parse"):
        ExperimentConfig.from_dict({"federation.nodes": "many"})


def test_gamma0_defaults_to_epsilon():
    cfg = ExperimentConfig.from_dict(
        {"privacy.epsilon": 1.3, "attack.mode": "mpelm", "attack.m": 1}
    )
    assert cfg.federation_config().attack.gamma0 == 1.3
    cfg = ExperimentConfig.from_dict(
        {"privacy.epsilon": 1.3, "attack.gamma0": 0.4, "attack.mode": "mpelm", "attack.m": 1}
    )
    assert cfg.federation_config().attack.gamma0 == 0.4


def test_typed_views():
    cfg = ExperimentConfig.from_dict({"model.hidden": "4,2", "optimizer.kind": "adamax"})
    typed = cfg.federation_config()
    assert typed.arch.hidden == (4, 2)
    assert typed.optimizer.kind == "adamax"
    assert typed.k == 100
    assert typed.detector.kind == "off"


def test_config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("seed = 11\nfederation.episodes = 2\n")
    cfg = ExperimentConfig.from_dict(parse_file(path))
    assert cfg["seed"] == 11 and cfg["federation.episodes"] == 2


# schema-versioned csv ----------------------------------------------------

def test_csv_roundtrip(tmp_path):
    path = tmp_path / "t.csv"
    rows = [{"a": 1, "b": 0.1}, {"a": 2, "b": float("nan")}]
    csvio.write_csv(path, "episodes", 1, ["a", "b"], rows)
    back = csvio.read_csv(path, "episodes", 1)
    assert back[0]["a"] == "1" and float(back[0]["b"]) == 0.1
    assert back[1]["b"] == "nan"


def test_csv_schema_mismatch(tmp_path):
    path = tmp_path / "t.csv"
    csvio.write_csv(path, "episodes", 1, ["a"], [{"a": 1}])
    with pytest.raises(csvio.SchemaError):
        csvio.read_csv(path, "episodes", 2)
    with pytest.raises(csvio.SchemaError):
        csvio.read_csv(path, "ledger", 1)


def test_csv_floats_full_precision(tmp_path):
    value = 0.1234567890123456789
    path = tmp_path / "t.csv"
    csvio.write_csv(path, "x", 1, ["v"], [{"v": value}])
    assert float(csvio.read_csv(path, "x", 1)[0]["v"]) == value


# loss-table persistence ---------------------------------------------------

def test_tables_roundtrip(tmp_path):
    tables = LossTables(
        epsilon_grid=(0.5, 1.0),
        m_l=np.array([4.0, 2.0]),
        f_l=np.array([3.0, 1.0]),
        cells=[
            {"epsilon": 0.5, "gamma": 1.0, "seed": 0, "m_l": 4.0, "f_l": 3.0},
            {"epsilon": 1.0, "gamma": 1.0, "seed": 0, "m_l": 2.0, "f_l": 1.0},
        ],
    )
    path = write_tables(tmp_path / "lt.csv", tables)
    back = read_tables(path)
    assert back.epsilon_grid == (0.5, 1.0)
    assert np.array_equal(back.m_l, tables.m_l)
    assert np.array_equal(back.f_l, tables.f_l)


def test_generated_tables_equal_their_reread_copy(tmp_path):
    # benign losses 0.3 and 0.1 over 2 gammas x 2 seeds: averaging over the
    # seeds alone gives 0.2, over every gamma x seed cell 0.19999999999999998
    def runner(_eps, gamma, seed):
        if gamma is None:
            return 0.3 if seed == 0 else 0.1
        return 0.5 + gamma + 0.1 * seed

    tables = generate_loss_tables([0.5, 1.0], [0.5, 1.0], [0, 1], runner)
    back = read_tables(write_tables(tmp_path / "lt.csv", tables))
    assert back.epsilon_grid == tables.epsilon_grid
    assert np.array_equal(back.m_l, tables.m_l)
    assert np.array_equal(back.f_l, tables.f_l)


# cli ------------------------------------------------------------------------

def _cfg_file(tmp_path, extra=""):
    path = tmp_path / "run.cfg"
    path.write_text(
        "data.n_samples = 200\n"
        "federation.nodes = 10\n"
        "federation.participants = 4\n"
        "federation.episodes = 1\n"
        "privacy.stop_threshold = 0.5\n" + extra
    )
    return path


def test_cli_train_single_episode_csv(tmp_path):
    out = tmp_path / "run"
    code = main(["train", "--config", str(_cfg_file(tmp_path)), "--out", str(out)])
    assert code == 0
    rows = csvio.read_csv(out / "episodes.csv", "episodes", 1)
    assert len(rows) == 1


def test_cli_same_seed_byte_identical(tmp_path):
    cfg = _cfg_file(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", str(cfg), "--seed", "4", "--out", str(a)]) == 0
    assert main(["train", "--config", str(cfg), "--seed", "4", "--out", str(b)]) == 0
    for name in ("episodes.csv", "ledger.csv", "summary.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_cli_usage_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("federation.participants = 5000\n")
    assert main(["train", "--config", str(bad), "--out", str(tmp_path / "x")]) == 1


@pytest.mark.parametrize(
    "line,path",
    [
        pytest.param("optimizer.early_stop = nope", "optimizer.early_stop", id="early_stop"),
        pytest.param("optimizer.batch_size = 0", "optimizer: batch_size", id="batch_size"),
        pytest.param("optimizer.patience = -1", "optimizer: patience", id="patience"),
        pytest.param("privacy.stop_threshold = -0.1", "privacy.stop_threshold", id="stop_threshold"),
        pytest.param(
            "detector.kind = accuracy\ndata.server_split = 0", "data.server_split", id="server_split"
        ),
        pytest.param(
            "detector.kind = mix\ndata.server_split = 0.001", "data.server_split", id="holdout_rounds_to_zero"
        ),
        pytest.param("data.server_split = 1.5", "data.server_split", id="server_split_range"),
        # the 2% holdout leaves 98 samples for 100 shards
        pytest.param(
            "data.n_samples = 100\nfederation.nodes = 100", "data.n_samples: need at least one sample per node",
            id="holdout_leaves_too_few_samples",
        ),
        pytest.param("data.noise_scale = -1", "data.noise_scale: must be >= 0", id="negative_noise_scale"),
        pytest.param("data.source = csv\ndata.path = nosuch.csv", "data.path: no such file", id="missing_data_path"),
        # 2 rows per shard: round(20%) leaves every validation split empty
        pytest.param(
            "data.n_samples = 10\nfederation.nodes = 5\nfederation.participants = 3",
            "data.n_samples: 10 samples for 5 nodes", id="no_validation_rows",
        ),
        # shards of 3, 2, 2, 2, 2 rows: the adaptive attacker reads compromised node 1's empty split
        pytest.param(
            "data.n_samples = 11\ndata.server_split = 0\nfederation.nodes = 5\nfederation.participants = 3\n"
            "attack.mode = mpelm\nattack.m = 2",
            "attack.m: the adaptive attacker reads compromised node 1", id="compromised_node_without_validation_rows",
        ),
        pytest.param("optimizer.early_stop =", "optimizer.early_stop: empty value", id="empty_value"),
        pytest.param("federation.workers = 4", "federation.workers: unknown", id="removed_workers_key"),
        pytest.param("attack.theta = 0", "attack.theta: unknown", id="removed_theta_key"),
        pytest.param("data.cache_dir = cache", "data.cache_dir: unknown", id="removed_cache_dir_key"),
        # a non-finite float would run without noise, never stop, or flag nothing
        pytest.param("privacy.epsilon = nan", "privacy.epsilon: must be finite", id="nan_epsilon"),
        pytest.param("privacy.epsilon = inf", "privacy.epsilon: must be finite", id="inf_epsilon"),
        pytest.param("detector.beta1 = nan", "detector.beta1: must be finite", id="nan_beta1"),
        pytest.param(
            "privacy.stop_threshold = nan", "privacy.stop_threshold: must be finite", id="nan_stop_threshold"
        ),
        pytest.param("attack.gamma_fixed = -inf", "attack.gamma_fixed: must be finite", id="inf_gamma_fixed"),
        pytest.param(
            "detector.orientation = as_written", "detector.orientation: only reversed",
            id="orientation_as_written",
        ),
        pytest.param("attack.gamma0 = abc", "attack.gamma0: cannot parse 'abc'", id="gamma0_not_a_number"),
        pytest.param(
            "attack.gamma_fixed = 1,5", "attack.gamma_fixed: cannot parse '1,5'", id="gamma_fixed_not_a_number"
        ),
        pytest.param(
            "federation.participants = 1\ndetector.kind = norm", "federation.participants",
            id="one_participant_with_detector",
        ),
        pytest.param(
            "attack.mode = mpelm\nattack.m = 2\nattack.gamma_fixed = -1", "attack: fixed degree",
            id="negative_gamma_fixed",
        ),
        # an attack mode with no compromised node would run benign yet be labelled attacked
        pytest.param(
            "attack.mode = rmd", "attack.m: must be >= 1 when attack.mode is rmd", id="rmd_without_compromised"
        ),
        pytest.param(
            "attack.mode = mpelm\nattack.m = 0", "attack.m: must be >= 1 when attack.mode is mpelm",
            id="mpelm_without_compromised",
        ),
        pytest.param("privacy.clip = 0", "privacy: clipping threshold clip_c", id="clip"),
        pytest.param("detector.beta1 = 0", "detector: norm benchmark beta1", id="beta1"),
        pytest.param("detector.beta2 = -1", "detector: accuracy benchmark beta2", id="beta2"),
        pytest.param("detector.d_max = 0", "detector: squared-distance cap d_max", id="d_max"),
        # the attack block is validated whatever attack.mode says
        pytest.param("attack.r_lo = 1.2", "attack: loss-ratio threshold r_lo", id="r_lo"),
        pytest.param("attack.r_hi = 0.9", "attack: loss-ratio threshold r_hi", id="r_hi"),
        pytest.param("attack.gamma0 = -1", "attack: initial degree of poisoning gamma0", id="gamma0"),
        pytest.param(
            "attack.gamma_fixed = -1", "attack: fixed degree of poisoning gamma_fixed",
            id="negative_gamma_fixed_without_attack",
        ),
    ],
)
def test_cli_invalid_config_fails_at_parse_time(tmp_path, capsys, line, path):
    cfg = _cfg_file(tmp_path, line + "\n")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert path in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_cli_preset_continues_past_a_diverging_cell(tmp_path, monkeypatch, capsys):
    small = {
        "data.n_samples": 200,
        "federation.nodes": 10,
        "federation.participants": 4,
        "federation.episodes": 1,
        "privacy.stop_threshold": 0.5,
    }
    cells = [("diverges", {**small, "optimizer.learning_rate": 1e100}), ("fine", small)]
    monkeypatch.setitem(presets.PRESETS, "pair", lambda: cells)
    with np.errstate(all="ignore"):
        code = main(["train", "--preset", "pair", "--out", str(tmp_path)])
    assert code == 2
    assert "diverges: diverged at episode 1, node 2, step 1" in capsys.readouterr().out
    assert not (tmp_path / "diverges" / "summary.csv").exists()
    assert (tmp_path / "fine" / "summary.csv").exists()


def test_cli_preset_rejects_config_keys_it_would_override(tmp_path, capsys):
    cfg = tmp_path / "f.cfg"
    cfg.write_text("detector.kind = mix\noptimizer.kind = adamax\n")
    out = tmp_path / "x"
    assert main(["train", "--preset", "smoke", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "detector.kind" in err and "optimizer.kind" not in err
    assert not out.exists()

    # a file key that no cell sets still applies
    cfg.write_text("optimizer.kind = adamax\n")
    assert main(["train", "--preset", "smoke", "--config", str(cfg), "--out", str(out)]) == 0
    assert "optimizer.kind = adamax" in (out / "smoke" / "run_info.txt").read_text()


def test_cli_unknown_preset_rejected():
    assert main(["train", "--preset", "nope", "--out", "/tmp/x"]) == 1


def test_cli_attack_mode_from_config(tmp_path):
    out = tmp_path / "atk"
    cfg = _cfg_file(tmp_path, "attack.m = 2\nattack.mode = rmd\n")
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    rows = csvio.read_csv(out / "summary.csv", "summary", 1)
    assert rows[0]["attack_mode"] == "rmd"


def test_cli_detector_from_config(tmp_path):
    out = tmp_path / "det"
    cfg = _cfg_file(
        tmp_path,
        "model.hidden = 8,4\nprivacy.epsilon = 60\nprivacy.clip = 0.05\ndetector.kind = norm\n",
    )
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "detection.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["attack"], id="attack_subcommand"),
        pytest.param(["train", "--detector", "norm"], id="detector_flag"),
    ],
)
def test_cli_run_is_described_by_its_config_alone(tmp_path, argv):
    # the attack and detector come from attack.mode, attack.m and detector.kind only
    cfg = _cfg_file(tmp_path)
    out = tmp_path / "x"
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 1
    assert not out.exists()


def test_cli_report(tmp_path, capsys):
    cfg = _cfg_file(tmp_path)
    a, b = tmp_path / "runs" / "a", tmp_path / "runs" / "b"
    main(["train", "--config", str(cfg), "--seed", "1", "--out", str(a)])
    main(["train", "--config", str(cfg), "--seed", "2", "--out", str(b)])
    code = main(["report", str(tmp_path / "runs"), "--out", str(tmp_path / "report.csv")])
    assert code == 0
    text = capsys.readouterr().out
    assert "final_val_loss" in text and "a" in text and "b" in text
    assert (tmp_path / "report.csv").exists()


def test_cli_report_refuses_schema_mismatch(tmp_path):
    run = tmp_path / "r"
    run.mkdir()
    (run / "summary.csv").write_text("# schema: summary v99\nstatus\nok\n")
    assert main(["report", str(run)]) == 2


def _report_empty(tmp_path, capsys, count):
    # a directory with no run at or under it is a usage error, however
    # many directories are given
    empties = [tmp_path / f"none{j}" for j in range(count)]
    for empty in empties:
        empty.mkdir()
    assert main(["report", *map(str, empties), "--out", str(tmp_path / "report.csv")]) == 1
    captured = capsys.readouterr()
    assert f"argument runs: no summary.csv in {empties[0]} or its subdirectories" in captured.err
    assert captured.out == "" and not (tmp_path / "report.csv").exists()


def test_cli_report_empty(tmp_path, capsys):
    _report_empty(tmp_path, capsys, 1)


def test_cli_report_two_empty_directories(tmp_path, capsys):
    _report_empty(tmp_path, capsys, 2)


@pytest.mark.parametrize(
    "runs,args",
    [
        pytest.param(["p/a", "p/b", "q/c"], ["p", "q"], id="two_parent_directories"),
        pytest.param(["p/a", "q/c", "q/d"], ["p/a", "q"], id="run_and_parent_directory"),
    ],
)
def test_cli_report_expands_every_argument(tmp_path, capsys, runs, args):
    cfg = _cfg_file(tmp_path)
    for seed, run_dir in enumerate(runs):
        assert main(["train", "--config", str(cfg), "--seed", str(seed), "--out", str(tmp_path / run_dir)]) == 0
    capsys.readouterr()
    assert main(["report", *(str(tmp_path / arg) for arg in args)]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split()[0] for row in rows] == [run.split("/")[1] for run in runs]


def test_cli_ingest(tmp_path, capsys):
    from dpfedsim.data import EXPECTED_HEADER

    src = tmp_path / "p.csv"
    rows = ["16/12/2006;17:24:00;" + ";".join(str(v) for v in (1 + i, 0.4, 230 + i, 18, 0, 1, 17))
            for i in range(4)]
    src.write_text(";".join(EXPECTED_HEADER) + "\n" + "\n".join(rows) + "\n")
    assert main(["ingest", str(src), "--out", str(tmp_path / "cache")]) == 0
    assert list((tmp_path / "cache").glob("*.npz"))


def test_cli_rdp_pipeline(tmp_path):
    cfg = tmp_path / "rdp.cfg"
    cfg.write_text(
        "data.n_samples = 120\n"
        "federation.nodes = 4\n"
        "federation.participants = 2\n"
        "federation.episodes = 2\n"
        "model.hidden = 4,2\n"
        "privacy.clip = 0.05\n"
        "privacy.stop_threshold = 0.5\n"
        "optimizer.kind = adamax\n"
        "attack.mode = mpelm\n"
        "attack.m = 1\n"
    )
    tables_dir = tmp_path / "tables"
    assert main([
        "rdp-tables", "--config", str(cfg), "--out", str(tables_dir),
        "--gammas", "0.5", "--table-seeds", "0",
    ]) == 0
    out = tmp_path / "agent"
    assert main([
        "rdp-train", "--tables", str(tables_dir / "loss_tables.csv"),
        "--out", str(out), "--episodes", "200", "--alpha", "0.1",
    ]) == 0
    trace = csvio.read_csv(out / "rdp_trace.csv", "rdp_trace", 1)
    assert len(trace) == 200
    qtable = csvio.read_csv(out / "qtable.csv", "qtable", 1)
    assert len(qtable) == 20 * 5  # grid x actions


def test_cli_qtable_rows_sorted_by_bins_then_index(tmp_path):
    # m_l is not monotone in epsilon, so bin order is not index order; two
    # grid points share both bins, and two share only their m_l bin
    m_l = [4.0, 2.0, 4.0, 1.0, 2.0, 4.0]
    f_l = [1.0, 3.0, 1.0, 2.0, 1.0, 2.0]
    grid = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    tables = LossTables.from_cells(
        [{"epsilon": e, "gamma": 1.0, "seed": 0, "m_l": m, "f_l": f} for e, m, f in zip(grid, m_l, f_l)]
    )
    path = write_tables(tmp_path / "lt.csv", tables)
    out = tmp_path / "agent"
    assert main([
        "rdp-train", "--tables", str(path), "--out", str(out),
        "--episodes", "300", "--alpha", "0.1", "--seed", "5",
    ]) == 0

    rows = csvio.read_csv(out / "qtable.csv", "qtable", 1)
    keys = [
        (int(r["m_l_bin"]), int(r["f_l_bin"]), int(r["eps_index"]), Action[r["action"].upper()].value)
        for r in rows
    ]
    assert keys == sorted(keys)
    assert sorted(keys) == sorted((*b, i, a.value) for i, b in enumerate(zip(*tables.bins)) for a in ACTIONS)
    assert [k[2] for k in keys] != sorted(k[2] for k in keys)  # a sort by eps_index alone differs

    expected = train(read_tables(path), RdpHyper(alpha=0.1, zeta=0.5, max_episodes=300), seed=5)
    for r, (_m, _f, i, a) in zip(rows, keys):
        assert float(r["q_value"]) == expected.values[i, a]


@pytest.mark.parametrize(
    "flags,message",
    [
        pytest.param(["--episodes", "0"], "episode count", id="zero_episodes"),
        pytest.param(["--episodes", "-3"], "episode count", id="negative_episodes"),
        pytest.param(["--alpha", "2"], "learning rate", id="alpha"),
        pytest.param(["--zeta", "1.5"], "discount factor", id="zeta"),
    ],
)
def test_cli_rdp_train_rejects_invalid_hyper_parameters(tmp_path, capsys, flags, message):
    tables = LossTables.from_cells(
        [{"epsilon": eps, "gamma": 1.0, "seed": 0, "m_l": 2.0 / eps, "f_l": 1.0} for eps in (0.5, 1.0)]
    )
    path = write_tables(tmp_path / "lt.csv", tables)
    out = tmp_path / "agent"
    assert main(["rdp-train", "--tables", str(path), "--out", str(out)] + flags) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_rdp_train_rejects_empty_tables(tmp_path, capsys):
    # a loss_tables.csv holding only its schema line and header
    path = write_tables(tmp_path / "lt.csv", LossTables.from_cells([]))
    out = tmp_path / "agent"
    assert main(["rdp-train", "--tables", str(path), "--out", str(out)]) == 1
    assert f"{path}: loss tables have no grid points" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag,value",
    [
        pytest.param("--gammas", "0.5,abc", id="gammas"),
        pytest.param("--table-seeds", "1.5", id="table_seeds"),
    ],
)
def test_cli_rdp_tables_rejects_unparsable_lists(tmp_path, capsys, flag, value):
    cfg = _cfg_file(tmp_path, "attack.mode = mpelm\nattack.m = 1\n")
    out = tmp_path / "tables"
    argv = ["rdp-tables", "--config", str(cfg), "--out", str(out), "--gammas", "0.5", "--table-seeds", "0"]
    assert main(argv + [flag, value]) == 1
    assert f"usage error: {flag}:" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rdp_tables_rejects_non_finite_gamma(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, "attack.mode = mpelm\nattack.m = 1\n")
    out = tmp_path / "tables"
    argv = ["rdp-tables", "--config", str(cfg), "--out", str(out), "--gammas", "nan", "--table-seeds", "0"]
    assert main(argv) == 1
    assert "attack.gamma_fixed: must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "only,named",
    [
        pytest.param("99", "99", id="unknown_number"),
        pytest.param("abc", "abc", id="not_a_number"),
        pytest.param("2,abc,13", "abc, 13", id="every_bad_entry"),
    ],
)
def test_cli_accept_rejects_unknown_criteria_before_running_any(tmp_path, capsys, only, named):
    out = tmp_path / "acceptance"
    assert main(["accept", "--only", only, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert f"usage error: argument --only: not a criterion number: {named}" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,message",
    [
        pytest.param(["train", "--config", "nosuch.cfg"], "--config: no such file nosuch.cfg", id="train_config"),
        pytest.param(["rdp-tables", "--config", "nosuch.cfg"], "--config: no such file nosuch.cfg", id="tables_config"),
        pytest.param(["rdp-train", "--tables", "nosuch.csv"], "--tables: no such file nosuch.csv", id="rdp_tables"),
        pytest.param(["report", "nosuchdir"], "runs: no such directory nosuchdir", id="report_runs"),
        pytest.param(["ingest", "nosuch.txt"], "path: no such file nosuch.txt", id="ingest_path"),
    ],
)
def test_cli_missing_input_path_is_a_usage_error(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out", "out"]) == 1
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
