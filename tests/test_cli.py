"""End-to-end CLI tests: exit codes, output files, reproducibility, and the
environment seed override."""

import json

import pytest

from anytime_iter import cli
from anytime_iter.cli import main


SGD_CFG = {
    "algorithm": "sgd_sc",
    "problem": {
        "curvature": [1.0, 1.0],
        "x_star": [0.0, 0.0],
        "radius": 0.5,
        "b_noise": 0.5,
        "x0": [0.5, 0.0],
    },
    "delta": 0.05,
    "n_reps": 40,
    "horizon": 400,
    "seed_base": 11,
    "record_grid": [0, 100, 400],
}


LIL_CFG = {"l1": 1.0, "l2": 1.0, "n_blocks": 4, "n_seeds": 2, "seed_base": 1}

COLD_START_CFG = {
    "eigs": [2.0, 1.0],
    "delta": 0.3,
    "c_explore": 0.05,
    "c_stable": 6.0,
    "horizon": 100,
    "n_reps": 4,
    "seed_base": 1,
}


def write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(args):
    return main(args)


def test_coverage_success(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "cov.json", SGD_CFG)
    out = tmp_path / "out"
    assert run(["coverage", "--config", cfg, "--out-dir", str(out)]) == 0
    assert (out / "coverage_report.json").is_file()
    assert (out / "widths.csv").is_file()
    assert "PASS" in capsys.readouterr().out


def test_coverage_failure_exit_code(tmp_path):
    bad = dict(SGD_CFG, boundary_scale=1.0 / 1008.0)
    cfg = write_cfg(tmp_path, "cov.json", bad)
    assert run(["coverage", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 1


def test_invalid_config_exit_code(tmp_path, capsys):
    assert run(["coverage", "--config", str(tmp_path / "missing.json")]) == 2
    cfg = write_cfg(tmp_path, "bad.json", dict(SGD_CFG, algorithm="bogus"))
    assert run(["coverage", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "bogus" in err
    malformed = tmp_path / "broken.json"
    malformed.write_text("{not json")
    assert run(["coverage", "--config", str(malformed)]) == 2


@pytest.mark.parametrize(
    "command,payload",
    [
        ("lil", dict(LIL_CFG, seed_base=-1)),
        ("counterexample", {"p_one": 0.1, "n_reps": 0, "horizon": 10, "seed_base": 1}),
        ("width-table", {"b": 1.0, "lam": 1.0, "delta": 0.5, "horizons": [100]}),
        ("lil", dict(LIL_CFG, m_kind="quadratic")),
        ("lil", dict(LIL_CFG, slope=-1.0)),
        ("oja-cold-start", dict(COLD_START_CFG, eigs=[1.0, 2.0])),
        ("lil", dict(LIL_CFG, slope=[1])),
        ("oja-cold-start", dict(COLD_START_CFG, variant="bogus")),
        ("coverage", dict(SGD_CFG, problem=dict(SGD_CFG["problem"], x0=[0.5, 0.5]))),
        ("lil", dict(LIL_CFG, l1=2.0)),
        ("lil", dict(LIL_CFG, n_seeds=0)),
        ("coverage", dict(SGD_CFG, boundry_scale=0.001)),
        ("lil", dict(LIL_CFG, slpoe=3)),
        ("coverage", dict(SGD_CFG, problem=dict(SGD_CFG["problem"], b_nosie=0.0))),
    ],
)
def test_invalid_values_exit_before_running(command, payload, tmp_path, capsys):
    # each is rejected before the run with exit 2, not mistaken for a failed
    # threshold (exit 1) or an internal error (exit 3)
    cfg = write_cfg(tmp_path, "cfg.json", payload)
    assert run([command, "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_unknown_keys_are_named(tmp_path, capsys):
    # a misspelled key would otherwise run with the default it shadows: a
    # falsification run at boundary_scale 1 passes
    for payload, key in (
        (dict(SGD_CFG, boundry_scale=0.001), "'boundry_scale'"),
        (dict(SGD_CFG, problem=dict(SGD_CFG["problem"], b_nosie=0.0)), "'b_nosie'"),
    ):
        cfg = write_cfg(tmp_path, "cfg.json", payload)
        assert run(["coverage", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 2
        assert key in capsys.readouterr().err


def test_negative_seed_override_is_invalid(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, "lil.json", {"l1": 1.0, "l2": 1.0, "n_blocks": 4, "n_seeds": 2})
    monkeypatch.setenv("ANYTIME_ITER_SEED", "-3")
    assert run(["lil", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 2


def test_internal_error_exit_code(tmp_path, capsys, monkeypatch):
    # a non-finite loss (or any other internal error) exits 3 with one line
    import anytime_iter.cli as cli
    import anytime_iter.harness as harness

    def non_finite(config, threads=0):
        raise FloatingPointError("non-finite loss nan in replication 4\nat t=17")

    monkeypatch.setattr(cli, "run_coverage", non_finite)
    cfg = write_cfg(tmp_path, "cov.json", SGD_CFG)
    assert run(["coverage", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err == "error: internal FloatingPointError: non-finite loss nan in replication 4 at t=17\n"
    monkeypatch.undo()

    # a ValueError or TypeError raised inside the run is internal too, not an
    # invalid config: only parsing and building the problem exit 2
    lil_cfg = write_cfg(tmp_path, "lil.json", LIL_CFG)
    cold_cfg = write_cfg(tmp_path, "cold.json", COLD_START_CFG)
    for exc in (ValueError, TypeError):

        def broken_engine(*args, **kwargs):
            raise exc("engine fault")

        for engine, command, path in (
            ("sgd_batch", "coverage", cfg),
            ("rm_batch", "lil", lil_cfg),
            ("pca_batch", "oja-cold-start", cold_cfg),
        ):
            with monkeypatch.context() as mp:
                mp.setattr(harness, engine, broken_engine)
                assert run([command, "--config", path, "--out-dir", str(tmp_path / "o")]) == 3
            err = capsys.readouterr().err
            assert err == f"error: internal {exc.__name__}: engine fault\n", command


def test_reports_reproducible_across_threads(tmp_path):
    cfg = write_cfg(tmp_path, "cov.json", SGD_CFG)
    outs = []
    for i, threads in enumerate(("1", "3")):
        out = tmp_path / f"out{i}"
        assert run(["coverage", "--config", cfg, "--out-dir", str(out), "--threads", threads]) == 0
        outs.append(json.loads((out / "coverage_report.json").read_text()))
    for doc in outs:
        doc.pop("timing")
    assert outs[0] == outs[1]


def test_seed_env_override(tmp_path, monkeypatch):
    cfg = write_cfg(
        tmp_path,
        "lil.json",
        {"l1": 1.0, "l2": 1.0, "n_blocks": 6, "n_seeds": 3, "seed_base": 1},
    )
    out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    run(["lil", "--config", cfg, "--out-dir", str(out1)])
    monkeypatch.setenv("ANYTIME_ITER_SEED", "999")
    run(["lil", "--config", cfg, "--out-dir", str(out2)])
    monkeypatch.delenv("ANYTIME_ITER_SEED")
    run(["lil", "--config", cfg, "--out-dir", str(out3)])
    f = lambda p: json.loads((p / "lil_report.json").read_text())["report"]["final_max"]
    assert f(out1) == f(out3)
    assert f(out1) != f(out2)  # continuous statistics: distinct seeds never collide


def test_width_table(tmp_path):
    cfg = write_cfg(
        tmp_path, "wt.json", {"b": 1.0, "lam": 1.0, "delta": 0.1, "horizons": [100, 1000]}
    )
    out = tmp_path / "out"
    assert run(["width-table", "--config", cfg, "--out-dir", str(out)]) == 0
    lines = (out / "width_table.csv").read_text().splitlines()
    assert lines[0] == "t,anytime,fixed_horizon,ratio"
    assert len(lines) == 3


def test_lil_command(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "lil.json",
        {"l1": 1.0, "l2": 1.0, "n_blocks": 8, "n_seeds": 10, "seed_base": 4},
    )
    out = tmp_path / "out"
    code = run(["lil", "--config", cfg, "--out-dir", str(out)])
    assert code in (0, 1)  # tiny horizon: the proxy may legitimately fail
    doc = json.loads((out / "lil_report.json").read_text())["report"]
    assert doc["n_seeds"] == 10
    lines = (out / "lil_blocks.csv").read_text().splitlines()
    assert lines[0] == "seed_index,block_start,block_end,block_max,running_max"


def test_stitch_dump(tmp_path):
    cfg = write_cfg(
        tmp_path, "st.json", {"c1": 1.0, "c2": 1.0, "c3": 1.0, "delta": 0.01, "horizon": 500}
    )
    out = tmp_path / "out"
    assert run(["stitch-dump", "--config", cfg, "--out-dir", str(out)]) == 0
    lines = (out / "stitch_schedule.csv").read_text().splitlines()
    assert lines[0] == "t,eta,width"
    assert len(lines) == 502
    # invalid: a linear extra term makes the construction inapplicable
    bad = write_cfg(
        tmp_path,
        "bad.json",
        {"c1": 1.0, "delta": 0.01, "horizon": 100, "terms_mean": [[1.0, 0.0, 1.0]]},
    )
    assert run(["stitch-dump", "--config", bad, "--out-dir", str(out)]) == 2


def test_catalog(tmp_path, capsys):
    assert run(["catalog", "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    for label in ("sgd", "pl", "oja", "ridge"):
        assert label in out
    doc = json.loads((tmp_path / "catalog.json").read_text())
    assert {e["label"] for e in doc} == {"sgd", "pl", "oja", "ridge"}


def test_last_iterate_command(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "li.json",
        dict(SGD_CFG, delta=0.1, n_reps=100, horizon=200, t_eval=200, record_grid=[]),
    )
    out = tmp_path / "out"
    assert run(["last-iterate", "--config", cfg, "--out-dir", str(out)]) == 0
    doc = json.loads((out / "last_iterate_report.json").read_text())["report"]
    assert doc["t_eval"] == 200 and doc["passed"]


def test_oja_cold_start_command(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "cs.json",
        {
            "eigs": [2.0, 1.0, 1.0, 1.0],
            "delta": 0.3,
            "c_explore": 0.05,
            "c_stable": 6.0,
            "horizon": 300,
            "n_reps": 40,
            "seed_base": 8,
        },
    )
    out = tmp_path / "out"
    code = run(["oja-cold-start", "--config", cfg, "--out-dir", str(out)])
    assert code in (0, 1)
    doc = json.loads((out / "cold_start_report.json").read_text())["report"]
    assert doc["split_t"] > 0


def test_shipped_example_configs_validate(tmp_path):
    # every shipped config parses; run the cheap ones end to end
    from pathlib import Path

    cfg_dir = Path(__file__).resolve().parents[1] / "configs"
    names = {p.name for p in cfg_dir.glob("*.json")}
    assert {
        "sgd_coverage.json",
        "krasulina_coverage.json",
        "ridge_coverage.json",
        "last_iterate.json",
        "width_table.json",
        "lil.json",
        "oja_cold_start.json",
        "counterexample.json",
        "stitch.json",
    } <= names
    commands = {
        "last_iterate.json": "last-iterate",
        "width_table.json": "width-table",
        "lil.json": "lil",
        "oja_cold_start.json": "oja-cold-start",
        "counterexample.json": "counterexample",
        "stitch.json": "stitch-dump",
    }
    for p in cfg_dir.glob("*.json"):
        cfg = json.loads(p.read_text())
        command = commands.get(p.name, "coverage")
        cli._check_keys(cfg, cli._COMMANDS[command][2], p.name)
        if "problem" in cfg:
            cli._coverage_config(cfg)  # checks the problem keys
    assert run(["width-table", "--config", str(cfg_dir / "width_table.json"), "--out-dir", str(tmp_path)]) == 0
