"""End-to-end CLI tests: exit codes, output files, reproducibility, and the
environment seed override."""

import contextlib
import io
import json
import math
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from anytime_iter import _kernel, cli, harness
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
        ("counterexample", {"p_one": "abc", "n_reps": 10, "horizon": 10, "seed_base": 1}),
        ("counterexample", {"p_one": 0.1, "n_reps": "x", "horizon": 10, "seed_base": 1}),
        ("width-table", {"b": [1], "lam": 1.0, "delta": 0.05, "horizons": [100]}),
        ("width-table", {"b": 1.0, "lam": 1.0, "delta": 0.05, "horizons": 10}),
        ("lil", dict(LIL_CFG, fraction_threshold="x")),
        ("stitch-dump", {"c1": 1.0, "delta": 0.1, "horizon": 10, "terms_mean": 5}),
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


CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# every shipped config: its command and the values that keep its run small
_SMALL_COVERAGE = {"n_reps": 2, "horizon": 20, "record_grid": [0, 10]}
SHIPPED = {
    "sgd_coverage.json": ("coverage", _SMALL_COVERAGE),
    "sgd_falsification.json": ("coverage", _SMALL_COVERAGE),
    "krasulina_coverage.json": ("coverage", _SMALL_COVERAGE),
    "ridge_coverage.json": ("coverage", _SMALL_COVERAGE),
    "last_iterate.json": ("last-iterate", {"n_reps": 2, "horizon": 20, "t_eval": 20}),
    "width_table.json": ("width-table", {}),
    "lil.json": ("lil", {"n_blocks": 2, "n_seeds": 2}),
    "oja_cold_start.json": ("oja-cold-start", {"n_reps": 2, "horizon": 20}),
    "counterexample.json": ("counterexample", {"n_reps": 2, "horizon": 20}),
    "stitch.json": ("stitch-dump", {"horizon": 20}),
}


def small_shipped(name, problem_fields=None, **fields):
    """The shipped config name, shrunk, with fields (and problem fields) replaced."""
    cfg = {**json.loads((CONFIGS / name).read_text()), **SHIPPED[name][1], **fields}
    if problem_fields is not None:
        cfg["problem"] = dict(cfg["problem"], **problem_fields)
    return cfg


def run_text(tmp_path, command, payload):
    """Exit code and stderr of running command on the JSON payload."""
    cfg = write_cfg(tmp_path, "cfg.json", payload)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as fh:
        code = run([command, "--config", cfg, "--out-dir", str(tmp_path / "o")])
    return code, fh.getvalue()


@pytest.mark.parametrize(
    "name,problem,fields,field",
    [
        ("lil.json", None, {"n_blocks": 2.5}, "n_blocks"),
        ("oja_cold_start.json", None, {"n_reps": 1.5}, "n_reps"),
        ("sgd_coverage.json", None, {"delta": "0.1"}, "delta"),
        ("sgd_coverage.json", None, {"n_reps": 2.5}, "n_reps"),
        ("sgd_coverage.json", None, {"record_grid": [1.5]}, "record_grid"),
        ("last_iterate.json", None, {"t_eval": 2.7}, "t_eval"),
        ("krasulina_coverage.json", {"normalize": "yes"}, {}, "normalize"),
        ("sgd_coverage.json", None, {"seed_base": True}, "seed_base"),
        ("sgd_coverage.json", None, {"problem": "abc"}, "problem must be a JSON object"),
        # a threshold above 1 can never pass, one at 0 never fails
        ("lil.json", None, {"fraction_threshold": 2.0}, "fraction_threshold"),
        ("lil.json", None, {"fraction_threshold": 0.0}, "fraction_threshold"),
        # an infinite width covers every path
        ("sgd_falsification.json", None, {"boundary_scale": math.inf}, "boundary_scale"),
        # counts beyond numpy's indices: an internal error, or a run that
        # never ends
        ("sgd_coverage.json", None, {"n_reps": 10**20}, "n_reps"),
        ("stitch.json", None, {"horizon": 10**20}, "horizon"),
        ("lil.json", None, {"n_seeds": 10**20}, "n_seeds"),
    ],
)
def test_mistyped_field_is_named(name, problem, fields, field, tmp_path, monkeypatch):
    # each would otherwise run: on a truncated or coerced value, or with a
    # verdict fixed before the run
    monkeypatch.delenv("ANYTIME_ITER_SEED", raising=False)
    code, err = run_text(tmp_path, SHIPPED[name][0], small_shipped(name, problem, **fields))
    assert code == 2 and field in err, err


@pytest.mark.parametrize(
    "name,problem,fields,field",
    [
        ("oja_cold_start.json", None, {"eigs": []}, "eigs"),
        ("krasulina_coverage.json", {"eigs": []}, {}, "eigs"),
        ("ridge_coverage.json", {"theta_star": []}, {}, "theta_star"),
    ],
)
def test_empty_vector_is_a_config_error(name, problem, fields, field, tmp_path):
    # not an internal IndexError or ZeroDivisionError (exit 3)
    code, err = run_text(tmp_path, SHIPPED[name][0], small_shipped(name, problem, **fields))
    assert code == 2 and f"{field} must not be empty" in err, err


def _json_kind(value) -> str:
    for kind, types in (("bool", bool), ("string", str), ("list", list), ("object", dict)):
        if isinstance(value, types):
            return kind
    return "null" if value is None else "integer" if isinstance(value, int) else "float"


# replacement values of each JSON kind; none of them is valid for a field of
# another kind (an integer field takes no non-integral number, and no field a
# non-finite one)
RETYPED = {
    "string": st.text(max_size=4),
    "list": st.lists(st.integers(-2, 2), max_size=2),
    "object": st.dictionaries(st.sampled_from("ab"), st.integers(0, 2), max_size=1),
    "bool": st.booleans(),
    "null": st.none(),
    "non-integral": st.floats(-1e3, 1e3).filter(lambda x: x != int(x)),
    "non-finite": st.sampled_from([math.inf, -math.inf, math.nan]),
}
# v0 takes "warm", "uniform" or a vector
UNION_KINDS = {"v0": {"string", "list"}}


@pytest.mark.parametrize("name", sorted(SHIPPED))
@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_mutated_shipped_config(name, data, tmp_path, monkeypatch):
    # a renamed or retyped field exits 2 and is named; a dropped one, or a
    # number pushed to zero or below, may run or be rejected, but is never
    # an internal error
    monkeypatch.delenv("ANYTIME_ITER_SEED", raising=False)
    command, _ = SHIPPED[name]
    cfg = small_shipped(name)
    paths = [(cfg, k) for k in cfg] + [(cfg["problem"], k) for k in cfg.get("problem", ())]
    owner, key = data.draw(st.sampled_from(paths))
    numeric = _json_kind(owner[key]) in ("integer", "float")
    ops = ["none", "rename", "retype", "drop"] + ["out-of-range"] * numeric
    op = data.draw(st.sampled_from(ops))
    value = owner.pop(key) if op != "none" else None
    if op == "rename":
        key += data.draw(st.text("XYZ", min_size=1, max_size=2))
        owner[key] = value
    elif op == "retype":
        valid = UNION_KINDS.get(key, {_json_kind(value)})
        if _json_kind(value) == "float":
            valid = valid | {"non-integral"}
        kind = data.draw(st.sampled_from(sorted(set(RETYPED) - valid)))
        owner[key] = data.draw(RETYPED[kind])
    elif op == "out-of-range":
        owner[key] = data.draw(st.sampled_from([0, -1, -value]))
    code, err = run_text(tmp_path, command, cfg)
    if op == "none":
        assert code in (0, 1), err
    elif op in ("drop", "out-of-range"):
        assert code in (0, 1, 2), err
    else:
        assert code == 2 and key in err, (key, owner.get(key), err)


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
            ("_lil_batch", "lil", lil_cfg),
            ("pca_batch", "oja-cold-start", cold_cfg),
        ):
            with monkeypatch.context() as mp:
                mp.setattr(harness, engine, broken_engine)
                assert run([command, "--config", path, "--out-dir", str(tmp_path / "o")]) == 3
            err = capsys.readouterr().err
            assert err == f"error: internal {exc.__name__}: engine fault\n", command


@pytest.mark.filterwarnings("error")
def test_diverging_lil_run_is_an_internal_error(tmp_path, capsys):
    # a steep cubic M overshoots and diverges: its block maxima turn nan,
    # which the report would write as bare NaN, not valid JSON.  The
    # finiteness check is the one signal: no numpy warning of the overflow
    # comes first, which warnings as errors would turn into exit 3 with an
    # internal RuntimeWarning
    cfg = write_cfg(
        tmp_path,
        "lil.json",
        dict(LIL_CFG, m_kind="cubic_plus_linear", cub_a=100.0, cub_b=1.0, n_blocks=6, n_seeds=4),
    )
    out = tmp_path / "o"
    assert run(["lil", "--config", cfg, "--out-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: internal FloatingPointError: non-finite LIL statistic")
    assert "seed index" in err and "in block t=" in err
    assert not (out / "lil_report.json").exists()


@pytest.mark.parametrize("threads", ["-3", "-1", "two"])
def test_bad_thread_count_exits_2(threads, tmp_path, capsys, monkeypatch):
    # rejected by argparse, before any config is read or run
    monkeypatch.setattr(harness, "_drive", lambda *a, **kw: pytest.fail("ran"))
    cfg = write_cfg(tmp_path, "cov.json", SGD_CFG)
    with pytest.raises(SystemExit) as exc:
        run(["coverage", "--config", cfg, "--out-dir", str(tmp_path), "--threads", threads])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


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


def test_lil_reports_reproducible_across_threads(tmp_path, monkeypatch):
    # lil splits its seeds into one block per worker; each seed's maxima are
    # one column, so the report and the CSV keep every byte
    batches = []
    kernels = _kernel.load()

    class Counting:
        def __getattr__(self, name):
            return getattr(kernels, name)

        def generators(self, seeds):
            batches.append(len(seeds))
            return kernels.generators(seeds)

    counting = Counting()
    monkeypatch.setattr(_kernel, "load", lambda: counting)
    monkeypatch.setattr(harness, "_usable_cores", lambda: 4)
    cfg = write_cfg(
        tmp_path, "lil.json", {"l1": 1.0, "l2": 1.0, "n_blocks": 6, "n_seeds": 7, "seed_base": 2}
    )
    files = []
    for threads in ("1", "2", "3"):
        out = tmp_path / threads
        batches.clear()
        assert run(["lil", "--config", cfg, "--out-dir", str(out), "--threads", threads]) in (0, 1)
        assert sorted(batches) == {"1": [7], "2": [3, 4], "3": [1, 3, 3]}[threads]
        files.append([(out / f).read_bytes() for f in ("lil_report.json", "lil_blocks.csv")])
    assert files[0] == files[1] == files[2]


COLD_START_CFG = {
    "eigs": [2.0, 1.0, 1.0, 1.0],
    "delta": 0.3,
    "c_explore": 0.05,
    "c_stable": 6.0,
    "horizon": 300,
    "n_reps": 40,
    "seed_base": 8,
}


@pytest.mark.parametrize(
    "command, cfg, report",
    [
        ("last-iterate", dict(SGD_CFG, n_reps=100, t_eval=400), "last_iterate_report.json"),
        ("oja-cold-start", COLD_START_CFG, "cold_start_report.json"),
    ],
)
def test_drive_reports_reproducible_across_threads(command, cfg, report, tmp_path, monkeypatch):
    # --threads reaches the block driver of every command that has one, and
    # the payload does not depend on it
    seen = []
    drive = harness._drive
    monkeypatch.setattr(
        harness, "_drive", lambda *a, **kw: seen.append(kw["threads"]) or drive(*a, **kw)
    )
    path = write_cfg(tmp_path, "cfg.json", cfg)
    docs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        argv = [command, "--config", path, "--out-dir", str(out), "--threads", threads]
        assert run(argv) in (0, 1)
        docs.append(json.loads((out / report).read_text()))
    assert seen == [1, 2]
    for doc in docs:
        doc.pop("timing")
    assert json.dumps(docs[0], sort_keys=True) == json.dumps(docs[1], sort_keys=True)


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
    # a command without a seed_base field takes no seed from the environment
    wt = write_cfg(tmp_path, "wt.json", {"b": 1.0, "lam": 1.0, "delta": 0.1, "horizons": [100]})
    assert run(["width-table", "--config", wt, "--out-dir", str(tmp_path / "w")]) == 0
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
    cfg = write_cfg(tmp_path, "cs.json", COLD_START_CFG)
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
        # the parse main runs: keys, types, the problem object and the
        # dataclasses' own checks
        cli._parse_config(commands.get(p.name, "coverage"), str(p))
    assert run(["width-table", "--config", str(cfg_dir / "width_table.json"), "--out-dir", str(tmp_path)]) == 0
