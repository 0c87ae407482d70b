"""Command-line front end.

Subcommands run each experiment from a JSON config and write reports into
--out-dir.  Exit codes: 0 success, 1 an acceptance threshold failed,
2 invalid configuration (with field diagnostics), found while parsing the
config and building the problem, before the run, 3 an internal error raised
during the run, such as the FloatingPointError a non-finite loss raises
(with a one-line "error:" diagnostic).  A config key the command does not
read is invalid, so a misspelled field never falls back to its default.
The environment variable ANYTIME_ITER_SEED, when set, overrides the
config's seed_base.

Acceptance policy (stated in every report): a coverage experiment passes when
its empirical violation rate is at most confidence_cost*delta plus a
three-sigma Monte Carlo slack 3*sqrt(confidence_cost*delta/n_reps).
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .problems import PcaProblem, RmProblem
from .boundaries import (
    boundary_catalog,
    oja_boundary,
    pl_boundary,
    ridge_boundary,
    sgd_boundary,
    stitch_schedule,
    write_catalog_json,
)
from .harness import (
    CoverageConfig,
    SpecError,
    _check_keys,
    _spec,
    run_counterexample,
    run_coverage,
    run_last_iterate,
    run_lil_ensemble,
    run_oja_cold_start,
    width_comparison,
    write_grid_csv,
    write_report_json,
)
from .recursion import RecursionParams
from .seeding import rep_seed

__all__ = ["main"]

SEED_ENV = "ANYTIME_ITER_SEED"


class ConfigError(Exception):
    """Invalid configuration; the message carries field diagnostics."""


def _load_config(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(p) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}")


def _require(cfg: dict, *fields: str) -> None:
    missing = [f for f in fields if f not in cfg]
    if missing:
        raise ConfigError(f"missing required field(s): {', '.join(missing)}")


def _seed_base(cfg: dict) -> int:
    env = os.environ.get(SEED_ENV)
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise ConfigError(f"{SEED_ENV} must be an integer, got {env!r}")
    else:
        _require(cfg, "seed_base")
        seed = int(cfg["seed_base"])
    if seed < 0:
        raise ConfigError(f"seed_base must be nonnegative, got {seed}")
    return seed


def _coverage_config(cfg: dict) -> CoverageConfig:
    _require(cfg, "algorithm", "problem", "delta", "n_reps", "horizon")
    try:
        return CoverageConfig(
            algorithm=cfg["algorithm"],
            problem=cfg["problem"],
            delta=float(cfg["delta"]),
            n_reps=int(cfg["n_reps"]),
            horizon=int(cfg["horizon"]),
            seed_base=_seed_base(cfg),
            record_grid=tuple(cfg.get("record_grid", ())),
            boundary_scale=float(cfg.get("boundary_scale", 1.0)),
        )
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"invalid coverage config: {exc}")


def _cmd_coverage(cfg: dict, out_dir: Path, threads: int) -> int:
    config = _coverage_config(cfg)
    report = run_coverage(config, threads=threads)
    write_report_json(
        report,
        out_dir / "coverage_report.json",
        extra={"policy": "empirical_rate <= cost*delta + 3*sqrt(cost*delta/n_reps)"},
    )
    if config.record_grid:
        write_grid_csv(report, config.record_grid, out_dir / "widths.csv")
    print(
        f"coverage: rate={report.empirical_rate:.6g} "
        f"threshold={report.threshold:.6g} "
        f"({report.violations}/{report.n_reps} violations) "
        f"-> {'PASS' if report.passed else 'FAIL'}"
    )
    return 0 if report.passed else 1


def _cmd_last_iterate(cfg: dict, out_dir: Path, threads: int) -> int:
    _require(cfg, "t_eval")
    config = _coverage_config(cfg)
    with _spec("invalid last-iterate config"):
        t_eval = int(cfg["t_eval"])
    rate, bound = run_last_iterate(config, t_eval)
    threshold = config.delta + 3.0 * math.sqrt(config.delta / config.n_reps)
    passed = rate <= threshold
    write_report_json(
        {
            "t_eval": t_eval,
            "bound": bound,
            "exceedance_rate": rate,
            "threshold": threshold,
            "delta": config.delta,
            "n_reps": config.n_reps,
            "passed": passed,
            "policy": "exceedance <= delta + 3*sqrt(delta/n_reps)",
        },
        out_dir / "last_iterate_report.json",
    )
    print(
        f"last-iterate: exceedance={rate:.6g} bound={bound:.6g} "
        f"threshold={threshold:.6g} -> {'PASS' if passed else 'FAIL'}"
    )
    return 0 if passed else 1


def _cmd_width_table(cfg: dict, out_dir: Path, threads: int) -> int:
    _require(cfg, "b", "lam", "delta", "horizons")
    try:
        horizons = [int(t) for t in cfg["horizons"]]
        rows = width_comparison(float(cfg["b"]), float(cfg["lam"]), float(cfg["delta"]), horizons)
    except ValueError as exc:
        raise ConfigError(str(exc))
    with open(out_dir / "width_table.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "anytime", "fixed_horizon", "ratio"])
        for r in rows:
            writer.writerow(
                [r["t"], f"{r['anytime']:.17g}", f"{r['fixed_horizon']:.17g}", f"{r['ratio']:.17g}"]
            )
    print(f"width-table: {len(rows)} horizons -> width_table.csv")
    return 0


def _cmd_lil(cfg: dict, out_dir: Path, threads: int) -> int:
    _require(cfg, "l1", "l2", "n_blocks", "n_seeds")
    with _spec("invalid lil config"):
        seed_base = _seed_base(cfg)
        n_seeds = int(cfg["n_seeds"])
        problem = RmProblem(
            m_kind=cfg.get("m_kind", "linear"),
            theta=float(cfg.get("theta", 0.0)),
            slope=float(cfg.get("slope", 1.0)),
            cub_a=float(cfg.get("cub_a", 0.0)),
            cub_b=float(cfg.get("cub_b", 0.0)),
            r1=float(cfg.get("r1", math.sqrt(3.0))),
        )
        l1, l2, n_blocks = float(cfg["l1"]), float(cfg["l2"]), int(cfg["n_blocks"])
        x0 = float(cfg.get("x0", 1.0))
    seeds = [rep_seed(seed_base, i) for i in range(n_seeds)]
    reports = run_lil_ensemble(problem, l1, l2, n_blocks, seeds, x0=x0)
    l_const = reports[0].l_const
    hit = sum(r.final_max >= l_const for r in reports)
    fraction = hit / n_seeds
    threshold = float(cfg.get("fraction_threshold", 0.9))
    passed = fraction >= threshold
    write_report_json(
        {
            "l_const": l_const,
            "n_seeds": n_seeds,
            "fraction_at_or_above": fraction,
            "threshold": threshold,
            "final_max": [r.final_max for r in reports],
            "passed": passed,
            "policy": "fraction of seeds with final running max >= l_const must reach threshold",
        },
        out_dir / "lil_report.json",
    )
    with open(out_dir / "lil_blocks.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed_index", "block_start", "block_end", "block_max", "running_max"])
        for i, r in enumerate(reports):
            for (lo, hi, bmax), rmax in zip(r.block_stats, r.running_max):
                writer.writerow([i, lo, hi, f"{bmax:.17g}", f"{rmax:.17g}"])
    print(
        f"lil: fraction={fraction:.6g} (target {threshold}) l_const={l_const:.6g} "
        f"-> {'PASS' if passed else 'FAIL'}"
    )
    return 0 if passed else 1


def _cmd_oja_cold_start(cfg: dict, out_dir: Path, threads: int) -> int:
    _require(cfg, "eigs", "delta", "c_explore", "c_stable", "horizon", "n_reps")
    rotation = cfg.get("rotation")
    with _spec("invalid cold-start config"):
        problem = PcaProblem(
            eigs=tuple(cfg["eigs"]),
            rotation=None if rotation is None else tuple(tuple(r) for r in rotation),
        )
        delta = float(cfg["delta"])
        c_explore, c_stable = float(cfg["c_explore"]), float(cfg["c_stable"])
        horizon, n_reps = int(cfg["horizon"]), int(cfg["n_reps"])
        seed_base = _seed_base(cfg)
    report = run_oja_cold_start(
        problem, delta, c_explore, c_stable, horizon, n_reps, seed_base,
        variant=cfg.get("variant", "krasulina"),
    )
    passed = report.passed and report.hit_passed
    write_report_json(
        report,
        out_dir / "cold_start_report.json",
        extra={"policy": "empirical_rate <= cost*delta + 3*sqrt(cost*delta/n_reps); "
               "split hit rate >= 1 - delta^3 (minus MC slack)"},
    )
    print(
        f"oja-cold-start: split={report.split_t} hit_rate={report.hit_rate:.6g} "
        f"rate={report.empirical_rate:.6g} threshold={report.threshold:.6g} "
        f"-> {'PASS' if passed else 'FAIL'}"
    )
    return 0 if passed else 1


def _cmd_counterexample(cfg: dict, out_dir: Path, threads: int) -> int:
    _require(cfg, "p_one", "n_reps", "horizon")
    p_one = float(cfg["p_one"])
    if not 0.0 <= p_one <= 1.0:
        raise ConfigError("p_one must lie in [0, 1]")
    n_reps, horizon = int(cfg["n_reps"]), int(cfg["horizon"])
    if n_reps < 1 or horizon < 1:
        raise ConfigError("n_reps and horizon must be at least 1")
    result = run_counterexample(p_one, n_reps, horizon, _seed_base(cfg))
    result["policy"] = "fraction converging to zero must match 1 - p_one within 3 sigma"
    write_report_json(result, out_dir / "counterexample_report.json")
    print(
        f"counterexample: fraction_zero={result['fraction_zero']:.6g} "
        f"expected={result['expected']:.6g} "
        f"-> {'PASS' if result['within_tolerance'] else 'FAIL'}"
    )
    return 0 if result["within_tolerance"] else 1


def _cmd_stitch_dump(cfg: dict, out_dir: Path, threads: int) -> int:
    _require(cfg, "c1", "delta", "horizon")
    try:
        params = RecursionParams(
            c1=float(cfg["c1"]),
            c2=float(cfg.get("c2", 0.0)),
            c3=float(cfg.get("c3", 0.0)),
            terms_mean=tuple(tuple(t) for t in cfg.get("terms_mean", ())),
            terms_mag=tuple(tuple(t) for t in cfg.get("terms_mag", ())),
        )
        schedule = stitch_schedule(params, float(cfg["delta"]), int(cfg["horizon"]))
    except (ValueError, RuntimeError) as exc:
        raise ConfigError(str(exc))
    horizon = int(cfg["horizon"])
    step = schedule.to_step_schedule()
    etas = step.etas(horizon)
    t = np.arange(0, horizon + 1)
    widths = schedule.widths(t)
    with open(out_dir / "stitch_schedule.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "eta", "width"])
        writer.writerow([0, "", f"{widths[0]:.17g}"])
        for i in range(1, horizon + 1):
            writer.writerow([i, f"{etas[i-1]:.17g}", f"{widths[i]:.17g}"])
    c_low, m_high = schedule.envelope_constants()
    write_report_json(
        {
            "kappa": schedule.kappa,
            "h0": schedule.h0,
            "d_const": schedule.d_const,
            "n_epochs": len(schedule.etas),
            "epoch_ends": list(schedule.epochs[1:]),
            "c_low": c_low,
            "m_high": m_high,
        },
        out_dir / "stitch_report.json",
    )
    print(f"stitch-dump: {len(schedule.etas)} epochs, h0={schedule.h0:.6g} -> stitch_schedule.csv")
    return 0


def _default_catalog():
    delta = math.exp(-2.0) - 1e-12
    sgd = sgd_boundary(1.0, 1.0, delta)
    pl = pl_boundary(1.0, 1.0, 2.0, delta)
    oja, _ = oja_boundary(1.0, 1.0, delta)
    ridge = ridge_boundary(2.0, 2.0, 0.0, 1.0, 1.0, delta)
    return [sgd, pl, oja, ridge]


def _cmd_catalog(cfg: dict, out_dir: Path, threads: int) -> int:
    bounds = _default_catalog()
    for entry in boundary_catalog(bounds):
        print(f"{entry['label']}: {entry['formula']}  [cost {entry['confidence_cost']}]")
    write_catalog_json(bounds, out_dir / "catalog.json")
    return 0


_COVERAGE_KEYS = (
    "algorithm", "problem", "delta", "n_reps", "horizon", "seed_base", "record_grid",
    "boundary_scale",
)
_LIL_KEYS = (
    "l1", "l2", "n_blocks", "n_seeds", "seed_base", "m_kind", "theta", "slope", "cub_a",
    "cub_b", "r1", "x0", "fraction_threshold",
)
_COLD_START_KEYS = (
    "eigs", "rotation", "delta", "c_explore", "c_stable", "horizon", "n_reps", "seed_base",
    "variant",
)
_STITCH_KEYS = ("c1", "c2", "c3", "delta", "horizon", "terms_mean", "terms_mag")

# name -> (handler, needs a config, the config keys it reads)
_COMMANDS = {
    "coverage": (_cmd_coverage, True, _COVERAGE_KEYS),
    "last-iterate": (_cmd_last_iterate, True, _COVERAGE_KEYS + ("t_eval",)),
    "width-table": (_cmd_width_table, True, ("b", "lam", "delta", "horizons")),
    "lil": (_cmd_lil, True, _LIL_KEYS),
    "oja-cold-start": (_cmd_oja_cold_start, True, _COLD_START_KEYS),
    "counterexample": (_cmd_counterexample, True, ("p_one", "n_reps", "horizon", "seed_base")),
    "stitch-dump": (_cmd_stitch_dump, True, _STITCH_KEYS),
    "catalog": (_cmd_catalog, False, ()),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="anytime-iter",
        description="Anytime-valid boundary experiments for iterative stochastic algorithms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, needs_config, _keys) in _COMMANDS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=needs_config, help="JSON experiment config")
        sp.add_argument("--out-dir", default=".", help="directory for report files")
        threads_help = (
            "coverage worker threads, each on a block of up to 512 replications (0, 1 = "
            "serial); the compiled draws and step loops run in parallel, the numpy "
            "fallback and the loss passes mostly do not"
        )
        sp.add_argument("--threads", type=int, default=0, help=threads_help)
    args = parser.parse_args(argv)

    handler, _, keys = _COMMANDS[args.command]
    try:
        cfg = _load_config(args.config) if args.config else {}
        if not isinstance(cfg, dict):
            raise ConfigError("config root must be a JSON object")
        _check_keys(cfg, keys, "config")
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        return handler(cfg, out_dir, args.threads)
    except (ConfigError, SpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        message = " ".join(str(exc).split())
        print(f"error: internal {type(exc).__name__}: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
