"""Command-line front end.

Subcommands run each experiment from a JSON config and write reports into
--out-dir.  Exit codes: 0 success, 1 an acceptance threshold failed,
2 invalid configuration (with field diagnostics), found while parsing the
config and building the problem, before the run, 3 an internal error raised
during the run, such as the FloatingPointError a non-finite loss raises
(with a one-line "error:" diagnostic).

Each command's config parses (harness._parse) into the dataclasses
_COMMANDS lists for it, which declare every field with its type and default.
An undeclared key, a missing required field and a value of the wrong JSON
type are invalid, so a mistyped field never runs with a default or a
coerced value.  The environment variable ANYTIME_ITER_SEED, when set,
overrides the config's seed_base.

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
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Tuple

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
    _parse,
    _spec,
    mc_threshold,
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

__all__ = ["main"]

SEED_ENV = "ANYTIME_ITER_SEED"


def _parse_config(command: str, path) -> tuple:
    """The dataclass instances command runs on, parsed from the JSON file
    at path (from {} without one); ANYTIME_ITER_SEED, when set, replaces
    the seed_base of a command that has one."""
    cfg = {}
    if path is not None:
        if not Path(path).is_file():
            raise SpecError(f"config file not found: {path}")
        try:
            with open(path) as fh:
                cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SpecError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}")
    types = _COMMANDS[command][1]
    env = os.environ.get(SEED_ENV)
    seeded = any(f.name == "seed_base" for t in types for f in fields(t))
    if env is not None and seeded and isinstance(cfg, dict):
        try:
            cfg = {**cfg, "seed_base": int(env)}
        except ValueError:
            raise SpecError(f"{SEED_ENV} must be an integer, got {env!r}") from None
    return _parse(cfg, types, "config")


def _cmd_coverage(config: CoverageConfig, out_dir: Path, threads: int) -> int:
    report = run_coverage(config, threads=threads)
    write_report_json(
        report,
        out_dir / "coverage_report.json",
        extra={"policy": "empirical_rate <= cost*delta + 3*sqrt(cost*delta/n_reps)"},
        engines=True,
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


@dataclass(frozen=True)
class _LastIterate:
    """The last-iterate command's evaluation time, beside its CoverageConfig."""

    t_eval: int


def _cmd_last_iterate(
    config: CoverageConfig, last: _LastIterate, out_dir: Path, threads: int
) -> int:
    rate, bound = run_last_iterate(config, last.t_eval, threads)
    threshold = mc_threshold(1.0, config.delta, config.n_reps)
    passed = rate <= threshold
    write_report_json(
        {
            "t_eval": last.t_eval,
            "bound": bound,
            "exceedance_rate": rate,
            "threshold": threshold,
            "delta": config.delta,
            "n_reps": config.n_reps,
            "passed": passed,
            "policy": "exceedance <= delta + 3*sqrt(delta/n_reps)",
        },
        out_dir / "last_iterate_report.json",
        engines=True,
    )
    print(
        f"last-iterate: exceedance={rate:.6g} bound={bound:.6g} "
        f"threshold={threshold:.6g} -> {'PASS' if passed else 'FAIL'}"
    )
    return 0 if passed else 1


@dataclass(frozen=True)
class _WidthTable:
    """The width-table command's config: width_comparison's arguments."""

    b: float
    lam: float
    delta: float
    horizons: Tuple[int, ...]


def _cmd_width_table(table: _WidthTable, out_dir: Path, threads: int) -> int:
    with _spec("invalid width-table config", asdict(table)):
        rows = width_comparison(**asdict(table))
    with open(out_dir / "width_table.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "anytime", "fixed_horizon", "ratio"])
        for r in rows:
            writer.writerow(
                [r["t"], f"{r['anytime']:.17g}", f"{r['fixed_horizon']:.17g}", f"{r['ratio']:.17g}"]
            )
    print(f"width-table: {len(rows)} horizons -> width_table.csv")
    return 0


@dataclass(frozen=True)
class _LilRun:
    """The lil command's run fields, beside its RmProblem."""

    l1: float
    l2: float
    n_blocks: int
    n_seeds: int
    seed_base: int
    x0: float = 1.0
    fraction_threshold: float = 0.9

    def __post_init__(self):
        # above 1 the check could never pass, and at or below 0 never fail
        if not 0.0 < self.fraction_threshold <= 1.0:
            raise ValueError("fraction_threshold must lie in (0, 1]")
        if self.seed_base < 0:
            raise ValueError("seed_base must be nonnegative")


def _cmd_lil(problem: RmProblem, run: _LilRun, out_dir: Path, threads: int) -> int:
    seeds = [(run.seed_base, i) for i in range(run.n_seeds)]  # rep_seed's entropy
    reports = run_lil_ensemble(
        problem, run.l1, run.l2, run.n_blocks, seeds, x0=run.x0, threads=threads
    )
    l_const = reports[0].l_const
    hit = sum(r.final_max >= l_const for r in reports)
    fraction = hit / run.n_seeds
    passed = fraction >= run.fraction_threshold
    write_report_json(
        {
            "l_const": l_const,
            "n_seeds": run.n_seeds,
            "fraction_at_or_above": fraction,
            "threshold": run.fraction_threshold,
            "final_max": [r.final_max for r in reports],
            "passed": passed,
            "policy": "fraction of seeds with final running max >= l_const must reach threshold",
        },
        out_dir / "lil_report.json",
        engines=True,
    )
    # csv.writer's rows, written directly: no field holds a comma, quote or
    # line break, and \r\n is the excel dialect's line terminator
    with open(out_dir / "lil_blocks.csv", "w", newline="") as fh:
        fh.write("seed_index,block_start,block_end,block_max,running_max\r\n")
        for i, r in enumerate(reports):
            fh.writelines(
                f"{i},{lo},{hi},{bmax:.17g},{rmax:.17g}\r\n"
                for (lo, hi, bmax), rmax in zip(r.block_stats, r.running_max)
            )
    print(
        f"lil: fraction={fraction:.6g} (target {run.fraction_threshold}) l_const={l_const:.6g} "
        f"-> {'PASS' if passed else 'FAIL'}"
    )
    return 0 if passed else 1


@dataclass(frozen=True)
class _ColdStartRun:
    """The oja-cold-start command's run fields: run_oja_cold_start's
    arguments after its PcaProblem."""

    delta: float
    c_explore: float
    c_stable: float
    horizon: int
    n_reps: int
    seed_base: int
    variant: str = "krasulina"


def _cmd_oja_cold_start(
    problem: PcaProblem, run: _ColdStartRun, out_dir: Path, threads: int
) -> int:
    report = run_oja_cold_start(problem, **asdict(run), threads=threads)
    passed = report.passed and report.hit_passed
    write_report_json(
        report,
        out_dir / "cold_start_report.json",
        extra={"policy": "empirical_rate <= cost*delta + 3*sqrt(cost*delta/n_reps); "
               "split hit rate >= 1 - delta^3 (minus MC slack)"},
        engines=True,
    )
    print(
        f"oja-cold-start: split={report.split_t} hit_rate={report.hit_rate:.6g} "
        f"rate={report.empirical_rate:.6g} threshold={report.threshold:.6g} "
        f"-> {'PASS' if passed else 'FAIL'}"
    )
    return 0 if passed else 1


@dataclass(frozen=True)
class _Counterexample:
    """The counterexample command's config: run_counterexample's arguments."""

    p_one: float
    n_reps: int
    horizon: int
    seed_base: int


def _cmd_counterexample(run: _Counterexample, out_dir: Path, threads: int) -> int:
    result = run_counterexample(**asdict(run))
    result["policy"] = "fraction converging to zero must match 1 - p_one within 3 sigma"
    write_report_json(result, out_dir / "counterexample_report.json")
    print(
        f"counterexample: fraction_zero={result['fraction_zero']:.6g} "
        f"expected={result['expected']:.6g} "
        f"-> {'PASS' if result['within_tolerance'] else 'FAIL'}"
    )
    return 0 if result["within_tolerance"] else 1


@dataclass(frozen=True)
class _Stitch:
    """The stitch-dump command's confidence and horizon, beside its
    RecursionParams."""

    delta: float
    horizon: int


def _cmd_stitch_dump(params: RecursionParams, run: _Stitch, out_dir: Path, threads: int) -> int:
    try:
        schedule = stitch_schedule(params, run.delta, run.horizon)
    except (ValueError, RuntimeError) as exc:
        raise SpecError(str(exc)) from exc
    step = schedule.to_step_schedule()
    etas = step.etas(run.horizon)
    t = np.arange(0, run.horizon + 1)
    widths = schedule.widths(t)
    with open(out_dir / "stitch_schedule.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "eta", "width"])
        writer.writerow([0, "", f"{widths[0]:.17g}"])
        for i in range(1, run.horizon + 1):
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


def _cmd_catalog(out_dir: Path, threads: int) -> int:
    bounds = _default_catalog()
    for entry in boundary_catalog(bounds):
        print(f"{entry['label']}: {entry['formula']}  [cost {entry['confidence_cost']}]")
    write_catalog_json(bounds, out_dir / "catalog.json")
    return 0


# name -> (handler, the dataclasses its config parses into; () takes no config)
_COMMANDS = {
    "coverage": (_cmd_coverage, (CoverageConfig,)),
    "last-iterate": (_cmd_last_iterate, (CoverageConfig, _LastIterate)),
    "width-table": (_cmd_width_table, (_WidthTable,)),
    "lil": (_cmd_lil, (RmProblem, _LilRun)),
    "oja-cold-start": (_cmd_oja_cold_start, (PcaProblem, _ColdStartRun)),
    "counterexample": (_cmd_counterexample, (_Counterexample,)),
    "stitch-dump": (_cmd_stitch_dump, (RecursionParams, _Stitch)),
    "catalog": (_cmd_catalog, ()),
}


def _thread_count(text: str) -> int:
    """--threads: a count of 0 or more; argparse exits 2 on anything else."""
    count = int(text)
    if count < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, got {count}")
    return count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="anytime-iter",
        description="Anytime-valid boundary experiments for iterative stochastic algorithms.",
    )
    parser.add_argument("command", choices=list(_COMMANDS))
    parser.add_argument(
        "--config", help="JSON experiment config; every command but catalog needs one"
    )
    parser.add_argument("--out-dir", default=".", help="directory for report files")
    parser.add_argument(
        "--threads",
        type=_thread_count,
        default=0,
        help=(
            "worker threads of coverage, last-iterate, oja-cold-start and lil, each on "
            "a block of at most min(512, ceil(n_reps / N)) replications, or "
            "ceil(n_seeds / N) seeds for lil (0, 1 = serial), on no more workers than "
            "blocks or usable cores; the compiled engine chunks run in parallel, the "
            "numpy reference mostly does not"
        ),
    )
    args = parser.parse_args(argv)
    if _COMMANDS[args.command][1] and args.config is None:
        parser.error(f"the following arguments are required for {args.command}: --config")

    try:
        parsed = _parse_config(args.command, args.config)
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command][0](*parsed, out_dir, args.threads)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        message = " ".join(str(exc).split())
        print(f"error: internal {type(exc).__name__}: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
