"""Monte Carlo experiments: coverage, last-iterate, width tables, the
iterated-logarithm lower-bound statistic, and the cold-start PCA experiment.

Violation detection honors the time-uniform quantifier: every iterate in
[valid_from, horizon] is compared against the boundary, not just a grid; the
grid only selects which widths and loss quantiles are exported.

One driver (_drive) serves the coverage, last-iterate and cold-start runs.
It advances blocks of up to _REP_BLOCK = 512 replications, and of at most
ceil(n_reps / threads) on a thread pool, so that every worker gets one; the
pool has no more workers than blocks or usable cores (_in_blocks, the
block rule the LIL ensemble shares).  The compiled engines own their
generators' states, so the workers take no lock.  It folds each RNG
chunk of losses the engines stream into the first boundary crossings and
the grid losses, refusing non-finite losses.  No (n_reps, horizon) loss
matrix is built: losses in flight take O(block * chunk) memory, independent
of the horizon.  Per-replication seeds are independent of the worker count,
and no engine's draws depend on the block size, so reports do not depend
on scheduling.

The iterated-logarithm statistic runs on the kernels' lil_chunk: _lil_batch
calls it once per LIL_STEPS steps, and each call steps the root-finding
replications and folds their statistic into dyadic-block maxima, with no
deviation buffer and no step vector, in one batch of all seeds, or in
blocks on the pool with threads > 1; run_lil_ensemble refuses non-finite
maxima.  Its memory is O(seeds), independent of the horizon.  No step
loop, no noise draw and no reduction of the statistic live here; _pca_v0
only draws each replication's initial direction.

Parameters an experiment rejects before any replication runs, such as an
unparsable problem spec, a start outside the ball or constants that
overflow a float, raise SpecError, a ValueError; errors raised while the
replications run keep their own type, so a caller can tell the two apart.

_parse is the one reader of JSON configs: it builds frozen dataclasses
from a JSON object, so each config field is declared once, with its type
and default, on the dataclass that uses it.
"""
from __future__ import annotations

import json
import math
import os
import time
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, suppress
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from typing import Optional, Sequence, Tuple, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import _kernel
from .algorithms import _check_in_ball, pca_batch, ridge_batch, sgd_batch
from .boundaries import (
    StepSchedule,
    oja_boundary,
    rakhlin_fixed_horizon,
    ridge_boundary,
    sgd_boundary,
    sgd_last_iterate,
    two_phase_oja_schedule,
)
from .problems import PcaProblem, RmProblem, SgdProblem
from .recursion import counterexample_process
from .seeding import rep_seed
from .streams import SQRT3, LinearModelStream

__all__ = [
    "CoverageConfig",
    "CoverageReport",
    "ColdStartReport",
    "LilReport",
    "run_coverage",
    "run_last_iterate",
    "width_comparison",
    "run_lil",
    "run_lil_ensemble",
    "run_oja_cold_start",
    "run_counterexample",
    "mc_threshold",
    "SpecError",
    "write_report_json",
    "write_grid_csv",
]

_REP_BLOCK = 512
LIL_STEPS = 2**14  # steps per lil_chunk call


class SpecError(ValueError):
    """Invalid experiment parameters, found before any replication runs."""


def _largest(value) -> float:
    """The largest magnitude of the numbers in a JSON value, in lists too, or 0."""
    if isinstance(value, (list, tuple)):
        return max(map(_largest, value), default=0)
    return abs(value) if type(value) in (int, float) else 0


@contextmanager
def _spec(what: str, problem: Mapping):
    """Re-raise the errors of parsing and resolving an experiment's
    parameters as SpecError, so that they are told apart from errors of the
    run itself; an OverflowError names the field of the problem with the
    largest number, since constants overflow through powers of large ones."""
    try:
        yield
    except OverflowError as exc:
        name = max(problem, key=lambda k: _largest(problem[k]))
        message = f"{name} is too large: a constant derived from it overflows a float"
        raise SpecError(f"{what}: {message}") from exc
    except (TypeError, ValueError) as exc:
        raise SpecError(f"{what}: {exc}") from exc


# the JSON kind each field type takes, for the diagnostics
_KINDS = {
    int: "an integer",
    float: "a finite number",
    str: "a string",
    bool: "true or false",
    type(None): "null",
    tuple: "a list",
    Mapping: "a JSON object",
}


# the largest integer a config field takes: numpy's largest index
_INT_MAX = int(np.iinfo(np.intp).max)


def _typed(value, hint, name: str):
    """value as a field of type hint takes it; SpecError names the field
    name if it does not.

    An int field takes an integer up to _INT_MAX, not a bool and not 2.5 (a
    larger count overflows numpy's sizes, or runs for hours, instead of
    failing); a float field a finite int or float, as a float; str, bool
    and Mapping fields their own JSON type; a Tuple field a list or tuple,
    checked element by element, as a tuple; an Optional or Union field any
    of its arms.
    """
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:
        for arm in args:
            with suppress(SpecError):
                return _typed(value, arm, name)
    elif origin is tuple and isinstance(value, (list, tuple)):
        arms = args[:1] * len(value) if args[-1] is Ellipsis else args
        if len(arms) == len(value):
            return tuple(_typed(v, a, f"{name}[{i}]") for i, (v, a) in enumerate(zip(value, arms)))
    elif hint is float and isinstance(value, (int, float)) and type(value) is not bool:
        with suppress(OverflowError):  # an integer beyond the float range
            if math.isfinite(value):
                return float(value)
    elif hint is int and type(value) is int and value > _INT_MAX:
        raise SpecError(f"{name} must be at most {_INT_MAX}, got {value!r}")
    elif isinstance(value, origin or hint) and (hint is bool or type(value) is not bool):
        return value
    raise SpecError(f"{name} must be {_kind(hint)}, got {value!r}")


def _kind(hint) -> str:
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:
        return " or ".join(map(_kind, args))
    if origin is tuple and args[-1] is not Ellipsis:
        return f"a list of {len(args)}"
    return _KINDS[origin or hint]


def _parse(raw, types, what: str) -> tuple:
    """One instance of each frozen dataclass in types, built from the JSON
    object raw: a field without a default is required, each value is
    checked against its field's type hint (_typed), and a key no type
    declares is rejected.  Every failure, the dataclasses' own checks
    included, raises SpecError."""
    if not isinstance(raw, Mapping):
        raise SpecError(f"{what} must be a JSON object")
    declared = [[f for f in fields(t) if f.init] for t in types]
    names = {f.name for fs in declared for f in fs}
    unknown = [repr(k) for k in raw if k not in names]
    if unknown:
        raise SpecError(f"{what}: unknown key(s) {', '.join(unknown)}")
    required = [f.name for fs in declared for f in fs if f.default is f.default_factory is MISSING]
    missing = [name for name in required if name not in raw]
    if missing:
        raise SpecError(f"{what}: missing required field(s): {', '.join(missing)}")
    try:
        return tuple(
            t(**{f.name: _typed(raw[f.name], hints[f.name], f.name) for f in fs if f.name in raw})
            for t, fs, hints in zip(types, declared, map(get_type_hints, types))
        )
    except ValueError as exc:
        raise SpecError(f"{what}: {exc}") from exc


def mc_threshold(cost: float, delta: float, n_reps: int) -> float:
    """Acceptance threshold cost*delta + 3*sqrt(cost*delta/n_reps).

    The guarantee bounds the violation probability by cost*delta; the second
    term is a three-sigma Monte Carlo slack at n_reps replications.
    """
    return cost * delta + 3.0 * math.sqrt(cost * delta / n_reps)


# ---------------------------------------------------------------------------
# Configuration and reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _SgdStart:
    """The start of an sgd_sc run, beside its SgdProblem."""

    x0: Tuple[float, ...]


@dataclass(frozen=True)
class _PcaStart:
    """The start of a krasulina run, beside its PcaProblem: v0 is "warm",
    "uniform" or an explicit vector (see _pca_v0)."""

    v0: Union[str, Tuple[float, ...]] = "warm"
    normalize: bool = False

    def __post_init__(self):
        if isinstance(self.v0, str) and self.v0 not in ("warm", "uniform"):
            raise ValueError(f"unknown v0 spec {self.v0!r}")


@dataclass(frozen=True)
class _OjaStart(_PcaStart):
    """The start of an oja run, which normalizes by default."""

    normalize: bool = True


@dataclass(frozen=True)
class _RidgeStart:
    """The projection ball, penalty and start of a ridge run, beside its
    LinearModelStream."""

    diam: float
    theta0: Tuple[float, ...]
    lambda_pen: float = 0.0
    penalty_in_gradient: bool = True


# algorithm -> the dataclasses its problem object parses into
_PROBLEMS = {
    "sgd_sc": (SgdProblem, _SgdStart),
    "krasulina": (PcaProblem, _PcaStart),
    "oja": (PcaProblem, _OjaStart),
    "ridge": (LinearModelStream, _RidgeStart),
}


@dataclass(frozen=True)
class CoverageConfig:
    """Declarative coverage experiment.

    algorithm selects the runner ("sgd_sc", "krasulina", "oja", "ridge");
    problem holds its parameters, parsed once into parsed_problem, the
    problem dataclass and the start fields _PROBLEMS lists for the
    algorithm, and a key neither declares is rejected.  boundary_scale
    multiplies the width (scale < 1 yields falsification runs that must
    produce violations, demonstrating the experiment has power).
    """

    algorithm: str
    problem: Mapping
    delta: float
    n_reps: int
    horizon: int
    seed_base: int
    record_grid: Tuple[int, ...] = ()
    boundary_scale: float = 1.0
    parsed_problem: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.algorithm not in _PROBLEMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        parsed = _parse(self.problem, _PROBLEMS[self.algorithm], "problem")
        object.__setattr__(self, "parsed_problem", parsed)
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.n_reps < 1 or self.horizon < 1:
            raise ValueError("n_reps and horizon must be at least 1")
        if self.seed_base < 0:
            raise ValueError("seed_base must be nonnegative")
        if self.boundary_scale <= 0:
            raise ValueError("boundary_scale must be positive")
        grid = tuple(int(t) for t in self.record_grid)
        if any(t < 0 or t > self.horizon for t in grid) or list(grid) != sorted(set(grid)):
            raise ValueError("record_grid must be strictly increasing within [0, horizon]")
        object.__setattr__(self, "record_grid", grid)


@dataclass(frozen=True)
class CoverageReport:
    violations: int
    first_violation_times: Tuple[int, ...]
    empirical_rate: float
    widths_at_grid: Tuple[float, ...]
    quantiles_at_grid: Mapping[int, Tuple[float, float, float]]
    wall_time: float
    n_reps: int
    delta: float
    confidence_cost: float
    threshold: float
    passed: bool

    def __post_init__(self):
        if not 0.0 <= self.empirical_rate <= 1.0:
            raise ValueError("empirical_rate must lie in [0, 1]")


@dataclass(frozen=True)
class ColdStartReport(CoverageReport):
    """Coverage report for the two-phase cold-start experiment, with the
    exploration-phase outcome attached."""

    split_t: int = 0
    hit_rate: float = 0.0
    hit_threshold: float = 0.0
    hit_passed: bool = False


@dataclass(frozen=True)
class LilReport:
    """Dyadic-block maxima of the statistic t*L_t/log log t for one path."""

    block_stats: Tuple[Tuple[int, int, float], ...]  # (block_start, block_end, max)
    running_max: Tuple[float, ...]
    l_const: float

    def __post_init__(self):
        rm = self.running_max
        if any(b < a for a, b in zip(rm, rm[1:])):
            raise ValueError("running_max must be nondecreasing")

    @property
    def final_max(self) -> float:
        return self.running_max[-1]


# ---------------------------------------------------------------------------
# Coverage
# ---------------------------------------------------------------------------


def _pca_v0(v0, problem: PcaProblem, seed_base: int, lo: int, hi: int) -> np.ndarray:
    """Initial directions of replications lo..hi-1, one per row: the explicit
    vector, "uniform", or "warm" (v1 plus a perturbation of norm 0.3, so
    sin^2 <= 9/58 < 1/4).  Replication i's direction comes from dim normals
    of the generator of (seed_base, i, 1), all drawn in one kernels call;
    each row is divided by its own norm, np.sqrt(np.sum(row * row)): a numpy
    sum, whose order is fixed, where np.linalg.norm's BLAS ddot adds in an
    order that depends on the CPU."""
    if not isinstance(v0, str):
        return np.stack([np.asarray(v0, dtype=float)] * (hi - lo))
    kernels = _kernel.load()
    gens = kernels.generators([(int(seed_base), i, 1) for i in range(lo, hi)])
    u = np.empty((1, hi - lo, problem.dim))
    kernels.normals(u, gens)
    u = u[0]
    for row in u:
        row /= np.sqrt(np.sum(row * row))
    if v0 == "uniform":
        return u
    v = problem.v_star + 0.3 * u
    for row in v:
        row /= np.sqrt(np.sum(row * row))
    return v


def _seeds(seed_base: int, lo: int, hi: int) -> list:
    """The seeds of replications lo..hi-1: (seed_base, i), the entropy of
    rep_seed(seed_base, i), which the kernels' generators take as it is."""
    return [(seed_base, i) for i in range(lo, hi)]


def _sgd_runner(problem: SgdProblem, etas, x0, seed_base: int):
    return lambda lo, hi, on_chunk: sgd_batch(
        problem, etas, x0, _seeds(seed_base, lo, hi), record_channels=False, on_chunk=on_chunk
    )


def _pca_runner(problem: PcaProblem, etas, v0, seed_base: int, variant: str, normalize: bool):
    def run(lo: int, hi: int, on_chunk) -> None:
        v0s = _pca_v0(v0, problem, seed_base, lo, hi)
        seeds = _seeds(seed_base, lo, hi)
        pca_batch(
            problem, etas, v0s, seeds, variant, normalize, record_channels=False, on_chunk=on_chunk
        )

    return run


def _build_setup(config: CoverageConfig):
    """Resolve a config into (boundary, block runner)."""
    problem, start = config.parsed_problem
    if config.algorithm == "sgd_sc":
        boundary = sgd_boundary(problem.b, problem.lam, config.delta)
        x0 = _check_in_ball(start.x0, problem.radius, "x0", problem.dim)
        etas = boundary.schedule.etas(config.horizon)
        return boundary, _sgd_runner(problem, etas, x0, config.seed_base)
    if config.algorithm in ("krasulina", "oja"):
        boundary, _l_off = oja_boundary(problem.b, problem.rho, config.delta)
        etas = boundary.schedule.etas(config.horizon)
        v0 = _pca_v0(start.v0, problem, config.seed_base, 0, 1)[0]
        if v0.shape != (problem.dim,) or not np.any(v0):
            raise ValueError("v0 must be a nonzero vector of the problem's dimension")
        return boundary, _pca_runner(
            problem, etas, start.v0, config.seed_base, config.algorithm, start.normalize
        )
    # ridge: problem is the LinearModelStream
    theta_norm = float(np.linalg.norm(problem.theta_star))
    boundary = ridge_boundary(
        problem.b, start.diam, start.lambda_pen, problem.lambda_min, theta_norm, config.delta
    )
    theta0 = _check_in_ball(start.theta0, start.diam / 2.0, "theta0", problem.dim)
    etas = boundary.schedule.etas(config.horizon)
    return boundary, lambda lo, hi, on_chunk: ridge_batch(
        problem, start.diam, start.lambda_pen, etas, theta0, _seeds(config.seed_base, lo, hi),
        start.penalty_in_gradient, on_chunk,
    )


def _usable_cores() -> int:
    """The cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _drive(n_reps, run, grid=(), widths=None, scan_from=0, origin=0, threads=0):
    """Stream every replication's losses, block by block, through one reduction.

    run(lo, hi, on_chunk) advances replications lo..hi-1 and calls
    on_chunk(t0, losses) per RNG chunk; losses[i, k] is the loss of
    replication lo+i at time t0+k.  Returns (first_times, at_grid): the
    sorted first times t >= scan_from with loss_i(t) > widths[t - origin],
    as t - origin, of the replications that have one (none if widths is
    None), and at_grid[i, j] = loss_i(grid[j]).  A non-finite loss raises
    FloatingPointError.
    """
    first = np.full(n_reps, -1)
    at_grid = np.empty((n_reps, len(grid)))

    def work(lo: int, hi: int) -> None:
        first_b = first[lo:hi]
        grid_b = at_grid[lo:hi]

        def reduce(t0: int, loss: np.ndarray) -> None:
            t1 = t0 + loss.shape[1]
            bad = ~np.isfinite(loss)
            if bad.any():
                i, k = np.argwhere(bad)[0]
                raise FloatingPointError(
                    f"non-finite loss {loss[i, k]} in replication {lo + i} at t={t0 + k}"
                )
            for j, t in enumerate(grid):
                if t0 <= t < t1:
                    grid_b[:, j] = loss[:, t - t0]
            s = max(scan_from, t0)
            if widths is not None and s < t1:
                over = loss[:, s - t0 :] > widths[s - origin : t1 - origin]
                new = (first_b < 0) & over.any(axis=1)
                first_b[new] = np.argmax(over[new], axis=1) + (s - origin)

        # reduce raises on a non-finite loss: numpy's warnings would precede it
        with np.errstate(over="ignore", invalid="ignore"):
            run(lo, hi, reduce)

    _in_blocks(n_reps, _REP_BLOCK, threads, work)
    return tuple(int(t) for t in np.sort(first[first >= 0])), at_grid


def _in_blocks(n: int, block: int, threads: int, work) -> list:
    """[work(lo, hi) for each block lo..hi-1 of at most block of the n
    replications], in block order.  With threads > 1 the blocks shrink to
    at most ceil(n / threads), so that every worker gets one, and run on a
    pool of min(threads, blocks, usable cores) workers; with one worker or
    fewer they run serially, with no pool.  Outputs that do not depend on
    the block size do not depend on threads either."""
    if threads and threads > 1:
        block = min(block, math.ceil(n / threads))
    blocks = [(lo, min(lo + block, n)) for lo in range(0, n, block)]
    workers = min(threads, len(blocks), _usable_cores()) if threads else 1
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(lambda b: work(*b), blocks))
    return [work(lo, hi) for lo, hi in blocks]


def _quantiles(a: np.ndarray, q: Sequence[float]) -> np.ndarray:
    """np.quantile(a, q) of a 1-d float array, bit for bit: numpy's linear
    method step for step, with sorted(set(...)) where numpy calls np.unique,
    whose first call imports numpy.ma, about 10 ms of a short run."""
    arr = a.flatten()
    n = arr.size
    virtual = (n - 1) * np.asanyarray(q)
    prev = np.floor(virtual)
    nxt = prev + 1
    above = virtual >= n - 1  # both neighbours are then the largest value
    prev[above] = -1
    nxt[above] = -1
    prev, nxt = prev.astype(np.intp), nxt.astype(np.intp)
    arr.partition(sorted({0, -1, *prev.tolist(), *nxt.tolist()}))
    gamma = virtual - prev
    lo, hi = arr[prev], arr[nxt]
    # numpy's _lerp, which interpolates from the nearer neighbour
    diff = hi - lo
    out = np.add(lo, diff * gamma)
    np.subtract(hi, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    if np.isnan(arr[-1]):  # a nan partitions last and is every quantile
        out[...] = arr[-1]
    return out


def run_coverage(config: CoverageConfig, threads: int = 0) -> CoverageReport:
    """Estimate the time-uniform violation probability of a boundary.

    A replication counts as a violation when its loss exceeds the (scaled)
    width at any iterate in [valid_from, horizon].  The report passes when
    the empirical rate is at most confidence_cost*delta plus three-sigma
    Monte Carlo slack.  threads > 1 runs the replication blocks on up to that
    many worker threads, in blocks of at most ceil(n_reps / threads); the
    report does not depend on it.
    """
    start_time = time.perf_counter()
    with _spec("invalid problem spec", config.problem):
        boundary, run = _build_setup(config)
        t_all = np.arange(0, config.horizon + 1)
        widths = np.asarray(boundary.eval(t_all, config.delta)) * config.boundary_scale
    grid = config.record_grid
    first_times, at_grid = _drive(config.n_reps, run, grid, widths, boundary.valid_from, 0, threads)
    violations = len(first_times)
    rate = violations / config.n_reps
    quantiles = {}
    for j, t in enumerate(grid):
        q = _quantiles(at_grid[:, j], [0.5, 0.9, 0.99])
        quantiles[int(t)] = (float(q[0]), float(q[1]), float(q[2]))
    threshold = mc_threshold(boundary.confidence_cost, config.delta, config.n_reps)
    return CoverageReport(
        violations=violations,
        first_violation_times=first_times,
        empirical_rate=rate,
        widths_at_grid=tuple(float(widths[t]) for t in config.record_grid),
        quantiles_at_grid=quantiles,
        wall_time=time.perf_counter() - start_time,
        n_reps=config.n_reps,
        delta=config.delta,
        confidence_cost=boundary.confidence_cost,
        threshold=threshold,
        passed=rate <= threshold,
    )


# ---------------------------------------------------------------------------
# Last iterate and width comparison
# ---------------------------------------------------------------------------


def run_last_iterate(config: CoverageConfig, t_eval: int, threads: int = 0) -> Tuple[float, float]:
    """Exceedance rate of the fixed-t bound at t_eval for projected SGD.

    Uses the last-iterate schedule eta_t = 1/(lam*(t+3)).  Rerunning with a
    different delta reuses the same trajectories (seeds do not depend on
    delta), so exceedance is nonincreasing in delta.  threads as in
    run_coverage.
    """
    with _spec("invalid last-iterate spec", config.problem):
        if config.algorithm != "sgd_sc":
            raise ValueError("last-iterate experiment is defined for sgd_sc")
        if t_eval < 1 or t_eval > config.horizon:
            raise ValueError("need 1 <= t_eval <= horizon")
        problem, start = config.parsed_problem
        bound = sgd_last_iterate(problem.b, problem.lam, config.delta, t_eval)
        schedule = StepSchedule.inverse_time(1.0 / problem.lam, 3.0)
        etas = schedule.etas(t_eval)
        x0 = _check_in_ball(start.x0, problem.radius, "x0", problem.dim)
    run = _sgd_runner(problem, etas, x0, config.seed_base)
    _, at_eval = _drive(config.n_reps, run, (t_eval,), threads=threads)
    exceed = int(np.count_nonzero(at_eval[:, 0] > bound))
    return exceed / config.n_reps, bound


def width_comparison(b: float, lam: float, delta: float, horizons: Sequence[int]) -> list[dict]:
    """Tabulate the anytime width against the fixed-horizon baseline at t=T."""
    boundary = sgd_boundary(b, lam, delta)
    rows = []
    for t in horizons:
        anytime = float(boundary.eval(t, delta))
        fixed = rakhlin_fixed_horizon(b, lam, delta, t, t)
        rows.append({"t": int(t), "anytime": anytime, "fixed_horizon": fixed, "ratio": anytime / fixed})
    return rows


# ---------------------------------------------------------------------------
# Iterated-logarithm lower-bound statistic
# ---------------------------------------------------------------------------


def _lil_batch(
    problem: RmProblem, l1: float, n_blocks: int, seeds, x0: float, threads: int = 0
) -> tuple[np.ndarray, list]:
    """Dyadic-block maxima of t*L_t/log log t for a batch of trajectories.

    The lil_chunk of the kernels _kernel.load returns, compiled or the
    numpy reference, runs x_t = x_{t-1} - (l1/t)*(M(x_{t-1}) + xi_t), the
    root-finding steps of rm_batch, LIL_STEPS steps per call, and folds the
    statistics (t*dev)*dev/log log t of the deviations dev = x_t - theta
    into the block maxima as it goes.  All seeds run in one batch, or with
    threads > 1 in blocks on a pool (_in_blocks), whose maxima are stacked:
    each seed's maxima are one column, so the split changes no byte.
    """
    horizon = 2 ** (n_blocks + 1)
    bounds = [(2**nb + 1, 2 ** (nb + 1)) for nb in range(1, n_blocks + 1)]

    def work(lo: int, hi: int) -> np.ndarray:
        kernels = _kernel.load()
        gens = kernels.generators(seeds[lo:hi])
        x = np.full(hi - lo, float(x0) + problem.theta)
        block_max = np.full((n_blocks, hi - lo), -np.inf)
        # run_lil_ensemble raises on non-finite maxima: numpy's warnings would precede it
        with np.errstate(over="ignore", invalid="ignore"):
            for t0 in range(1, horizon + 1, LIL_STEPS):
                m = min(LIL_STEPS, horizon + 1 - t0)
                kernels.lil_chunk(x, gens, t0, m, l1, problem, SQRT3, block_max)
        return block_max

    maxima = _in_blocks(len(seeds), len(seeds), threads, work)
    return np.concatenate(maxima, axis=1), bounds


def run_lil_ensemble(
    problem: RmProblem,
    l1: float,
    l2: float,
    n_blocks: int,
    seeds,
    x0: float = 1.0,
    threads: int = 0,
) -> list[LilReport]:
    """LIL statistic for many seeds advanced in lock step.

    The steps use the lower envelope eta_t = l1/t; l_const is
    sqrt(l1)/(4*(1 + l2*log(8)*M'(theta))), the scale the running maximum
    should reach infinitely often in the limit.  threads > 1 splits the
    seeds into blocks that run on up to that many threads (_lil_batch); the
    reports do not depend on it.
    """
    if not 0 < l1 <= l2:
        raise SpecError("need 0 < l1 <= l2")
    if not 1 <= n_blocks <= 24:
        raise SpecError("n_blocks must lie in [1, 24]")
    if not seeds:
        raise SpecError("need at least one seed")
    l_const = math.sqrt(l1) / (4.0 * (1.0 + l2 * math.log(8.0) * problem.m_prime_at_root))
    block_max, bounds = _lil_batch(problem, l1, n_blocks, list(seeds), x0, threads)
    # a diverging path reaches the maxima as nan or +inf, which max and
    # np.maximum both keep, so the maxima alone show it
    bad = np.argwhere(~np.isfinite(block_max))
    if bad.size:
        i, j = bad[0]
        lo, hi = bounds[i]
        raise FloatingPointError(
            f"non-finite LIL statistic {block_max[i, j]} in seed index {j} in block t={lo}..{hi}"
        )
    running_max = np.maximum.accumulate(block_max, axis=0)
    reports = []
    for j in range(block_max.shape[1]):
        stats = tuple(
            (lo, hi, float(block_max[i, j])) for i, (lo, hi) in enumerate(bounds)
        )
        running = tuple(running_max[:, j].tolist())
        reports.append(LilReport(block_stats=stats, running_max=running, l_const=l_const))
    return reports


def run_lil(problem: RmProblem, l1: float, l2: float, n_blocks: int, seed, x0: float = 1.0) -> LilReport:
    """Single-trajectory LIL statistic (see run_lil_ensemble)."""
    return run_lil_ensemble(problem, l1, l2, n_blocks, [seed], x0)[0]


# ---------------------------------------------------------------------------
# Cold-start PCA
# ---------------------------------------------------------------------------


def run_oja_cold_start(
    problem: PcaProblem,
    delta: float,
    c_explore: float,
    c_stable: float,
    horizon: int,
    n_reps: int,
    seed_base: int,
    variant: str = "krasulina",
    threads: int = 0,
) -> ColdStartReport:
    """Two-phase experiment from uniform initialization.

    Phase 1 runs the constant exploration steps to the split point and
    records how often sin^2 <= 1/4 there (target: at least 1 - delta^3).
    Phase 2 continues with decaying steps and counts crossings of the
    anytime boundary re-anchored at the split.  threads as in run_coverage.
    """
    start_time = time.perf_counter()
    with _spec("invalid cold-start spec", asdict(problem)):
        if variant not in ("krasulina", "oja"):
            raise ValueError(f"unknown variant {variant!r}")
        if n_reps < 1 or horizon < 1:
            raise ValueError("n_reps and horizon must be at least 1")
        if seed_base < 0:
            raise ValueError("seed_base must be nonnegative")
        schedule = two_phase_oja_schedule(problem.b, problem.rho, delta, c_explore, c_stable)
        split = schedule.h0_end
        total = split + horizon
        etas = schedule.etas(total)
        # The boundary formula is only defined for delta below exp(-2); when
        # the experiment's delta is larger, clip to that cap.  The clipped
        # boundary is wider only through its log(1/delta) factor, so the
        # guarantee at the original delta still holds and the pass threshold
        # below stays valid.
        delta_b = min(delta, 0.999 * math.exp(-2.0))
        boundary, _l_off = oja_boundary(problem.b, problem.rho, delta_b)
        widths = np.asarray(boundary.eval(np.arange(0, horizon + 1), delta_b))

    run = _pca_runner(problem, etas, "uniform", seed_base, variant, True)
    first_times, at_split = _drive(n_reps, run, (split,), widths, split, split, threads=threads)
    hits = int(np.count_nonzero(at_split[:, 0] <= 0.25))
    violations = len(first_times)

    hit_rate = hits / n_reps
    hit_threshold = 1.0 - delta**3
    rate = violations / n_reps
    threshold = mc_threshold(boundary.confidence_cost, delta, n_reps)
    return ColdStartReport(
        violations=violations,
        first_violation_times=first_times,
        empirical_rate=rate,
        widths_at_grid=(),
        quantiles_at_grid={},
        wall_time=time.perf_counter() - start_time,
        n_reps=n_reps,
        delta=delta,
        confidence_cost=boundary.confidence_cost,
        threshold=min(threshold, 1.0),
        passed=rate <= min(threshold, 1.0),
        split_t=split,
        hit_rate=hit_rate,
        hit_threshold=hit_threshold,
        hit_passed=hit_rate >= hit_threshold - 3.0 * math.sqrt(delta**3 / n_reps),
    )


# ---------------------------------------------------------------------------
# Counterexample
# ---------------------------------------------------------------------------


def run_counterexample(p_one: float, n_reps: int, horizon: int, seed_base: int) -> dict:
    """Fraction of stuck-Bernoulli trajectories that converge to zero.

    The limit is zero exactly on the complement of the Bernoulli event, so
    the fraction estimates 1 - p_one.
    """
    if not 0.0 <= p_one <= 1.0:
        raise SpecError("p_one must lie in [0, 1]")
    if n_reps < 1 or horizon < 1:
        raise SpecError("n_reps and horizon must be at least 1")
    if seed_base < 0:
        raise SpecError("seed_base must be nonnegative")
    zeros = 0
    for i in range(n_reps):
        trace = counterexample_process(p_one, horizon, rep_seed(seed_base, i))
        zeros += int(trace.losses[-1] == 0.0)
    fraction = zeros / n_reps
    expected = 1.0 - p_one
    sigma = math.sqrt(p_one * (1.0 - p_one) / n_reps)
    return {
        "fraction_zero": fraction,
        "expected": expected,
        "n_reps": n_reps,
        "three_sigma": 3.0 * sigma,
        "within_tolerance": abs(fraction - expected) <= max(3.0 * sigma, 0.01),
    }


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def write_report_json(report, path, extra: Optional[dict] = None, engines: bool = False) -> None:
    """Write a report, a dataclass or a dict, as JSON with deterministic payload.

    Timing goes into the separate "timing" object so that the rest of the
    document is byte-identical across reruns and worker counts.  When the
    report comes from engine runs (engines), timing also names the kernels
    that stepped them, _kernel.steps_by(): "compiled" or "reference".
    """
    payload = asdict(report) if is_dataclass(report) else dict(report)
    if "quantiles_at_grid" in payload:
        quantiles = payload["quantiles_at_grid"]
        payload["quantiles_at_grid"] = {str(k): list(v) for k, v in quantiles.items()}
    doc = {"report": payload}
    if extra:
        doc.update(extra)
    doc["timing"] = {"wall_time_s": payload.pop("wall_time", None)}
    if engines:
        doc["timing"]["kernels"] = _kernel.steps_by()
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")


def write_grid_csv(report: CoverageReport, grid: Sequence[int], path) -> None:
    """Per-grid widths and loss quantiles: columns t,width,q50,q90,q99."""
    import csv as _csv

    with open(path, "w", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(["t", "width", "q50", "q90", "q99"])
        for t, w in zip(grid, report.widths_at_grid):
            q50, q90, q99 = report.quantiles_at_grid[int(t)]
            writer.writerow([int(t), f"{w:.17g}", f"{q50:.17g}", f"{q90:.17g}", f"{q99:.17g}"])
