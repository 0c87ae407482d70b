"""Monte Carlo experiments: coverage, last-iterate, width tables, the
iterated-logarithm lower-bound statistic, and the cold-start PCA experiment.

Violation detection honors the time-uniform quantifier: every iterate in
[valid_from, horizon] is compared against the boundary, not just a grid; the
grid only selects which widths and loss quantiles are exported.

One driver (_drive) serves the coverage, last-iterate and cold-start runs.
It advances blocks of up to _REP_BLOCK = 512 replications and folds each
RNG chunk of losses the engines stream into the first boundary crossings
and the grid losses, refusing non-finite losses.  No (n_reps, horizon) loss
matrix is built: losses in flight take O(block * chunk) memory, independent
of the horizon.  Blocks and per-replication seeds are independent of the
worker count, and the draws of the chunk-length invariant engines do not
depend on the block size, so reports do not depend on scheduling.

The iterated-logarithm statistic runs on rm_batch as well: _lil_batch folds
each chunk of signed deviations x_t - theta the engine streams into
dyadic-block maxima, in one batch of all seeds, refusing non-finite maxima;
its step vector has length 2^(n_blocks+1).  No step loop and no noise draw
live here; _pca_v0 only draws each replication's initial direction.

Parameters an experiment rejects before any replication runs, including an
unparsable problem spec or an initial point outside the ball, raise
SpecError, a ValueError; errors raised while the replications run keep
their own type, so a caller can tell a bad spec from a failed run.
"""
from __future__ import annotations

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, is_dataclass
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from .algorithms import (
    DRAW_BUDGET,
    RIDGE_ROWS,
    _check_in_ball,
    pca_batch,
    ridge_batch,
    rm_batch,
    sgd_batch,
)
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
from .seeding import make_generator, rep_seed
from .streams import LinearModelStream

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


class SpecError(ValueError):
    """Invalid experiment parameters, found before any replication runs."""


@contextmanager
def _spec(what: str):
    """Re-raise the errors of parsing and resolving an experiment's
    parameters as SpecError, so that they are told apart from errors of
    the run itself."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"{what}: {exc}") from exc


def _check_keys(spec: Mapping, allowed, what: str) -> None:
    """Raise SpecError naming the keys of spec that are not in allowed, so
    that a misspelled field is never silently replaced by its default."""
    unknown = [repr(k) for k in spec if k not in allowed]
    if unknown:
        raise SpecError(f"{what}: unknown key(s) {', '.join(unknown)}")


def mc_threshold(cost: float, delta: float, n_reps: int) -> float:
    """Acceptance threshold cost*delta + 3*sqrt(cost*delta/n_reps).

    The guarantee bounds the violation probability by cost*delta; the second
    term is a three-sigma Monte Carlo slack at n_reps replications.
    """
    return cost * delta + 3.0 * math.sqrt(cost * delta / n_reps)


# ---------------------------------------------------------------------------
# Configuration and reports
# ---------------------------------------------------------------------------


_PCA_KEYS = ("eigs", "rotation", "v0", "normalize")
# the problem keys _build_setup reads for each algorithm
_PROBLEM_KEYS = {
    "sgd_sc": ("curvature", "x_star", "radius", "b_noise", "x0"),
    "krasulina": _PCA_KEYS,
    "oja": _PCA_KEYS,
    "ridge": (
        "theta_star", "x_radius", "noise_radius", "diam", "lambda_pen", "theta0",
        "penalty_in_gradient",
    ),
}


@dataclass(frozen=True)
class CoverageConfig:
    """Declarative coverage experiment.

    algorithm selects the runner ("sgd_sc", "krasulina", "oja", "ridge");
    problem holds its keyword parameters (see _build_setup), and a key the
    runner does not read is rejected.  boundary_scale multiplies the width
    (scale < 1 yields falsification runs that must produce violations,
    demonstrating the experiment has power).
    """

    algorithm: str
    problem: Mapping
    delta: float
    n_reps: int
    horizon: int
    seed_base: int
    record_grid: Tuple[int, ...] = ()
    boundary_scale: float = 1.0

    def __post_init__(self):
        if self.algorithm not in _PROBLEM_KEYS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        _check_keys(self.problem, _PROBLEM_KEYS[self.algorithm], "problem")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.n_reps < 1 or self.horizon < 1:
            raise ValueError("n_reps and horizon must be at least 1")
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


def _sgd_problem(spec: Mapping) -> SgdProblem:
    return SgdProblem(
        curvature=tuple(spec["curvature"]),
        x_star=tuple(spec["x_star"]),
        radius=float(spec["radius"]),
        b_noise=float(spec["b_noise"]),
    )


def _pca_problem(spec: Mapping) -> PcaProblem:
    rotation = spec.get("rotation")
    return PcaProblem(
        eigs=tuple(spec["eigs"]),
        rotation=None if rotation is None else tuple(tuple(r) for r in rotation),
    )


def _pca_v0(spec: Mapping, problem: PcaProblem, seed_base: int, rep: int) -> np.ndarray:
    """Per-replication initial direction: explicit vector, "uniform", or
    "warm" (v1 plus a perturbation of norm 0.3, so sin^2 <= 9/58 < 1/4)."""
    v0 = spec.get("v0", "warm")
    if isinstance(v0, (list, tuple)):
        return np.asarray(v0, dtype=float)
    rng = make_generator(np.random.SeedSequence(entropy=[int(seed_base), int(rep), 1]))
    u = rng.standard_normal(problem.dim)
    u /= np.linalg.norm(u)
    if v0 == "uniform":
        return u
    if v0 == "warm":
        v = problem.v_star + 0.3 * u
        return v / np.linalg.norm(v)
    raise ValueError(f"unknown v0 spec {v0!r}")


def _seeds(seed_base: int, lo: int, hi: int) -> list:
    return [rep_seed(seed_base, i) for i in range(lo, hi)]


def _sgd_runner(problem: SgdProblem, etas, x0, seed_base: int):
    return lambda lo, hi, on_chunk: sgd_batch(
        problem, etas, x0, _seeds(seed_base, lo, hi), record_channels=False, on_chunk=on_chunk
    )


def _pca_runner(problem: PcaProblem, etas, spec, seed_base: int, variant: str, normalize: bool):
    def run(lo: int, hi: int, on_chunk) -> None:
        v0 = np.stack([_pca_v0(spec, problem, seed_base, i) for i in range(lo, hi)])
        seeds = _seeds(seed_base, lo, hi)
        pca_batch(
            problem, etas, v0, seeds, variant, normalize, record_channels=False, on_chunk=on_chunk
        )

    return run


def _build_setup(config: CoverageConfig):
    """Resolve a config into (boundary, block runner, replications per block)."""
    spec = config.problem
    if config.algorithm == "sgd_sc":
        problem = _sgd_problem(spec)
        boundary = sgd_boundary(problem.b, problem.lam, config.delta)
        x0 = _check_in_ball(spec["x0"], problem.radius, "x0", problem.dim)
        etas = boundary.schedule.etas(config.horizon)
        return boundary, _sgd_runner(problem, etas, x0, config.seed_base), _REP_BLOCK
    if config.algorithm in ("krasulina", "oja"):
        problem = _pca_problem(spec)
        boundary, _l_off = oja_boundary(problem.b, problem.rho, config.delta)
        etas = boundary.schedule.etas(config.horizon)
        normalize = bool(spec.get("normalize", config.algorithm == "oja"))
        v0 = _pca_v0(spec, problem, config.seed_base, 0)
        if v0.shape != (problem.dim,) or not np.any(v0):
            raise ValueError("v0 must be a nonzero vector of the problem's dimension")
        run = _pca_runner(problem, etas, spec, config.seed_base, config.algorithm, normalize)
        return boundary, run, _REP_BLOCK
    if config.algorithm == "ridge":
        stream = LinearModelStream(
            theta_star=tuple(spec["theta_star"]),
            x_radius=float(spec["x_radius"]),
            noise_radius=float(spec["noise_radius"]),
        )
        diam = float(spec["diam"])
        lambda_pen = float(spec.get("lambda_pen", 0.0))
        theta_norm = float(np.linalg.norm(stream.theta_star))
        boundary = ridge_boundary(
            stream.b, diam, lambda_pen, stream.lambda_min, theta_norm, config.delta
        )
        theta0 = _check_in_ball(spec["theta0"], diam / 2.0, "theta0", stream.dim)
        etas = boundary.schedule.etas(config.horizon)
        penalty_in_gradient = bool(spec.get("penalty_in_gradient", True))

        def run(lo: int, hi: int, on_chunk) -> None:
            seeds = _seeds(config.seed_base, lo, hi)
            ridge_batch(
                stream, diam, lambda_pen, etas, theta0, seeds, penalty_in_gradient, on_chunk
            )

        # Ridge chunks keep RIDGE_ROWS steps, so the draw budget bounds the block.
        return boundary, run, max(1, DRAW_BUDGET // (RIDGE_ROWS * (stream.dim + 1)))
    raise AssertionError("unreachable")


def _drive(n_reps, run, block, grid=(), widths=None, scan_from=0, origin=0, threads=0):
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

    def work(lo: int) -> None:
        first_b = first[lo : lo + block]
        grid_b = at_grid[lo : lo + block]

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
            run(lo, min(lo + block, n_reps), reduce)

    blocks = range(0, n_reps, block)
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, blocks))
    else:
        for lo in blocks:
            work(lo)
    return tuple(int(t) for t in np.sort(first[first >= 0])), at_grid


def run_coverage(config: CoverageConfig, threads: int = 0) -> CoverageReport:
    """Estimate the time-uniform violation probability of a boundary.

    A replication counts as a violation when its loss exceeds the (scaled)
    width at any iterate in [valid_from, horizon].  The report passes when
    the empirical rate is at most confidence_cost*delta plus three-sigma
    Monte Carlo slack.
    """
    start_time = time.perf_counter()
    with _spec("invalid problem spec"):
        boundary, run, block = _build_setup(config)
        t_all = np.arange(0, config.horizon + 1)
        widths = np.asarray(boundary.eval(t_all, config.delta)) * config.boundary_scale
    grid = config.record_grid
    first_times, at_grid = _drive(
        config.n_reps, run, block, grid, widths, boundary.valid_from, 0, threads
    )
    violations = len(first_times)
    rate = violations / config.n_reps
    quantiles = {}
    for j, t in enumerate(grid):
        q = np.quantile(at_grid[:, j], [0.5, 0.9, 0.99])
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


def run_last_iterate(config: CoverageConfig, t_eval: int) -> Tuple[float, float]:
    """Exceedance rate of the fixed-t bound at t_eval for projected SGD.

    Uses the last-iterate schedule eta_t = 1/(lam*(t+3)).  Rerunning with a
    different delta reuses the same trajectories (seeds do not depend on
    delta), so exceedance is nonincreasing in delta.
    """
    with _spec("invalid last-iterate spec"):
        if config.algorithm != "sgd_sc":
            raise ValueError("last-iterate experiment is defined for sgd_sc")
        if t_eval < 1 or t_eval > config.horizon:
            raise ValueError("need 1 <= t_eval <= horizon")
        problem = _sgd_problem(config.problem)
        bound = sgd_last_iterate(problem.b, problem.lam, config.delta, t_eval)
        schedule = StepSchedule.inverse_time(1.0 / problem.lam, 3.0)
        etas = schedule.etas(t_eval)
        x0 = _check_in_ball(config.problem["x0"], problem.radius, "x0", problem.dim)
    run = _sgd_runner(problem, etas, x0, config.seed_base)
    _, at_eval = _drive(config.n_reps, run, _REP_BLOCK, (t_eval,))
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
    problem: RmProblem, l1: float, n_blocks: int, seeds, x0: float
) -> tuple[np.ndarray, list]:
    """Dyadic-block maxima of t*L_t/log log t for a batch of trajectories.

    rm_batch runs x_t = x_{t-1} - (l1/t)*(M(x_{t-1}) + xi_t) and streams the
    deviations dev = x_t - theta per chunk; each chunk's statistics
    (t*dev)*dev/log log t are one array pass folded into the block maxima.
    The signed deviation is needed: (t*dev)*dev is not rebuilt bit for bit
    from the loss dev^2.
    """
    horizon = 2 ** (n_blocks + 1)
    block_max = np.full((n_blocks, len(seeds)), -np.inf)
    bounds = [(2**nb + 1, 2 ** (nb + 1)) for nb in range(1, n_blocks + 1)]

    def reduce(t0: int, dev: np.ndarray) -> None:
        # the blocks start at t = 3, where log log t > 0; math.log, not
        # np.log, whose SIMD loops need not round as libm does
        t1 = t0 + dev.shape[1] - 1
        loglog = np.ones(t1 - t0 + 1)
        t3 = max(3, t0)
        loglog[t3 - t0 :] = np.fromiter(
            map(math.log, map(math.log, range(t3, t1 + 1))), float, max(0, t1 + 1 - t3)
        )
        stat = np.arange(t0, t1 + 1, dtype=float) * dev
        stat *= dev
        stat /= loglog
        for i, (lo, hi) in enumerate(bounds):
            a, b = max(lo, t0), min(hi, t1)
            if a <= b:
                top = stat[:, a - t0 : b - t0 + 1].max(axis=1)
                np.maximum(block_max[i], top, out=block_max[i])

    etas = np.arange(1, horizon + 1, dtype=float)
    np.divide(l1, etas, out=etas)  # eta_t = l1/t, in place: one horizon-length vector
    # run_lil_ensemble raises on non-finite maxima: numpy's warnings would precede it
    with np.errstate(over="ignore", invalid="ignore"):
        rm_batch(problem, etas, float(x0) + problem.theta, seeds, False, reduce)
    return block_max, bounds


def run_lil_ensemble(
    problem: RmProblem,
    l1: float,
    l2: float,
    n_blocks: int,
    seeds,
    x0: float = 1.0,
) -> list[LilReport]:
    """LIL statistic for many seeds advanced in lock step.

    The steps use the lower envelope eta_t = l1/t; l_const is
    sqrt(l1)/(4*(1 + l2*log(8)*M'(theta))), the scale the running maximum
    should reach infinitely often in the limit.
    """
    if not 0 < l1 <= l2:
        raise SpecError("need 0 < l1 <= l2")
    if not 1 <= n_blocks <= 24:
        raise SpecError("n_blocks must lie in [1, 24]")
    if not seeds:
        raise SpecError("need at least one seed")
    l_const = math.sqrt(l1) / (4.0 * (1.0 + l2 * math.log(8.0) * problem.m_prime_at_root))
    block_max, bounds = _lil_batch(problem, l1, n_blocks, seeds, x0)
    # a diverging path reaches the maxima as nan or +inf, which max and
    # np.maximum both keep, so the maxima alone show it
    bad = np.argwhere(~np.isfinite(block_max))
    if bad.size:
        i, j = bad[0]
        lo, hi = bounds[i]
        raise FloatingPointError(
            f"non-finite LIL statistic {block_max[i, j]} in seed index {j} in block t={lo}..{hi}"
        )
    reports = []
    for j in range(block_max.shape[1]):
        stats = tuple(
            (lo, hi, float(block_max[i, j])) for i, (lo, hi) in enumerate(bounds)
        )
        running = tuple(np.maximum.accumulate(block_max[:, j]).tolist())
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
) -> ColdStartReport:
    """Two-phase experiment from uniform initialization.

    Phase 1 runs the constant exploration steps to the split point and
    records how often sin^2 <= 1/4 there (target: at least 1 - delta^3).
    Phase 2 continues with decaying steps and counts crossings of the
    anytime boundary re-anchored at the split.
    """
    start_time = time.perf_counter()
    with _spec("invalid cold-start spec"):
        if variant not in ("krasulina", "oja"):
            raise ValueError(f"unknown variant {variant!r}")
        if n_reps < 1 or horizon < 1:
            raise ValueError("n_reps and horizon must be at least 1")
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

    run = _pca_runner(problem, etas, {"v0": "uniform"}, seed_base, variant, True)
    first_times, at_split = _drive(n_reps, run, _REP_BLOCK, (split,), widths, split, split)
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


def write_report_json(report, path, extra: Optional[dict] = None) -> None:
    """Write a report, a dataclass or a dict, as JSON with deterministic payload.

    Timing goes into the separate "timing" object so that the rest of the
    document is byte-identical across reruns and worker counts.
    """
    payload = asdict(report) if is_dataclass(report) else dict(report)
    if "quantiles_at_grid" in payload:
        quantiles = payload["quantiles_at_grid"]
        payload["quantiles_at_grid"] = {str(k): list(v) for k, v in quantiles.items()}
    doc = {"report": payload}
    if extra:
        doc.update(extra)
    doc["timing"] = {"wall_time_s": payload.pop("wall_time", None)}
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
