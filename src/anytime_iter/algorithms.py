"""Instrumented iterative algorithms emitting loss traces.

Each algorithm records the loss process certified by the boundaries module
together with the noise decomposition needed for path-wise recursion checks:

  * projected SGD on diagonal quadratics (strongly convex loss ||x-x*||^2 and
    PL loss F(x)-F(x*)),
  * streaming PCA in both the multiplicative and the orthogonalized-increment
    variant (sin^2 loss),
  * scalar stochastic root finding,
  * sequential ridge regression via SGD.

All runners are implemented on top of batched engines that advance many
replications in lock step.  Each replication owns its generator (derived from
its seed) and the steps use no matrix products, whose summation order
depends on the batch shape, so a batch of one is bit-identical to a batch
member of any size.  Normals (SGD), signs (PCA) and uniforms (root finding)
come out the same however a stream is cut into chunks, so those engines draw
chunks of DRAW_BUDGET values per batch (and at least MIN_ROWS steps):
streamed through on_chunk without record_channels, memory is O(N*chunk),
independent of the horizon.  rm_batch streams the signed deviations
x_t - theta instead of their squares, the loss, so that a reducer can form
(t*dev)*dev, which dev^2 does not give bit for bit (the LIL statistic).
Ridge draws signs, then uniforms, per chunk, so its RIDGE_ROWS is fixed.

Each engine's step loop only advances the recursion: the update, the
projection or normalisation, and a write of the new iterate into a
trajectory buffer, all into preallocated arrays.  The losses and, with
record_channels, every noise channel are then computed by passes over the
stored iterates, the chunk's draws and its step sizes, in slices of at most
PASS_BUDGET values and in the elementwise order of the per-step formulas, so
they are bit-identical to computing them step by step.  The transient memory
of the passes is O(N*chunk) with or without recording.

The step loops run compiled, one C call per slice (_steps.c, built on first
use and loaded by _kernel): projected SGD, both PCA variants with or without
normalisation, root finding with the linear M, and both ridge variants.  The
C code performs the same correctly rounded IEEE operations (+, -, *, /,
sqrt) in the same order as the numpy loop, built without contraction into
fused multiply-adds and without -ffast-math, and it sums coordinates left
to right with the closing +0.0 of _sum_last; so it writes the same bits into
the same trajectory buffer.  The numpy loop stays as the reference and runs
wherever that argument fails or the library is missing: for the cubic M,
because numpy's u**3 matches neither u*u*u nor libm's pow; for widths of 8
or more, where np.sum adds pairwise; and when no compiler is available.

Where the step loop is compiled, so is the pass with recording: one C call
per slice computes the losses and every channel, each numpy expression
evaluated left to right with its parentheses, and writes them straight into
the (N, T) result arrays, with no transposed copies or temporaries.  Its
numpy form stays as the reference and the fallback.  The plain loss pass,
which every coverage, cold-start and LIL run takes, stays in numpy: it is
one array expression and one transposed copy, already at memory speed, and
a compiled loss pass measured slower on those runs.

The draws are compiled wherever the step loop is, and for the cubic M too,
whose draws do not depend on M: the engine wraps its generators in a
streams.GeneratorBatch built from _compiled, and each chunk is still one
sampler call, which then draws in C through numpy's own distribution
functions, bit for bit (see streams).  Ridge keeps LinearModelStream.draw
per generator, whose x @ theta_star is a BLAS product.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import _kernel
from .boundaries import StepSchedule
from .problems import PcaProblem, RmProblem, SgdProblem
from .recursion import CheckReport, RecursionParams, Trace, _first_violation
from .seeding import SeedLike, rep_generators
from .streams import (
    SQRT3,
    GeneratorBatch,
    LinearModelStream,
    _sum_last,
    rademacher_batch,
    sphere_noise_batch,
    uniform_batch,
)

__all__ = [
    "SgdProblem",
    "PcaProblem",
    "RmProblem",
    "sgd_strongly_convex",
    "sgd_pl",
    "oja_stream",
    "krasulina_stream",
    "sin2",
    "robbins_monro",
    "ridge_sgd",
    "sgd_recursion_params",
    "pl_recursion_params",
    "rm_recursion_params",
    "check_pca_recursion",
]

DRAW_BUDGET = 2**17  # values drawn per chunk across a batch (1 MB)
MIN_ROWS = 128  # steps per chunk at least, to amortise one draw call per generator
RIDGE_ROWS = 2048  # steps per ridge chunk; part of the ridge output
PASS_BUDGET = 2**14  # values per slice of the step loop and its loss and channel pass


def _rows(n: int, width: int) -> int:
    """Steps per chunk for n replications drawing width values per step."""
    return max(MIN_ROWS, DRAW_BUDGET // (n * width))


def _chunks(l0, horizon: int, rows: int, on_chunk, losses):
    """Yield (start, size, out) per chunk of at most rows steps.

    The engine fills out, an (N, size) array, with the losses at times
    start+1..start+size.  Without on_chunk, out is a view of the
    (N, horizon+1) matrix losses, whose column 0 is l0.  With it, out is a
    reused buffer that goes to on_chunk(start + 1, out) once filled; the
    losses l0 at time 0 go first, as on_chunk(0, l0[:, None]).
    """
    if on_chunk is None:
        losses[:, 0] = l0
        for start in range(0, horizon, rows):
            size = min(rows, horizon - start)
            yield start, size, losses[:, start + 1 : start + size + 1]
        return
    on_chunk(0, l0[:, None])
    buf = np.empty((len(l0), min(rows, horizon)))
    for start in range(0, horizon, rows):
        size = min(rows, horizon - start)
        yield start, size, buf[:, :size]
        on_chunk(start + 1, buf[:, :size])


# ---------------------------------------------------------------------------
# Batched engines
# ---------------------------------------------------------------------------


def _alloc(shape, record: bool):
    return np.empty(shape) if record else None


def _slice_rows(width: int) -> int:
    """Steps per slice when a step carries width values."""
    return max(1, PASS_BUDGET // width)


def _slices(size: int, width: int):
    """Yield (lo, hi) row ranges of a size-step chunk, each holding at most
    PASS_BUDGET values when a step carries width values."""
    rows = _slice_rows(width)
    for lo in range(0, size, rows):
        yield lo, min(lo + rows, size)


def _trajectory(state: np.ndarray, horizon: int) -> np.ndarray:
    """Buffer of one slice's iterates: row 0 holds state, and step k of the
    slice writes row k+1."""
    rows = min(_slice_rows(state.size), horizon)
    traj = np.empty((rows + 1,) + state.shape)
    traj[0] = state
    return traj


def _compiled(width: int):
    """The compiled step loops for coordinates of the given width, or None.

    None when the library cannot be built, and for widths of 8 or more, where
    np.sum adds pairwise and the compiled left-to-right sums would differ.
    """
    return _kernel.load() if width <= _kernel.MAX_WIDTH else None


def _check_in_ball(x, radius: float, name: str, dim=None) -> np.ndarray:
    """x as a float array, checked to lie in the ball of the given radius
    and, when dim is given, to be a vector of dim coordinates."""
    x = np.asarray(x, dtype=float)
    if dim is not None and x.shape != (dim,):
        raise ValueError(f"{name} must be a vector of dimension {dim}")
    if np.linalg.norm(x) > radius + 1e-12:
        raise ValueError(f"{name} must lie in the ball of radius {radius}")
    return x


def _projector(n: int, d: int, radius: float):
    """Return project(w), which pulls the rows of the (n, d) array w outside
    the ball of the given radius back onto its sphere, in place, and returns
    how many moved."""
    sq = np.empty((n, d))
    r2 = np.empty(n)
    outside = np.empty(n, dtype=bool)
    rr = radius * radius

    def project(w: np.ndarray) -> int:
        np.multiply(w, w, out=sq)
        _sum_last(sq, r2, squares=True)
        np.greater(r2, rr, out=outside)
        if not outside.any():
            return 0
        w[outside] *= (radius / np.sqrt(r2[outside]))[:, None]
        return int(np.count_nonzero(outside))

    return project


def sgd_batch(
    problem: SgdProblem,
    etas: np.ndarray,
    x0,
    seeds: Sequence[SeedLike],
    record_channels: bool = True,
    on_chunk=None,
) -> dict:
    """Advance len(seeds) projected-SGD replications in lock step.

    Returns per-replication arrays: loss_sc/loss_pl of shape (N, T+1) and,
    when record_channels is set, the noise decompositions and martingale
    parts of shape (N, T); without it loss_pl is None.  With on_chunk,
    loss_sc is None and on_chunk(t0, losses) receives instead each chunk's
    losses at times t0, t0+1, ... in an (N, k) buffer reused afterwards.
    """
    n = len(seeds)
    d = problem.dim
    horizon = len(etas)
    kernels = _compiled(d)
    gens = GeneratorBatch(rep_generators(seeds), kernels)
    a = np.asarray(problem.curvature)
    xs = np.asarray(problem.x_star)
    radius = problem.radius
    mu = problem.mu
    half_mu = 0.5 * mu

    x0 = _check_in_ball(x0, radius, "x0")
    traj = _trajectory(np.tile(x0, (n, 1)), horizon)
    diff = traj[0] - xs

    loss_sc = None if on_chunk else np.empty((n, horizon + 1))
    loss_pl = _alloc((n, horizon + 1), record_channels)
    if record_channels:
        loss_pl[:, 0] = 0.5 * np.sum(a * diff * diff, axis=1)
    noise_sc = _alloc((n, horizon), record_channels)
    noise_pl = _alloc((n, horizon), record_channels)
    y_sc = _alloc((n, horizon), record_channels)
    y_pl = _alloc((n, horizon), record_channels)
    gnorm2 = _alloc((n, horizon), record_channels)
    proj_hits = 0

    # whole (n, d) operands: broadcasting a (d,) vector costs more per step
    a_n, xs_n = np.tile(a, (n, 1)), np.tile(xs, (n, 1))
    g = np.empty((n, d))
    project = _projector(n, d, radius)
    states = list(traj)
    l0 = np.sum(diff * diff, axis=1)
    for start, size, out in _chunks(l0, horizon, _rows(n, d), on_chunk, loss_sc):
        eps = sphere_noise_batch(gens, size, d, problem.b_noise)
        for lo, hi in _slices(size, n * d):
            e = eps[lo:hi]
            t = slice(start + lo, start + hi)
            if kernels is not None:
                proj_hits += kernels.sgd(traj, e, etas[t], a, xs, radius)
            else:
                for k, eta in enumerate(etas[t].tolist()):
                    # w = x - eta*(a*(x - x*) + e), projected onto the ball
                    x, w = states[k], states[k + 1]
                    np.subtract(x, xs_n, out=diff)
                    np.multiply(a_n, diff, out=g)
                    np.add(g, e[k], out=g)
                    np.multiply(g, eta, out=g)
                    np.subtract(x, g, out=w)
                    proj_hits += project(w)
            t1 = slice(start + lo + 1, start + hi + 1)
            if record_channels and kernels is not None:
                kernels.sgd_pass(
                    traj, e, etas[t], a, xs, half_mu, out[:, lo:hi], loss_pl[:, t1],
                    noise_sc[:, t], noise_pl[:, t], y_sc[:, t], y_pl[:, t], gnorm2[:, t],
                )
            else:
                dev = traj[: hi - lo + 1] - xs
                out[:, lo:hi] = _sum_last(dev[1:] * dev[1:], squares=True).T
                if record_channels:
                    eta = etas[t, None]
                    gradf = a * dev[:-1]
                    gvec = gradf + e
                    gn2 = _sum_last(gvec * gvec, squares=True)
                    y1 = -_sum_last(e * dev[:-1])
                    y2 = -_sum_last(gradf * e)
                    y_sc[:, t] = y1.T
                    y_pl[:, t] = y2.T
                    gnorm2[:, t] = gn2.T
                    noise_sc[:, t] = (2.0 * eta * y1 + eta * eta * gn2).T
                    noise_pl[:, t] = (eta * y2 + 0.5 * mu * eta * eta * gn2).T
                    loss_pl[:, t1] = (0.5 * _sum_last(a * dev[1:] * dev[1:])).T
            traj[0] = traj[hi - lo]
    return {
        "loss_sc": loss_sc,
        "loss_pl": loss_pl,
        "noise_sc": noise_sc,
        "noise_pl": noise_pl,
        "y_sc": y_sc,
        "y_pl": y_pl,
        "gnorm2": gnorm2,
        "proj_hits": proj_hits,
        "final_x": traj[0].copy(),
    }


def pca_batch(
    problem: PcaProblem,
    etas: np.ndarray,
    v0,
    seeds: Sequence[SeedLike],
    variant: str,
    normalize_each_step: bool,
    record_channels: bool = True,
    on_chunk=None,
) -> dict:
    """Advance streaming-PCA replications in lock step.

    variant "krasulina" adds the component of y*X orthogonal to the iterate;
    variant "oja" applies the multiplicative update v <- v + eta*y*X.  The
    recorded noise channel q is the centered martingale part of the sin^2
    recursion (computable exactly because the covariance is known).
    on_chunk streams "loss" as in sgd_batch.
    """
    if variant not in ("krasulina", "oja"):
        raise ValueError(f"unknown variant {variant!r}")
    n = len(seeds)
    p = problem.dim
    horizon = len(etas)
    kernels = _compiled(p)
    gens = GeneratorBatch(rep_generators(seeds), kernels)
    eigs = np.asarray(problem.eigs)
    sq = np.sqrt(eigs)
    rot = None if problem.rotation is None else np.asarray(problem.rotation)

    v0 = np.asarray(v0, dtype=float)
    v = np.tile(v0, (n, 1)) if v0.ndim == 1 else v0.copy()
    if v.shape != (n, p):
        raise ValueError("v0 must be a vector or an (n_reps, dim) array")
    if rot is not None:
        # The updates commute with rotations: on data R*z the iterate is R*w,
        # where w runs on z.  Run w, whose target is e1 and covariance
        # diag(eigs), so that no step needs a matrix product.
        v = np.sum(v[:, None, :] * rot.T, axis=-1)
    vn2 = np.sum(v * v, axis=1)
    if np.any(vn2 <= 0):
        raise ValueError("v0 must be nonzero")

    losses = None if on_chunk else np.empty((n, horizon + 1))
    q_chan = _alloc((n, horizon), record_channels)
    zv_chan = _alloc((n, horizon), record_channels)
    znorm2_chan = _alloc((n, horizon), record_channels)
    ratio_chan = _alloc((n, horizon), record_channels)

    # traj[k] is the iterate before step k of a slice and norms[k] the squared
    # norm the steps divide by: ||v||^2, or 1 after a normalised step;
    # grown[k] is ||v||^2 right after step k's update, before normalising.
    traj = _trajectory(v, horizon)
    norms = np.ones(traj.shape[:2])
    grown = np.empty_like(norms[1:]) if normalize_each_step else norms[1:]
    norms[0] = vn2
    states = list(traj)
    y = np.empty(n)
    c = np.empty(n)
    tmp = np.empty((n, p))
    z = np.empty((n, p))
    y_col, c_col = y[:, None], c[:, None]
    krasulina = variant == "krasulina"

    l0 = np.maximum(0.0, 1.0 - v[:, 0] ** 2 / vn2)
    for start, size, out in _chunks(l0, horizon, _rows(n, p), on_chunk, losses):
        draws = rademacher_batch(gens, size, p, sq)
        for lo, hi in _slices(size, n * p):
            xs = draws[lo:hi]
            t = slice(start + lo, start + hi)
            if kernels is not None:
                kernels.pca(traj, norms, grown, xs, etas[t], krasulina, normalize_each_step)
            else:
                for k, eta in enumerate(etas[t].tolist()):
                    v, w, xk = states[k], states[k + 1], xs[k]
                    np.multiply(xk, v, out=tmp)
                    _sum_last(tmp, y)
                    if krasulina:
                        # z = y*X - (y^2/||v||^2)*v; w = v + eta*z
                        np.multiply(y, y, out=c)
                        np.divide(c, norms[k], out=c)
                        np.multiply(y_col, xk, out=z)
                        np.multiply(c_col, v, out=tmp)
                        np.subtract(z, tmp, out=z)
                        np.multiply(z, eta, out=z)
                    else:
                        # w = v + (eta*y)*X
                        np.multiply(y, eta, out=y)
                        np.multiply(y_col, xk, out=z)
                    np.add(v, z, out=w)
                    np.multiply(w, w, out=tmp)
                    _sum_last(tmp, grown[k], squares=True)
                    if normalize_each_step:
                        np.sqrt(grown[k], out=c)
                        np.divide(w, c_col, out=w)
            m = hi - lo
            if record_channels and kernels is not None:
                kernels.pca_pass(
                    traj, norms, grown, xs, etas[t], eigs, out[:, lo:hi],
                    q_chan[:, t], zv_chan[:, t], znorm2_chan[:, t], ratio_chan[:, t],
                )
            else:
                u = traj[1 : m + 1, :, 0]
                out[:, lo:hi] = np.maximum(0.0, 1.0 - u**2 / norms[1 : m + 1]).T
                if record_channels:
                    eta = etas[t, None]
                    vp, xp, vn2 = traj[:m], xs, norms[:m]
                    yp = _sum_last(xp * vp)
                    zp = yp[..., None] * xp - (yp * yp / vn2)[..., None] * vp
                    v1 = vp[..., 0]
                    sv = vp * eigs
                    m_t = 2.0 * eta * v1 * (sv[..., 0] - v1 * _sum_last(sv * vp) / vn2) / vn2
                    q_chan[:, t] = (m_t - 2.0 * eta * v1 * zp[..., 0] / vn2).T
                    zv_chan[:, t] = _sum_last(zp * vp).T
                    znorm2_chan[:, t] = _sum_last(zp * zp, squares=True).T
                    ratio_chan[:, t] = (grown[:m] / vn2).T
            traj[0] = traj[m]
            norms[0] = norms[m]
    v = traj[0].copy()
    if rot is not None:
        v = np.sum(v[:, None, :] * rot, axis=-1)
    return {
        "loss": losses,
        "q": q_chan,
        "z_dot_v": zv_chan,
        "znorm2": znorm2_chan,
        "norm_ratio": ratio_chan,
        "final_v": v,
    }


def rm_batch(
    problem: RmProblem,
    etas: np.ndarray,
    x0: float,
    seeds: Sequence[SeedLike],
    record_channels: bool = True,
    on_chunk=None,
) -> dict:
    """Advance scalar root-finding replications in lock step.

    The loss is (x_t - theta)^2.  With on_chunk, loss is None and
    on_chunk(t0, dev) receives instead each chunk's signed deviations
    x_t - theta, as in sgd_batch; callers square them for the loss.
    """
    n = len(seeds)
    horizon = len(etas)
    gens = GeneratorBatch(rep_generators(seeds), _compiled(1))
    # the draws do not depend on M, the steps and the pass do: numpy's u**3
    # in the cubic M matches neither u*u*u nor libm's pow
    kernels = gens.kernels if problem.m_kind == "linear" else None
    theta = problem.theta
    losses = None if on_chunk else np.empty((n, horizon + 1))
    q_chan = _alloc((n, horizon), record_channels)
    noise = _alloc((n, horizon), record_channels)
    # formed in Python, as poly_sq and the numpy pass form them
    s2, r1sq = float(problem.slope**2), float(problem.r1**2)

    traj = _trajectory(np.full(n, float(x0)), horizon)
    states = list(traj)
    l0 = traj[0] - theta if on_chunk else (traj[0] - theta) ** 2
    for start, size, out in _chunks(l0, horizon, _rows(n, 1), on_chunk, losses):
        draws = uniform_batch(gens, size, SQRT3)
        for lo, hi in _slices(size, n):
            xi = draws[lo:hi]
            t = slice(start + lo, start + hi)
            if kernels is not None:
                kernels.rm_linear(traj, xi, etas[t], float(theta), float(problem.slope))
            else:
                for k, eta in enumerate(etas[t].tolist()):
                    # x <- x - eta*(M(x) + xi)
                    x = states[k]
                    y_val = problem.m_func(x)
                    np.add(y_val, xi[k], out=y_val)
                    np.multiply(y_val, eta, out=y_val)
                    np.subtract(x, y_val, out=states[k + 1])
            if record_channels and kernels is not None:
                kernels.rm_pass(
                    traj, xi, etas[t], float(theta), s2, r1sq, on_chunk is not None,
                    out[:, lo:hi], q_chan[:, t], noise[:, t],
                )
            else:
                dev = traj[: hi - lo + 1] - theta
                out[:, lo:hi] = (dev[1:] if on_chunk else dev[1:] ** 2).T
                if record_channels:
                    eta = etas[t, None]
                    q = -2.0 * eta * dev[:-1] * xi
                    q_chan[:, t] = q.T
                    envelope = problem.poly_sq(dev[:-1] ** 2) + problem.r1**2
                    noise[:, t] = (q + 2.0 * eta * eta * envelope).T
            traj[0] = traj[hi - lo]
    return {"loss": losses, "q": q_chan, "noise": noise, "final_x": traj[0].copy()}


def ridge_batch(
    stream: LinearModelStream,
    diam: float,
    lambda_pen: float,
    etas: np.ndarray,
    theta0,
    seeds: Sequence[SeedLike],
    penalty_in_gradient: bool = True,
    on_chunk=None,
) -> dict:
    """Advance ridge-SGD replications in lock step; on_chunk as in sgd_batch."""
    n = len(seeds)
    d = stream.dim
    horizon = len(etas)
    gens = rep_generators(seeds)
    radius = diam / 2.0
    theta_star = np.asarray(stream.theta_star)

    theta0 = _check_in_ball(theta0, radius, "theta0")
    losses = None if on_chunk else np.empty((n, horizon + 1))
    traj = _trajectory(np.tile(theta0, (n, 1)), horizon)
    states = list(traj)
    g = np.empty((n, d))
    pen = np.empty((n, d))
    resid = np.empty(n)
    resid_col = resid[:, None]
    project = _projector(n, d, radius)
    kernels = _compiled(d)

    l0 = np.sum((traj[0] - theta_star) ** 2, axis=1)
    for start, size, out in _chunks(l0, horizon, RIDGE_ROWS, on_chunk, losses):
        xc = np.empty((size, n, d))
        yc = np.empty((size, n))
        for j, gen in enumerate(gens):
            xj, yj = stream.draw(gen, size)
            xc[:, j, :] = xj
            yc[:, j] = yj
        for lo, hi in _slices(size, n * d):
            xs, ys = xc[lo:hi], yc[lo:hi]
            t = slice(start + lo, start + hi)
            if kernels is not None:
                kernels.ridge(traj, xs, ys, etas[t], lambda_pen, penalty_in_gradient, radius)
            else:
                for k, eta in enumerate(etas[t].tolist()):
                    theta, w, xk = states[k], states[k + 1], xs[k]
                    np.multiply(xk, theta, out=g)
                    _sum_last(g, resid)
                    np.subtract(resid, ys[k], out=resid)
                    np.multiply(theta, lambda_pen, out=pen)
                    if penalty_in_gradient:
                        # w = theta - eta*(resid*x + lambda*theta)
                        np.multiply(resid_col, xk, out=g)
                        np.add(g, pen, out=g)
                        np.multiply(g, eta, out=g)
                        np.subtract(theta, g, out=w)
                    else:
                        # verbatim variant: the penalty enters without a step factor
                        np.multiply(resid, eta, out=resid)
                        np.multiply(resid_col, xk, out=g)
                        np.subtract(theta, g, out=w)
                        np.add(w, pen, out=w)
                    project(w)
            m = hi - lo
            out[:, lo:hi] = _sum_last((traj[1 : m + 1] - theta_star) ** 2, squares=True).T
            traj[0] = traj[m]
    return {"loss": losses, "final_theta": traj[0].copy()}


# ---------------------------------------------------------------------------
# Public single-trace runners
# ---------------------------------------------------------------------------


def _meta(algorithm: str, seed, schedule: StepSchedule, extra: dict | None = None) -> dict:
    meta = {"algorithm": algorithm, "seed": str(seed), "schedule": schedule.kind}
    if extra:
        meta.update({k: str(v) for k, v in extra.items()})
    return meta


def sgd_strongly_convex(
    problem: SgdProblem, schedule: StepSchedule, x0, horizon: int, seed: SeedLike
) -> Trace:
    """Projected SGD trace with loss ||x_t - x*||^2.

    The noise channel stores the exact identity 2*eta*Y_t + eta^2*||g||^2
    with Y_t = <grad F - g, x_{t-1} - x*> (the centered martingale part,
    also exported as aux channel "y")."""
    etas = schedule.etas(horizon)
    res = sgd_batch(problem, etas, x0, [seed])
    return Trace(
        losses=res["loss_sc"][0],
        steps=etas,
        noise=res["noise_sc"][0],
        aux={"y": res["y_sc"][0], "gnorm2": res["gnorm2"][0]},
        meta=_meta("sgd_strongly_convex", seed, schedule, {"lam": problem.lam, "b": problem.b}),
    )


def sgd_pl(problem: SgdProblem, schedule: StepSchedule, x0, horizon: int, seed: SeedLike) -> Trace:
    """Projected SGD trace with loss F(x_t) - F(x*) under smoothness + PL.

    The recursion decomposition relies on the smoothness descent inequality,
    which requires the projection to stay inactive; choose the ball large
    enough for the dynamics (the runner reports projection hits in meta)."""
    etas = schedule.etas(horizon)
    res = sgd_batch(problem, etas, x0, [seed])
    return Trace(
        losses=res["loss_pl"][0],
        steps=etas,
        noise=res["noise_pl"][0],
        aux={"y": res["y_pl"][0], "gnorm2": res["gnorm2"][0]},
        meta=_meta(
            "sgd_pl",
            seed,
            schedule,
            {"mu": problem.mu, "tau": problem.tau, "b": problem.b, "proj_hits": res["proj_hits"]},
        ),
    )


def oja_stream(
    problem: PcaProblem,
    schedule: StepSchedule,
    v0,
    horizon: int,
    seed: SeedLike,
    normalize_each_step: bool = True,
) -> Trace:
    """Multiplicative streaming-PCA trace with loss sin^2(v_t, v1)."""
    _check_unit(v0)
    etas = schedule.etas(horizon)
    res = pca_batch(problem, etas, v0, [seed], "oja", normalize_each_step)
    return Trace(
        losses=res["loss"][0],
        steps=etas,
        noise=res["q"][0],
        aux={"z_dot_v": res["z_dot_v"][0], "znorm2": res["znorm2"][0]},
        meta=_meta(
            "oja", seed, schedule, {"b": problem.b, "rho": problem.rho, "normalize": normalize_each_step}
        ),
    )


def krasulina_stream(
    problem: PcaProblem, schedule: StepSchedule, v0, horizon: int, seed: SeedLike
) -> Trace:
    """Orthogonalized-increment streaming-PCA trace (no per-step renormalization)."""
    _check_unit(v0)
    etas = schedule.etas(horizon)
    res = pca_batch(problem, etas, v0, [seed], "krasulina", normalize_each_step=False)
    return Trace(
        losses=res["loss"][0],
        steps=etas,
        noise=res["q"][0],
        aux={
            "z_dot_v": res["z_dot_v"][0],
            "znorm2": res["znorm2"][0],
            "norm_ratio": res["norm_ratio"][0],
        },
        meta=_meta("krasulina", seed, schedule, {"b": problem.b, "rho": problem.rho}),
    )


def _check_unit(v0) -> None:
    n = np.linalg.norm(np.asarray(v0, dtype=float))
    if abs(n - 1.0) > 1e-9:
        raise ValueError("v0 must be a unit vector")


def sin2(u, v) -> float:
    """1 - cos^2 of the angle between u and v."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    nu = np.dot(u, u)
    nv = np.dot(v, v)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("sin2 is undefined for zero vectors")
    c2 = np.dot(u, v) ** 2 / (nu * nv)
    return float(max(0.0, 1.0 - c2))


def robbins_monro(
    problem: RmProblem, schedule: StepSchedule, x0: float, horizon: int, seed: SeedLike
) -> Trace:
    """Stochastic root-finding trace with loss (X_t - theta)^2.

    The noise channel stores Q_t + 2*eta^2*(P(sqrt(L))^2 + R1^2), the envelope
    under which the contraction recursion holds path-wise; the centered part
    Q_t = -2*eta*(X_{t-1}-theta)*xi_t is exported as aux channel "q"."""
    etas = schedule.etas(horizon)
    res = rm_batch(problem, etas, x0, [seed])
    return Trace(
        losses=res["loss"][0],
        steps=etas,
        noise=res["noise"][0],
        aux={"q": res["q"][0]},
        meta=_meta("robbins_monro", seed, schedule, {"r_lower": problem.r_lower, "r1": problem.r1}),
    )


def ridge_sgd(
    stream: LinearModelStream,
    diam: float,
    lambda_pen: float,
    schedule: StepSchedule,
    theta0,
    horizon: int,
    seed: SeedLike,
    penalty_in_gradient: bool = True,
) -> Trace:
    """Sequential ridge-SGD trace with loss ||theta_t - theta*||^2.

    penalty_in_gradient=True applies the standard regularized gradient step
    theta - eta*(x*(x.theta - y) + lambda*theta); False applies the variant
    where the penalty term enters without a step-size factor."""
    etas = schedule.etas(horizon)
    res = ridge_batch(stream, diam, lambda_pen, etas, theta0, [seed], penalty_in_gradient)
    return Trace(
        losses=res["loss"][0],
        steps=etas,
        meta=_meta(
            "ridge_sgd",
            seed,
            schedule,
            {"diam": diam, "lambda_pen": lambda_pen, "penalty_in_gradient": penalty_in_gradient},
        ),
    )


# ---------------------------------------------------------------------------
# Recursion parameters and the PCA-specific checker
# ---------------------------------------------------------------------------


def sgd_recursion_params(problem: SgdProblem) -> RecursionParams:
    """Constants under which SGD traces satisfy the contraction recursion:
    contraction 2*lam, noise |U| <= 2*B*eta*sqrt(L) + B^2*eta^2."""
    return RecursionParams(c1=2.0 * problem.lam, c2=problem.b**2, c3=2.0 * problem.b)


def pl_recursion_params(problem: SgdProblem) -> RecursionParams:
    """Constants for the PL loss recursion: contraction tau, noise
    |U| <= B*sqrt(mu)*eta*sqrt(L) + (mu*B^2/2)*eta^2."""
    return RecursionParams(
        c1=problem.tau, c2=0.5 * problem.mu * problem.b**2, c3=problem.b * math.sqrt(problem.mu)
    )


def rm_recursion_params(problem: RmProblem) -> RecursionParams:
    """Constants for the root-finding recursion: contraction 2*r_lower,
    noise |U| <= 2*R1*eta*sqrt(L) + 2*R1^2*eta^2 + 2*eta^2*P(sqrt(L))^2."""
    if problem.m_kind == "linear":
        terms_mag = ((2.0 * problem.slope**2, 1.5, 1.0),)
    else:
        terms_mag = (
            (2.0 * problem.cub_a**2, 1.5, 3.0),
            (4.0 * problem.cub_a * problem.cub_b, 1.5, 2.0),
            (2.0 * problem.cub_b**2, 1.5, 1.0),
        )
    return RecursionParams(
        c1=2.0 * problem.r_lower,
        c2=2.0 * problem.r1**2,
        c3=2.0 * problem.r1,
        terms_mag=terms_mag,
    )


def check_pca_recursion(
    trace: Trace, b: float, rho: float, variant: str, tol: float = 1e-10
) -> CheckReport:
    """Path-wise check of the sin^2 recursion for streaming PCA.

    Verifies, with the recorded martingale part Q_t in the noise channel,
    (i)  L_t <= (1-2*rho*eta)L + 2*rho*eta*L^2 + Q_t + coef(eta)*eta^2 and
    (ii) |Q_t| <= 8*B^2*eta*sqrt(L),
    where coef = 4*B^4 for the orthogonalized-increment variant and
    5*B^4 + 2*eta*B^6 for the multiplicative one.  The quadratic mean term
    keeps this outside the scope of the generic contraction checker.
    """
    if trace.noise is None:
        raise ValueError("trace.noise (the martingale part) is required")
    if variant not in ("krasulina", "oja"):
        raise ValueError(f"unknown variant {variant!r}")
    lp = trace.losses[:-1]
    lc = trace.losses[1:]
    eta = trace.steps
    q = trace.noise
    slack = tol * np.maximum(1.0, lp)
    if variant == "krasulina":
        coef = 4.0 * b**4
    else:
        coef = 5.0 * b**4 + 2.0 * eta * b**6
    rec_rhs = (1.0 - 2.0 * rho * eta) * lp + 2.0 * rho * eta * lp**2 + q + coef * eta**2
    mag_rhs = 8.0 * b**2 * eta * np.sqrt(lp)
    return _first_violation(lc, rec_rhs, np.abs(q), mag_rhs, slack)
