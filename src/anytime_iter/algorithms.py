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
come out the same however a stream is cut into chunks, and the kernels size
their own scratch, so a call that streams nothing steps its whole horizon
in one kernel call, and a call that streams its losses through on_chunk
cuts it into chunks whose loss buffer, N rows of the chunk's steps, holds
LOSS_BUDGET values (and at least MIN_ROWS steps): streamed without
record_channels, memory is O(N*chunk), independent of the horizon.  Ridge
draws each chunk's signs before its uniforms, as LinearModelStream.draw
does, so its chunks keep RIDGE_ROWS steps, streamed or not.

Every engine runs one path: _run cuts the horizon into chunks, and per
chunk the engine makes one call to the process's kernels, _kernel.load(),
compiled or the numpy reference (see _kernel), on the generators their
generators(seeds) built from seeds default_rng takes (seeding.SeedLike; the
harness passes (seed_base, i) pairs).  The call draws the chunk, advances
the per-replication state (the iterates, and for PCA the squared norms the
next step divides by) in place, and writes the losses and, with
record_channels, every noise channel in the elementwise order of the
per-step formulas, with transient memory bounded by the chunk whatever the
horizon.  Every output a call returns, its (N, T+1) losses and, recorded,
its (N, T) channels, is carved from one block (_output_block), big enough
for transparent huge pages where one array alone is not, and taken from
the memory of an earlier result once all of that result's arrays are gone
(_Spare).
"""
from __future__ import annotations

import math
import threading
import weakref
from typing import Sequence

import numpy as np

from . import _kernel, _reference
from .boundaries import StepSchedule
from .problems import PcaProblem, RmProblem, SgdProblem
from .recursion import CheckReport, RecursionParams, Trace, _report
from .seeding import SeedLike
from .streams import SQRT3, LinearModelStream

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

# LOSS_BUDGET and MIN_ROWS size the chunks of a call that streams its losses
# to on_chunk only; a call that streams nothing is one chunk
LOSS_BUDGET = 2**16  # losses per streamed chunk across a batch (0.5 MB)
MIN_ROWS = 128  # steps per streamed chunk at least, to amortise one kernel call
RIDGE_ROWS = 2048  # steps per ridge chunk, streamed or not; part of the ridge output


def _rows(n: int, horizon: int, on_chunk) -> int:
    """Steps per chunk for n replications: the whole horizon, one kernel
    call, unless on_chunk streams the losses, whose reused (n, rows) buffer
    then holds LOSS_BUDGET values, or MIN_ROWS steps."""
    if on_chunk is None:
        return max(1, horizon)
    return max(MIN_ROWS, LOSS_BUDGET // n)


# ---------------------------------------------------------------------------
# Batched engines
# ---------------------------------------------------------------------------


def _run(l0, horizon: int, rows: int, on_chunk, losses):
    """Yield (t, out) per chunk of at most rows steps: t is the slice of the
    chunk's step indices, and the engine fills out, an (N, m) array, with
    the losses at times t.start+1..t.stop.

    Without on_chunk, out is a view of the (N, horizon+1) matrix losses,
    whose column 0 is l0, and every engine but ridge_batch passes the whole
    horizon as rows (_rows).  With it, out is a view of a reused chunk buffer
    that goes to on_chunk(t.start + 1, out) once filled; the losses l0 at
    time 0 go first, as on_chunk(0, l0[:, None]).
    """
    if on_chunk is None:
        losses[:, 0] = l0
    else:
        on_chunk(0, l0[:, None])
        buf = np.empty((len(l0), min(rows, horizon)))
    for start in range(0, horizon, rows):
        size = min(rows, horizon - start)
        out = buf[:, :size] if on_chunk else losses[:, start + 1 : start + size + 1]
        yield slice(start, start + size), out
        if on_chunk:
            on_chunk(start + 1, out)


class _Owner:
    """Exposes the first size values of the flat float64 array mem through
    __array_interface__, so that np.asarray(owner) is an array of exactly
    size values whose base is owner, and owner is collected once no array
    of that memory is left."""

    __slots__ = ("__array_interface__", "__weakref__")

    def __init__(self, mem: np.ndarray, size: int):
        self.__array_interface__ = {**mem.__array_interface__, "shape": (size,)}


class _Spare:
    """At most one flat float64 array whose results are all gone, for the
    next engine call's outputs.

    The memory of a block goes back, through a weakref.finalize on its
    owner, only once every array of it has been collected, so memory of a
    live result is never handed out.  Of two spares the larger is kept.
    The spare is taken and given back under a lock, so that calls on
    several threads never share one."""

    def __init__(self):
        self._lock = threading.Lock()
        self._mem = None

    def block(self, size: int) -> np.ndarray:
        """A flat float64 array of size values: the spare when it holds
        that many, else fresh memory."""
        with self._lock:
            mem = self._mem
            if mem is not None and mem.size >= size:
                self._mem = None
            else:
                mem = None
        if mem is None:
            mem = np.empty(size)
        owner = _Owner(mem, size)
        weakref.finalize(owner, self._give_back, mem).atexit = False
        return np.asarray(owner)

    def _give_back(self, mem: np.ndarray) -> None:
        with self._lock:
            if self._mem is None or mem.size > self._mem.size:
                self._mem = mem


_SPARE = _Spare()


def _output_block(n: int, horizon: int, losses: int, channels: int) -> list:
    """losses (n, horizon+1) loss arrays, then channels (n, horizon) channel
    arrays, carved in that order from one flat float64 block, each
    C-contiguous and starting where the one before ends.  numpy asks the
    kernel for transparent huge pages only for allocations of at least
    4 MiB, which a (100, 5000) channel or (100, 5001) loss array alone,
    4.0 MB, misses; one fresh block gets them, where the host grants them,
    and faults in a fraction of the pages, and a block from the spare
    (_SPARE), the memory of an earlier result that is gone, faults in none.
    Every array is a view of the block, so holding one keeps them all
    alive."""
    shapes = [(n, horizon + 1)] * losses + [(n, horizon)] * channels
    if not shapes:
        return []
    block = _SPARE.block(sum(rows * cols for rows, cols in shapes))
    arrays, start = [], 0
    for rows, cols in shapes:
        arrays.append(block[start : start + rows * cols].reshape(rows, cols))
        start += rows * cols
    return arrays


def _check_in_ball(x, radius: float, name: str, dim=None) -> np.ndarray:
    """x as a float array, checked to lie in the ball of the given radius
    and, when dim is given, to be a vector of dim coordinates."""
    x = np.asarray(x, dtype=float)
    if dim is not None and x.shape != (dim,):
        raise ValueError(f"{name} must be a vector of dimension {dim}")
    if np.linalg.norm(x) > radius + 1e-12:
        raise ValueError(f"{name} must lie in the ball of radius {radius}")
    return x


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
    parts of shape (N, T); without it loss_pl is None.  A call carves
    loss_sc, loss_pl and the five channels, those it returns, in that
    order, from one block (_output_block), so holding one keeps them all
    alive, and steps the whole horizon in one kernel call.  With on_chunk,
    loss_sc is None and on_chunk(t0, losses) receives instead each chunk's
    losses at times t0, t0+1, ... in an (N, k) buffer reused afterwards.
    """
    n = len(seeds)
    d = problem.dim
    horizon = len(etas)
    kernels = _kernel.load()
    gens = kernels.generators(seeds)
    a = np.asarray(problem.curvature)
    xs = np.asarray(problem.x_star)
    radius = problem.radius
    half_mu = 0.5 * problem.mu

    x0 = _check_in_ball(x0, radius, "x0", d)
    x = np.tile(x0, (n, 1))
    diff = x - xs

    # loss_sc unless streamed, then loss_pl and the channels if recorded
    losses = (0 if on_chunk else 1) + (1 if record_channels else 0)
    arrays = _output_block(n, horizon, losses, 5 if record_channels else 0)
    loss_sc = None if on_chunk else arrays.pop(0)
    if record_channels:
        loss_pl, *channels = arrays
        loss_pl[:, 0] = 0.5 * np.sum(a * diff * diff, axis=1)
        # column t of loss_pl[:, 1:] and of each channel belongs to step t
        channels = [loss_pl[:, 1:], *channels]
    else:
        loss_pl, channels = None, []
    proj_hits = 0

    l0 = np.sum(diff * diff, axis=1)
    for t, out in _run(l0, horizon, _rows(n, horizon, on_chunk), on_chunk, loss_sc):
        proj_hits += kernels.sgd_chunk(
            x, gens, etas[t], a, xs, radius, problem.b_noise, half_mu, out,
            *[c[:, t] for c in channels],
        )
    noise_sc, noise_pl, y_sc, y_pl, gnorm2 = channels[1:] or (None,) * 5
    return {
        "loss_sc": loss_sc,
        "loss_pl": loss_pl,
        "noise_sc": noise_sc,
        "noise_pl": noise_pl,
        "y_sc": y_sc,
        "y_pl": y_pl,
        "gnorm2": gnorm2,
        "proj_hits": proj_hits,
        "final_x": x,
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
    recursion (computable exactly because the covariance is known).  A
    call carves the (N, T+1) loss and the four (N, T) channels, those it
    returns, in that order, from one block, as sgd_batch does.  on_chunk
    streams "loss" as in sgd_batch.
    """
    if variant not in ("krasulina", "oja"):
        raise ValueError(f"unknown variant {variant!r}")
    n = len(seeds)
    p = problem.dim
    horizon = len(etas)
    kernels = _kernel.load()
    gens = kernels.generators(seeds)
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

    channels = _output_block(n, horizon, 0 if on_chunk else 1, 4 if record_channels else 0)
    losses = None if on_chunk else channels.pop(0)

    l0 = np.maximum(0.0, 1.0 - v[:, 0] ** 2 / vn2)
    krasulina = variant == "krasulina"
    for t, out in _run(l0, horizon, _rows(n, horizon, on_chunk), on_chunk, losses):
        kernels.pca_chunk(
            v, vn2, gens, etas[t], sq, eigs, krasulina, normalize_each_step, out,
            *[c[:, t] for c in channels],
        )
    if rot is not None:
        v = np.sum(v[:, None, :] * rot, axis=-1)
    q_chan, zv_chan, znorm2_chan, ratio_chan = channels or (None,) * 4
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

    The loss is (x_t - theta)^2.  A call carves the (N, T+1) loss and the
    (N, T) channels q and noise, those it returns, in that order, from one
    block, as sgd_batch does.  With on_chunk, loss is None and
    on_chunk(t0, loss) receives each chunk's losses, as in sgd_batch.
    """
    n = len(seeds)
    horizon = len(etas)
    kernels = _kernel.load()
    gens = kernels.generators(seeds)
    channels = _output_block(n, horizon, 0 if on_chunk else 1, 2 if record_channels else 0)
    losses = None if on_chunk else channels.pop(0)

    x = np.full(n, float(x0))
    l0 = (x - problem.theta) ** 2
    for t, out in _run(l0, horizon, _rows(n, horizon, on_chunk), on_chunk, losses):
        kernels.rm_chunk(x, gens, etas[t], problem, SQRT3, out, *[c[:, t] for c in channels])
    q_chan, noise = channels or (None, None)
    return {"loss": losses, "q": q_chan, "noise": noise, "final_x": x}


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
    """Advance ridge-SGD replications in lock step, in chunks of RIDGE_ROWS
    steps (see the module docstring); on_chunk as in sgd_batch."""
    n = len(seeds)
    horizon = len(etas)
    kernels = _kernel.load()
    gens = kernels.generators(seeds)
    radius = diam / 2.0

    theta0 = _check_in_ball(theta0, radius, "theta0", stream.dim)
    losses = None if on_chunk else _output_block(n, horizon, 1, 0)[0]
    theta = np.tile(theta0, (n, 1))
    l0 = np.sum((theta - np.asarray(stream.theta_star)) ** 2, axis=1)
    for t, out in _run(l0, horizon, RIDGE_ROWS, on_chunk, losses):
        kernels.ridge_chunk(
            theta, gens, etas[t], stream, lambda_pen, penalty_in_gradient, radius, out
        )
    return {"loss": losses, "final_theta": theta}


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
    keeps this outside the scope of the generic contraction checker.  Each
    inequality gets the slack tol * max(1, L), and a NaN on either side
    fails it, as in recursion.check_recursion; the process's kernels find
    the first failing step, the compiled ones in one C pass with b^4, b^6,
    8*B^2 and 2*rho formed in Python, and a failing path's report comes
    from the reference's numpy sides (_reference.pca_sides).
    """
    if trace.noise is None:
        raise ValueError("trace.noise (the martingale part) is required")
    if variant not in ("krasulina", "oja"):
        raise ValueError(f"unknown variant {variant!r}")
    path = (trace.losses, trace.steps, trace.noise, tol, b, rho, variant == "krasulina")
    t = _kernel.load().pca_failure(*path)
    return _report(t, _reference.pca_sides, path)
