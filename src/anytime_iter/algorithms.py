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
independent of the horizon.
Ridge draws signs, then uniforms, per chunk, so its RIDGE_ROWS is fixed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .boundaries import StepSchedule
from .recursion import CheckReport, RecursionParams, Trace, Violation
from .seeding import SeedLike, rep_generators
from .streams import SQRT3, LinearModelStream, rademacher_batch, sphere_noise_batch

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


def _rows(n: int, width: int) -> int:
    """Steps per chunk for n replications drawing width values per step."""
    return max(MIN_ROWS, DRAW_BUDGET // (n * width))


def _chunks(l0, horizon: int, rows: int, on_chunk):
    """Yield (start, size, out) per chunk of at most rows steps.

    The engine fills out, an (N, size) buffer, with the losses at times
    start+1..start+size; it then goes to on_chunk(start + 1, out).  The
    losses l0 at time 0 go first, as on_chunk(0, l0[:, None]).
    """
    on_chunk(0, l0[:, None])
    buf = np.empty((len(l0), min(rows, horizon)))
    for start in range(0, horizon, rows):
        size = min(rows, horizon - start)
        yield start, size, buf[:, :size]
        on_chunk(start + 1, buf[:, :size])


def _store(loss: np.ndarray):
    """on_chunk that copies each chunk into the (N, T+1) loss matrix."""

    def on_chunk(t0: int, chunk: np.ndarray) -> None:
        loss[:, t0 : t0 + chunk.shape[1]] = chunk

    return on_chunk


# ---------------------------------------------------------------------------
# Problems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SgdProblem:
    """Stochastic quadratic minimization over an origin-centered ball.

    F(x) = 0.5*sum_j curvature[j]*(x[j]-x_star[j])^2 on the ball of the given
    radius; the gradient oracle adds noise uniform on a sphere of radius
    b_noise.  The objective is lam-strongly convex with lam = min(curvature),
    mu-smooth with mu = max(curvature), and satisfies the PL inequality with
    tau = 2*min(curvature).  The oracle bound is
    b = mu*(radius + ||x_star||) + b_noise.
    """

    curvature: Tuple[float, ...]
    x_star: Tuple[float, ...]
    radius: float
    b_noise: float

    def __post_init__(self):
        object.__setattr__(self, "curvature", tuple(float(v) for v in self.curvature))
        object.__setattr__(self, "x_star", tuple(float(v) for v in self.x_star))
        if len(self.curvature) != len(self.x_star):
            raise ValueError("curvature and x_star must have the same dimension")
        if any(c <= 0 for c in self.curvature):
            raise ValueError("curvatures must be positive")
        if self.radius <= 0 or self.b_noise < 0:
            raise ValueError("radius must be positive and b_noise nonnegative")
        if np.linalg.norm(self.x_star) > self.radius + 1e-12:
            raise ValueError("x_star must lie in the projection ball")

    @property
    def dim(self) -> int:
        return len(self.curvature)

    @property
    def lam(self) -> float:
        return min(self.curvature)

    @property
    def mu(self) -> float:
        return max(self.curvature)

    @property
    def tau(self) -> float:
        return 2.0 * min(self.curvature)

    @property
    def b(self) -> float:
        reach = self.radius + float(np.linalg.norm(self.x_star))
        return self.mu * reach + self.b_noise

    def projector(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        n = float(np.linalg.norm(y))
        return y if n <= self.radius else y * (self.radius / n)


@dataclass(frozen=True)
class PcaProblem:
    """Streaming PCA on sign-coordinate data with known covariance.

    Data are Z with Z_j = s_j*sqrt(eigs[j]) (independent signs), optionally
    rotated by an orthogonal matrix; the covariance is then
    R*diag(eigs)*R^T, the principal direction is the first column of R, the
    eigengap is eigs[0]-eigs[1] and ||X|| = sqrt(sum(eigs)) exactly.
    Trailing eigenvalues may be zero (degenerate axis-supported streams).
    """

    eigs: Tuple[float, ...]
    rotation: Optional[Tuple[Tuple[float, ...], ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "eigs", tuple(float(v) for v in self.eigs))
        if self.eigs[0] <= 0 or any(v < 0 for v in self.eigs):
            raise ValueError("eigenvalues must be nonnegative with eigs[0] > 0")
        lam2 = self.eigs[1] if len(self.eigs) > 1 else 0.0
        if not self.eigs[0] > lam2:
            raise ValueError("need a positive eigengap eigs[0] > eigs[1]")
        if self.rotation is not None:
            r = np.asarray(self.rotation, dtype=float)
            if r.shape != (self.dim, self.dim) or not np.allclose(
                r.T @ r, np.eye(self.dim), atol=1e-10
            ):
                raise ValueError("rotation must be orthogonal of matching dimension")
            object.__setattr__(self, "rotation", tuple(tuple(row) for row in r))

    @property
    def dim(self) -> int:
        return len(self.eigs)

    @property
    def b(self) -> float:
        return math.sqrt(sum(self.eigs))

    @property
    def lambda1(self) -> float:
        return self.eigs[0]

    @property
    def lambda2(self) -> float:
        return self.eigs[1] if len(self.eigs) > 1 else 0.0

    @property
    def rho(self) -> float:
        return self.lambda1 - self.lambda2

    @property
    def cov(self) -> np.ndarray:
        d = np.diag(self.eigs)
        if self.rotation is None:
            return d
        r = np.asarray(self.rotation)
        return r @ d @ r.T

    @property
    def v_star(self) -> np.ndarray:
        e1 = np.zeros(self.dim)
        e1[0] = 1.0
        if self.rotation is None:
            return e1
        return np.asarray(self.rotation) @ e1


@dataclass(frozen=True)
class RmProblem:
    """Scalar root finding for M with M(theta) = 0 and M' >= r_lower.

    m_kind "linear": M(x) = slope*(x-theta), r_lower = slope, |M| bounded by
    P(u) = slope*u.  m_kind "cubic_plus_linear": M(x) = cub_a*(x-theta)^3
    + cub_b*(x-theta), r_lower = cub_b, P(u) = cub_a*u^3 + cub_b*u.
    Evaluation noise is uniform with unit variance, bounded by sqrt(3) <= r1.
    """

    m_kind: str = "linear"
    theta: float = 0.0
    slope: float = 1.0
    cub_a: float = 0.0
    cub_b: float = 0.0
    r1: float = SQRT3

    def __post_init__(self):
        if self.m_kind not in ("linear", "cubic_plus_linear"):
            raise ValueError(f"unknown m_kind {self.m_kind!r}")
        if self.m_kind == "linear" and self.slope <= 0:
            raise ValueError("linear m needs a positive slope")
        if self.m_kind == "cubic_plus_linear" and (self.cub_a < 0 or self.cub_b <= 0):
            raise ValueError("cubic m needs cub_a >= 0 and cub_b > 0")
        if self.r1 < SQRT3:
            raise ValueError("r1 must be at least sqrt(3) for unit-variance uniform noise")

    @property
    def r_lower(self) -> float:
        return self.slope if self.m_kind == "linear" else self.cub_b

    @property
    def m_prime_at_root(self) -> float:
        return self.slope if self.m_kind == "linear" else self.cub_b

    def m_func(self, x):
        u = np.asarray(x, dtype=float) - self.theta
        if self.m_kind == "linear":
            out = self.slope * u
        else:
            out = self.cub_a * u**3 + self.cub_b * u
        return out if out.ndim else float(out)

    def poly_sq(self, l):
        """P(sqrt(L))^2 as a function of the loss L = (x-theta)^2."""
        l = np.asarray(l, dtype=float)
        if self.m_kind == "linear":
            out = self.slope**2 * l
        else:
            out = self.cub_a**2 * l**3 + 2.0 * self.cub_a * self.cub_b * l**2 + self.cub_b**2 * l
        return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Batched engines
# ---------------------------------------------------------------------------


def _alloc(shape, record: bool):
    return np.empty(shape) if record else None


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
    gens = rep_generators(seeds)
    a = np.asarray(problem.curvature)
    xs = np.asarray(problem.x_star)
    radius = problem.radius
    mu = problem.mu

    x0 = np.asarray(x0, dtype=float)
    if np.linalg.norm(x0) > radius + 1e-12:
        raise ValueError("x0 must lie in the projection ball")
    x = np.tile(x0, (n, 1))
    diff = x - xs

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

    l0 = np.sum(diff * diff, axis=1)
    for start, size, out in _chunks(l0, horizon, _rows(n, d), on_chunk or _store(loss_sc)):
        eps = sphere_noise_batch(gens, size, d, problem.b_noise)
        for k in range(size):
            t = start + k
            eta = etas[t]
            e = eps[k]
            gradf = a * diff
            gvec = gradf + e
            if record_channels:
                gn2 = np.sum(gvec * gvec, axis=1)
                y1 = -np.sum(e * diff, axis=1)
                y2 = -np.sum(gradf * e, axis=1)
                y_sc[:, t] = y1
                y_pl[:, t] = y2
                gnorm2[:, t] = gn2
                noise_sc[:, t] = 2.0 * eta * y1 + eta * eta * gn2
                noise_pl[:, t] = eta * y2 + 0.5 * mu * eta * eta * gn2
            w = x - eta * gvec
            r2 = np.sum(w * w, axis=1)
            outside = r2 > radius * radius
            if outside.any():
                proj_hits += int(np.count_nonzero(outside))
                w[outside] *= (radius / np.sqrt(r2[outside]))[:, None]
            x = w
            diff = x - xs
            out[:, k] = np.sum(diff * diff, axis=1)
            if record_channels:
                loss_pl[:, t + 1] = 0.5 * np.sum(a * diff * diff, axis=1)
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
    recursion (computable exactly because the covariance is known).
    on_chunk streams "loss" as in sgd_batch.
    """
    if variant not in ("krasulina", "oja"):
        raise ValueError(f"unknown variant {variant!r}")
    n = len(seeds)
    p = problem.dim
    horizon = len(etas)
    gens = rep_generators(seeds)
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
    ones = np.ones(n)

    l0 = np.maximum(0.0, 1.0 - v[:, 0] ** 2 / vn2)
    for start, size, out in _chunks(l0, horizon, _rows(n, p), on_chunk or _store(losses)):
        xs = rademacher_batch(gens, size, p)
        xs *= sq
        for k in range(size):
            t = start + k
            eta = etas[t]
            xk = xs[k]
            y = np.sum(xk * v, axis=1)
            if variant == "krasulina" or record_channels:
                z = y[:, None] * xk - (y * y / vn2)[:, None] * v
            if record_channels:
                v1 = v[:, 0]
                sv = v * eigs
                m_t = 2.0 * eta * v1 * (sv[:, 0] - v1 * np.sum(sv * v, axis=1) / vn2) / vn2
                q_chan[:, t] = m_t - 2.0 * eta * v1 * z[:, 0] / vn2
                zv_chan[:, t] = np.sum(z * v, axis=1)
                znorm2_chan[:, t] = np.sum(z * z, axis=1)
            if variant == "krasulina":
                v = v + eta * z
            else:
                v = v + eta * y[:, None] * xk
            vn2_new = np.sum(v * v, axis=1)
            if record_channels:
                ratio_chan[:, t] = vn2_new / vn2
            if normalize_each_step:
                v = v / np.sqrt(vn2_new)[:, None]
                vn2 = ones
            else:
                vn2 = vn2_new
            out[:, k] = np.maximum(0.0, 1.0 - v[:, 0] ** 2 / vn2)
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
) -> dict:
    """Advance scalar root-finding replications in lock step."""
    n = len(seeds)
    horizon = len(etas)
    gens = rep_generators(seeds)
    x = np.full(n, float(x0))
    losses = np.empty((n, horizon + 1))
    q_chan = _alloc((n, horizon), record_channels)
    noise = _alloc((n, horizon), record_channels)

    l0 = (x - problem.theta) ** 2
    for start, size, out in _chunks(l0, horizon, _rows(n, 1), _store(losses)):
        xi = np.empty((size, n))
        for j, g in enumerate(gens):
            xi[:, j] = g.uniform(-SQRT3, SQRT3, size=size)
        for k in range(size):
            t = start + k
            eta = etas[t]
            dev = x - problem.theta
            y_val = problem.m_func(x) + xi[k]
            if record_channels:
                q_chan[:, t] = -2.0 * eta * dev * xi[k]
                noise[:, t] = q_chan[:, t] + 2.0 * eta * eta * (
                    problem.poly_sq(dev**2) + problem.r1**2
                )
            x = x - eta * y_val
            out[:, k] = (x - problem.theta) ** 2
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
    """Advance ridge-SGD replications in lock step; on_chunk as in sgd_batch."""
    n = len(seeds)
    d = stream.dim
    horizon = len(etas)
    gens = rep_generators(seeds)
    radius = diam / 2.0
    theta_star = np.asarray(stream.theta_star)

    theta0 = np.asarray(theta0, dtype=float)
    if np.linalg.norm(theta0) > radius + 1e-12:
        raise ValueError("theta0 must lie in the domain ball")
    theta = np.tile(theta0, (n, 1))
    losses = None if on_chunk else np.empty((n, horizon + 1))

    l0 = np.sum((theta - theta_star) ** 2, axis=1)
    for start, size, out in _chunks(l0, horizon, RIDGE_ROWS, on_chunk or _store(losses)):
        xc = np.empty((size, n, d))
        yc = np.empty((size, n))
        for j, g in enumerate(gens):
            xj, yj = stream.draw(g, size)
            xc[:, j, :] = xj
            yc[:, j] = yj
        for k in range(size):
            t = start + k
            eta = etas[t]
            xk = xc[k]
            resid = np.sum(xk * theta, axis=1) - yc[k]
            if penalty_in_gradient:
                w = theta - eta * (resid[:, None] * xk + lambda_pen * theta)
            else:
                # verbatim variant: the penalty enters without a step factor
                w = theta - eta * resid[:, None] * xk + lambda_pen * theta
            r2 = np.sum(w * w, axis=1)
            outside = r2 > radius * radius
            if outside.any():
                w[outside] *= (radius / np.sqrt(r2[outside]))[:, None]
            theta = w
            out[:, k] = np.sum((theta - theta_star) ** 2, axis=1)
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
    rec_bad = lc > rec_rhs + slack
    mag_bad = np.abs(q) > mag_rhs + slack
    t_rec = int(np.argmax(rec_bad)) if rec_bad.any() else None
    t_mag = int(np.argmax(mag_bad)) if mag_bad.any() else None
    if t_rec is None and t_mag is None:
        return CheckReport(ok=True)
    if t_mag is None or (t_rec is not None and t_rec <= t_mag):
        t = t_rec
        return CheckReport(
            ok=False,
            first_violation=Violation(t + 1, float(lc[t]), float(rec_rhs[t]), "recursion"),
        )
    t = t_mag
    return CheckReport(
        ok=False,
        first_violation=Violation(t + 1, float(abs(q[t])), float(mag_rhs[t]), "magnitude"),
    )
