"""Problems with exactly known constants, simulated by the algorithms module.

  * SgdProblem: a diagonal quadratic on a ball with sphere-uniform gradient
    noise, whose strong convexity, smoothness, PL and oracle constants are
    exact;
  * PcaProblem: sign-coordinate data with a known covariance and eigengap;
  * RmProblem: a scalar root-finding map with unit-variance uniform noise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .streams import SQRT3

__all__ = ["SgdProblem", "PcaProblem", "RmProblem"]


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
        if not self.curvature or len(self.curvature) != len(self.x_star):
            raise ValueError("curvature and x_star must be nonempty, of the same dimension")
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
        if not self.eigs:
            raise ValueError("eigs must not be empty")
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

    m_func and poly_sq form their powers as products, u*u*u and l*l, not
    with **: numpy's power loops round as the CPU's SIMD dispatch has them,
    which need not be as libm's pow or a product does, while each * rounds
    once, as C's does, so the compiled kernels step M and form its envelope
    with the same bytes on any CPU.
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
            out = self.cub_a * (u * u * u) + self.cub_b * u
        return out if out.ndim else float(out)

    def poly_sq(self, l):
        """P(sqrt(L))^2 as a function of the loss L = (x-theta)^2."""
        l = np.asarray(l, dtype=float)
        if self.m_kind == "linear":
            out = self.slope**2 * l
        else:
            out = (
                self.cub_a**2 * (l * l * l)
                + 2.0 * self.cub_a * self.cub_b * (l * l)
                + self.cub_b**2 * l
            )
        return out if out.ndim else float(out)
