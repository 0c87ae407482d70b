"""Seeded synthetic data generators with exactly known constants.

Every generator here is bounded by construction, so the constants (B, rho,
lambda_min, R1, ...) entering the boundaries are exact rather than estimated:

  * PCA data with independent sign coordinates: exact diagonal covariance and
    a deterministic norm sqrt(sum eigs).
  * Gradient oracle for quadratics with noise uniform on a sphere: the noise
    magnitude is exactly b_noise on every draw.
  * Scalar root-finding oracle with uniform, unit-variance additive noise
    (continuous and bounded by sqrt(3)).
  * Linear regression stream with sign-pattern covariates of fixed norm, so
    E[x x^T] = (x_radius^2/d)*I exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .seeding import SeedLike, make_generator

__all__ = [
    "pca_rademacher_stream",
    "quadratic_grad_oracle",
    "rm_oracle",
    "LinearModelStream",
    "SQRT3",
]

SQRT3 = math.sqrt(3.0)


def _indexed_rng(seed: SeedLike, t: int) -> np.random.Generator:
    """Stateless per-index generator: identical (seed, t) -> identical draws."""
    if isinstance(seed, np.random.SeedSequence):
        return make_generator(np.random.SeedSequence(entropy=seed.entropy, spawn_key=(t,)))
    return make_generator(np.random.SeedSequence(entropy=[int(seed), int(t)]))


def rademacher_matrix(rng: np.random.Generator, shape) -> np.ndarray:
    """Independent +-1 entries."""
    return rng.integers(0, 2, size=shape).astype(float) * 2.0 - 1.0


def sphere_noise(rng: np.random.Generator, shape, radius: float) -> np.ndarray:
    """Rows uniform on the sphere of the given radius (last axis = coordinates)."""
    if radius == 0.0:
        return np.zeros(shape)
    return _onto_sphere(rng.standard_normal(shape), radius)


def _onto_sphere(g: np.ndarray, radius: float) -> np.ndarray:
    g *= radius / np.sqrt(np.sum(g * g, axis=-1, keepdims=True))
    return g


def rademacher_batch(gens, size: int, width: int) -> np.ndarray:
    """Signs of shape (size, len(gens), width) whose column j equals
    rademacher_matrix(gens[j], (size, width)), with one call per generator."""
    out = np.empty((size, len(gens), width))
    for j, g in enumerate(gens):
        out[:, j, :] = g.integers(0, 2, size=(size, width))
    out *= 2.0
    out -= 1.0
    return out


def sphere_noise_batch(gens, size: int, width: int, radius: float) -> np.ndarray:
    """Shape (size, len(gens), width); column j equals
    sphere_noise(gens[j], (size, width), radius), with one call per generator."""
    if radius == 0.0:
        return np.zeros((size, len(gens), width))
    out = np.empty((size, len(gens), width))
    for j, g in enumerate(gens):
        out[:, j, :] = g.standard_normal((size, width))
    return _onto_sphere(out, radius)


def pca_rademacher_stream(eigs, t: int, seed: SeedLike) -> np.ndarray:
    """Draw X_t with X_j = s_j*sqrt(eigs[j]), s_j independent signs.

    The covariance is exactly diag(eigs) and ||X_t|| = sqrt(sum(eigs)) on
    every draw, so B and the eigengap are exact.
    """
    eigs = np.asarray(eigs, dtype=float)
    if len(eigs) >= 2 and not eigs[0] > eigs[1] > 0:
        raise ValueError("need eigs[0] > eigs[1] > 0")
    if len(eigs) == 1 and eigs[0] <= 0:
        raise ValueError("leading eigenvalue must be positive")
    rng = _indexed_rng(seed, t)
    return rademacher_matrix(rng, len(eigs)) * np.sqrt(eigs)


def quadratic_grad_oracle(lam: float, b_noise: float, x, seed: SeedLike) -> np.ndarray:
    """Unbiased gradient lam*x + eps for F(x) = (lam/2)*||x||^2, with eps
    uniform on the sphere of radius b_noise; ||g - grad F|| = b_noise exactly."""
    if lam <= 0 or b_noise < 0:
        raise ValueError("lam must be positive and b_noise nonnegative")
    x = np.asarray(x, dtype=float)
    rng = make_generator(seed)
    return lam * x + sphere_noise(rng, x.shape, b_noise)


def _m_func(m_kind: str, x, **kw):
    if m_kind == "linear":
        return kw.get("slope", 1.0) * x
    if m_kind == "cubic_plus_linear":
        return kw["a"] * x**3 + kw["b"] * x
    raise ValueError(f"unknown m_kind {m_kind!r}")


def rm_oracle(m_kind: str, r1: float, x: float, seed: SeedLike, **kw) -> float:
    """Noisy evaluation M(x) + xi with xi uniform on [-sqrt(3), sqrt(3)]:
    centered, unit variance, continuous, and bounded by sqrt(3) <= r1."""
    if r1 < SQRT3:
        raise ValueError("r1 must be at least sqrt(3) for unit-variance uniform noise")
    rng = make_generator(seed)
    xi = rng.uniform(-SQRT3, SQRT3)
    return float(_m_func(m_kind, float(x), **kw) + xi)


@dataclass(frozen=True)
class LinearModelStream:
    """Stream of (y_t, x_t) with y_t = <theta_star, x_t> + xi_t.

    Covariates are sign patterns scaled to norm x_radius, so
    E[x x^T] = (x_radius^2/d)*I exactly (lambda_min = x_radius^2/d); noise is
    uniform on [-noise_radius, noise_radius].  Both are bounded by
    b = max(x_radius, noise_radius).
    """

    theta_star: Tuple[float, ...]
    x_radius: float
    noise_radius: float

    def __post_init__(self):
        object.__setattr__(self, "theta_star", tuple(float(v) for v in self.theta_star))
        if self.x_radius <= 0 or self.noise_radius < 0:
            raise ValueError("x_radius must be positive and noise_radius nonnegative")

    @property
    def dim(self) -> int:
        return len(self.theta_star)

    @property
    def b(self) -> float:
        return max(self.x_radius, self.noise_radius)

    @property
    def lambda_min(self) -> float:
        return self.x_radius**2 / self.dim

    def draw(self, rng: np.random.Generator, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """n covariate rows and responses; draws consume the generator in the
        fixed order (signs, then noise)."""
        x = rademacher_matrix(rng, (n, self.dim)) * (self.x_radius / math.sqrt(self.dim))
        xi = rng.uniform(-self.noise_radius, self.noise_radius, size=n)
        y = x @ np.asarray(self.theta_star) + xi
        return x, y
