"""Seeded samplers with exactly known constants, the draws of the engines.

Every sampler here is bounded by construction, so the constants (B, rho,
lambda_min, R1, ...) entering the boundaries are exact rather than estimated:

  * independent signs: scaled by sqrt(eigs), PCA data with exact diagonal
    covariance and a deterministic norm sqrt(sum eigs);
  * noise uniform on a sphere, for SGD gradients: its magnitude is exactly
    the radius on every draw;
  * uniform noise on [-sqrt(3), sqrt(3)], for root finding: centered, unit
    variance, continuous and bounded by sqrt(3);
  * a linear regression stream with sign-pattern covariates of fixed norm,
    so E[x x^T] = (x_radius^2/d)*I exactly.

The engines draw all four inside the chunk methods of the kernels
_kernel.load returns, in numpy or compiled, so that a replication's draws
are what its generator alone draws; LinearModelStream.draw is the
per-generator twin of ridge_chunk's draws, with x.theta* as
np.sum(x * theta*, axis=-1), numpy's fixed order, not a BLAS product.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = ["LinearModelStream", "SQRT3"]

SQRT3 = math.sqrt(3.0)


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
        if not self.theta_star:
            raise ValueError("theta_star must not be empty")
        if self.x_radius <= 0 or self.noise_radius < 0:
            raise ValueError("x_radius must be positive and noise_radius nonnegative")
        if not math.isfinite(self.noise_radius - -self.noise_radius):
            raise ValueError("noise_radius must keep its uniforms' range 2*noise_radius finite")

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
        signs = rng.integers(0, 2, size=(n, self.dim)).astype(float) * 2.0 - 1.0
        x = signs * (self.x_radius / math.sqrt(self.dim))
        xi = rng.uniform(-self.noise_radius, self.noise_radius, size=n)
        y = np.sum(x * np.asarray(self.theta_star), axis=-1) + xi
        return x, y
