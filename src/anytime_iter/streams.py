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

The *_batch samplers draw one chunk for a batch of replications; column j
of a batch draw equals what generator j alone draws, so a replication's
numbers do not depend on the batch it runs in.  Each sampler is one call
to the kernels of its GeneratorBatch, compiled or the numpy reference
(_kernel says which, and why both give the same bits); a plain sequence of
generators draws with the reference.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ._reference import REFERENCE, _onto_sphere

__all__ = [
    "rademacher_matrix",
    "sphere_noise",
    "rademacher_batch",
    "sphere_noise_batch",
    "uniform_batch",
    "GeneratorBatch",
    "LinearModelStream",
    "SQRT3",
]

SQRT3 = math.sqrt(3.0)


def rademacher_matrix(rng: np.random.Generator, shape) -> np.ndarray:
    """Independent +-1 entries."""
    return rng.integers(0, 2, size=shape).astype(float) * 2.0 - 1.0


def sphere_noise(rng: np.random.Generator, shape, radius: float) -> np.ndarray:
    """Rows uniform on the sphere of the given radius (last axis = coordinates)."""
    if radius == 0.0:
        return np.zeros(shape)
    return _onto_sphere(rng.standard_normal(shape), radius)


class GeneratorBatch(Sequence):
    """The generators of a batch of replications, in replication order, and
    the kernels (a _kernel.load() result) the batch samplers draw with;
    bitgens holds what those kernels take of the generators once per batch
    (the compiled draws' bit generator addresses, or None)."""

    def __init__(self, gens, kernels=REFERENCE):
        self._gens = list(gens)
        self.kernels = kernels
        self.bitgens = kernels.bit_generators(self._gens)

    def __len__(self) -> int:
        return len(self._gens)

    def __getitem__(self, j):
        return self._gens[j]


def _batch(gens) -> GeneratorBatch:
    """gens, or a GeneratorBatch of the plain sequence gens with the reference."""
    return gens if isinstance(gens, GeneratorBatch) else GeneratorBatch(gens)


def rademacher_batch(gens, size: int, width: int, scale=None) -> np.ndarray:
    """Signs of shape (size, len(gens), width) whose column j equals
    rademacher_matrix(gens[j], (size, width)), times the (width,) array
    scale when it is given."""
    gens = _batch(gens)
    out = np.empty((size, len(gens), width))
    gens.kernels.signs(out, gens, scale)
    return out


def sphere_noise_batch(gens, size: int, width: int, radius: float) -> np.ndarray:
    """Shape (size, len(gens), width); column j equals
    sphere_noise(gens[j], (size, width), radius)."""
    gens = _batch(gens)
    out = np.empty((size, len(gens), width))
    gens.kernels.sphere(out, gens, radius)
    return out


def uniform_batch(gens, size: int, radius: float) -> np.ndarray:
    """Shape (size, len(gens)); column j equals
    gens[j].uniform(-radius, radius, size)."""
    gens = _batch(gens)
    out = np.empty((size, len(gens)))
    gens.kernels.uniform(out, gens, -radius, radius)
    return out


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
