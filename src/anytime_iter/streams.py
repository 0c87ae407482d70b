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
numbers do not depend on the batch it runs in.  Given a GeneratorBatch
built with the compiled kernels, a sampler draws the whole chunk in one C
call (_steps.c), which releases the interpreter lock; otherwise it calls
each generator's numpy method in turn, the reference and the fallback.
The C loops call numpy's own exported distribution functions, the ones
these Generator methods call (random_standard_normal,
random_bounded_uint64_fill, random_uniform), with the same arguments and,
per generator, in the same order, and then do the same IEEE operations as
the numpy code here (the sign map, the scale, _onto_sphere), so both paths
give the same bits and leave every generator in the same state.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Tuple

import numpy as np

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


def _sum_last(a: np.ndarray, out=None, squares: bool = False) -> np.ndarray:
    """np.sum(a, axis=-1, out=out), bit for bit.

    numpy adds fewer than 8 terms left to right, starting from +0.0, so
    adding the strided slices a[..., j] gives the same bits and, for a few
    terms, runs several times faster than a reduction along the short last
    axis.  A closing +0.0 turns an all -0.0 sum into +0.0, as numpy does,
    and changes nothing else; squares, which are never -0.0, skip it.
    """
    d = a.shape[-1]
    if not 2 <= d < 8:
        return np.sum(a, axis=-1, out=out)
    if out is None:
        # an array even for 0-d sums, where np.add without out returns a scalar
        out = np.empty(a.shape[:-1], dtype=a.dtype)
    np.add(a[..., 0], a[..., 1], out=out)
    for j in range(2, d):
        np.add(out, a[..., j], out=out)
    return out if squares else np.add(out, 0.0, out=out)


def _onto_sphere(g: np.ndarray, radius: float) -> np.ndarray:
    g *= radius / np.sqrt(_sum_last(g * g, squares=True))[..., None]
    return g


class GeneratorBatch(Sequence):
    """The generators of a batch of replications, in replication order.

    Built with the compiled kernels (a _kernel.StepKernels), it also holds
    the addresses of the generators' bit generators, taken once, and the
    batch samplers draw through them in C; built without, or given a plain
    list of generators, they call the generators one by one.
    """

    def __init__(self, gens, kernels=None):
        self._gens = list(gens)
        self.kernels = kernels
        self.bitgens = None if kernels is None else kernels.bit_generators(self._gens)

    def __len__(self) -> int:
        return len(self._gens)

    def __getitem__(self, j):
        return self._gens[j]


def _kernels(gens):
    return gens.kernels if isinstance(gens, GeneratorBatch) else None


def rademacher_batch(gens, size: int, width: int, scale=None) -> np.ndarray:
    """Signs of shape (size, len(gens), width) whose column j equals
    rademacher_matrix(gens[j], (size, width)), times the (width,) array
    scale when it is given."""
    out = np.empty((size, len(gens), width))
    kernels = _kernels(gens)
    if kernels is not None:
        kernels.signs(out, gens.bitgens, scale)
        return out
    for j, g in enumerate(gens):
        out[:, j, :] = g.integers(0, 2, size=(size, width))
    out *= 2.0
    out -= 1.0
    if scale is not None:
        out *= scale
    return out


def sphere_noise_batch(gens, size: int, width: int, radius: float) -> np.ndarray:
    """Shape (size, len(gens), width); column j equals
    sphere_noise(gens[j], (size, width), radius)."""
    out = np.empty((size, len(gens), width))
    kernels = _kernels(gens)
    if kernels is not None:
        kernels.sphere(out, gens.bitgens, radius)
        return out
    if radius == 0.0:
        return np.zeros_like(out)
    for j, g in enumerate(gens):
        out[:, j, :] = g.standard_normal((size, width))
    return _onto_sphere(out, radius)


def uniform_batch(gens, size: int, radius: float) -> np.ndarray:
    """Shape (size, len(gens)); column j equals
    gens[j].uniform(-radius, radius, size)."""
    out = np.empty((size, len(gens)))
    kernels = _kernels(gens)
    if kernels is not None:
        kernels.uniform(out, gens.bitgens, -radius, radius)
        return out
    for j, g in enumerate(gens):
        out[:, j] = g.uniform(-radius, radius, size=size)
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
