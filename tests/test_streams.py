"""Tests for the samplers the engines draw from: exact boundedness claims,
moment checks, and batch draws that match single-generator draws, for the
draws of both kernels, each over the generators its own generators method
returns; the uniforms only the reference draws alone, while the compiled
chunks draw theirs inline (test_kernel compares their bytes)."""

import math

import numpy as np
import pytest

from anytime_iter import LinearModelStream, PcaProblem, RmProblem, SgdProblem, _kernel
from anytime_iter._reference import REFERENCE, _onto_sphere, _uniform
from anytime_iter.seeding import make_generator, rep_seed
from anytime_iter.streams import SQRT3


def each_kernels():
    """The numpy reference, then the compiled kernels where they load."""
    yield REFERENCE
    if _kernel.load() is not REFERENCE:
        yield _kernel.load()


def seeds(n, base=0):
    return [rep_seed(base, i) for i in range(n)]


def signs(kernels, gens, size, width, scale=None):
    out = np.empty((size, len(gens), width))
    kernels.signs(out, gens, scale)
    return out


def sphere(kernels, gens, size, width, radius):
    """Noise uniform on the sphere of the given radius, as the SGD chunks
    draw it: the kernels' normals, then _onto_sphere."""
    out = np.empty((size, len(gens), width))
    kernels.normals(out, gens)
    return _onto_sphere(out, radius)


def uniform(gens, size, radius):
    """The reference's uniforms, as rm_chunk draws them, from its generators."""
    out = np.empty((size, len(gens)))
    _uniform(out, gens, -radius, radius)
    return out


# ---------------------------------------------------------------------------
# PCA stream: signs scaled by sqrt(eigs), as pca_batch draws them
# ---------------------------------------------------------------------------


def pca_draws(kernels, eigs, size, n_gens, base):
    gens = kernels.generators(seeds(n_gens, base))
    return signs(kernels, gens, size, len(eigs), np.sqrt(eigs))


def test_pca_stream_exact_norm_and_support():
    for k in each_kernels():
        eigs = (2.0, 1.0, 0.5)
        x = pca_draws(k, eigs, 20, 3, 7)
        assert np.array_equal(np.abs(x), np.broadcast_to(np.sqrt(eigs), x.shape))
        for row in x.reshape(-1, 3):
            assert math.isclose(float(row @ row), sum(eigs))


def test_pca_stream_empirical_covariance():
    for k in each_kernels():
        eigs = (2.0, 1.0)
        xs = pca_draws(k, eigs, 5000, 4, 11).reshape(-1, 2)
        cov = xs.T @ xs / len(xs)
        assert np.allclose(cov, np.diag(eigs), atol=0.05)


def test_pca_stream_eigengap_validation():
    with pytest.raises(ValueError):
        PcaProblem(eigs=(1.0, 1.0))
    with pytest.raises(ValueError):
        PcaProblem(eigs=(1.0, 2.0))


# ---------------------------------------------------------------------------
# Quadratic gradient oracle: SgdProblem's gradient plus sphere noise, as
# sgd_batch draws it
# ---------------------------------------------------------------------------


def test_quadratic_oracle_noise_norm_exact():
    for k in each_kernels():
        noise = sphere(k, k.generators(seeds(10)), 20, 3, 0.3)
        norms = np.linalg.norm(noise, axis=-1)
        assert np.allclose(norms, 0.3, rtol=1e-12, atol=0.0)


def test_quadratic_oracle_unbiased():
    for k in each_kernels():
        noise = sphere(k, k.generators(seeds(4)), 5000, 2, 1.0).reshape(-1, 2)
        assert np.allclose(noise.mean(axis=0), 0.0, atol=0.03)


def test_quadratic_oracle_validation():
    with pytest.raises(ValueError):
        SgdProblem(curvature=(0.0, 1.0), x_star=(0.0, 0.0), radius=1.0, b_noise=0.5)
    with pytest.raises(ValueError):
        SgdProblem(curvature=(1.0, 1.0), x_star=(0.0, 0.0), radius=1.0, b_noise=-0.5)


# ---------------------------------------------------------------------------
# Root-finding oracle: RmProblem.m_func plus uniform noise, as rm_batch
# draws it
# ---------------------------------------------------------------------------


def test_rm_oracle_bounded_by_sqrt3():
    draws = uniform(REFERENCE.generators(seeds(50)), 20, SQRT3)
    assert np.max(np.abs(draws)) <= SQRT3


def test_rm_oracle_unit_variance():
    draws = uniform(REFERENCE.generators([0]), 10**5, SQRT3)[:, 0]
    assert abs(draws.mean()) < 0.01
    assert abs(draws.var() - 1.0) < 0.01


def test_rm_oracle_rejects_small_radius():
    with pytest.raises(ValueError):
        RmProblem(m_kind="linear", slope=1.0, r1=1.0)


def test_rm_oracle_cubic_mean():
    # at x = 1, theta = 0: M(x) = a + b
    problem = RmProblem(m_kind="cubic_plus_linear", cub_a=0.5, cub_b=2.0)
    assert problem.m_func(1.0) == 2.5
    assert np.array_equal(problem.m_func(np.array([1.0, -1.0])), [2.5, -2.5])


# ---------------------------------------------------------------------------
# Linear model stream
# ---------------------------------------------------------------------------


def test_linear_stream_constants():
    s = LinearModelStream(theta_star=(0.5, 0.5, 0.0), x_radius=2.0, noise_radius=0.5)
    assert s.dim == 3
    assert s.b == 2.0
    assert math.isclose(s.lambda_min, 4.0 / 3.0)


def test_linear_stream_draw_bounds_and_covariance():
    s = LinearModelStream(theta_star=(1.0, -1.0), x_radius=1.0, noise_radius=0.5)
    rng = make_generator(5)
    x, y = s.draw(rng, 20000)
    assert np.allclose(np.linalg.norm(x, axis=1), 1.0)
    resid = y - x @ np.array(s.theta_star)
    assert np.max(np.abs(resid)) <= 0.5 + 1e-12
    cov = x.T @ x / len(x)
    assert np.allclose(cov, 0.5 * np.eye(2), atol=0.02)


def test_linear_stream_deterministic():
    s = LinearModelStream(theta_star=(1.0,), x_radius=1.0, noise_radius=0.1)
    x1, y1 = s.draw(make_generator(3), 10)
    x2, y2 = s.draw(make_generator(3), 10)
    assert np.array_equal(x1, x2) and np.array_equal(y1, y2)


# ---------------------------------------------------------------------------
# Helpers and seeding
# ---------------------------------------------------------------------------


def test_sphere_noise_radius():
    for k in each_kernels():
        # radius 0 draws nothing: an SGD chunk without noise leaves its
        # generator where it was and steps x <- x - 0.1*x exactly
        gens = k.generators([0])
        before = k.states(gens)
        x, loss = np.full((1, 2), 0.5), np.empty((1, 3))
        k.sgd_chunk(x, gens, np.full(3, 0.1), np.ones(2), np.zeros(2), 1.0, 0.0, 0.5, loss)
        assert k.states(gens) == before
        assert np.array_equal(x, np.full((1, 2), ((0.5 - 0.05) - 0.045) - 0.0405))
        pts = sphere(k, gens, 100, 4, 2.5)[:, 0]
        assert np.allclose(np.linalg.norm(pts, axis=1), 2.5)


def test_sign_support():
    for k in each_kernels():
        m = signs(k, k.generators([1]), 50, 3)
        assert set(np.unique(m)) == {-1.0, 1.0}


def test_batch_draws_match_single_generator_draws():
    # the engines draw a chunk for a whole batch; column j must be what
    # generator j alone would have drawn, through the same kernels and
    # through numpy's Generator methods
    for k in each_kernels():
        gens = k.generators(range(3))
        got = signs(k, gens, 5, 4), sphere(k, gens, 6, 2, 0.7)
        for j in range(3):
            alone = k.generators([j])
            assert np.array_equal(got[0][:, j], signs(k, alone, 5, 4)[:, 0])
            assert np.array_equal(got[1][:, j], sphere(k, alone, 6, 2, 0.7)[:, 0])
            g = make_generator(j)
            assert np.array_equal(got[0][:, j], g.integers(0, 2, size=(5, 4)) * 2.0 - 1.0)
            assert np.array_equal(got[1][:, j], _onto_sphere(g.standard_normal((6, 2)), 0.7))
            assert k.states(gens)[j] == g.bit_generator.state
    gens = REFERENCE.generators(range(3))
    got = uniform(gens, 7, SQRT3)
    for j in range(3):
        assert np.array_equal(got[:, j], uniform(REFERENCE.generators([j]), 7, SQRT3)[:, 0])
        assert np.array_equal(got[:, j], make_generator(j).uniform(-SQRT3, SQRT3, 7))


def test_rep_seed_splitting():
    # replication streams are independent of how many replications exist
    a = make_generator(rep_seed(42, 3)).random(5)
    b = make_generator(rep_seed(42, 3)).random(5)
    c = make_generator(rep_seed(42, 4)).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
