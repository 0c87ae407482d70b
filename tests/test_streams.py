"""Tests for the samplers the engines draw from: exact boundedness claims,
moment checks, and batch draws that match single-generator draws."""

import math

import numpy as np
import pytest

from anytime_iter import LinearModelStream, PcaProblem, RmProblem, SgdProblem, _kernel
from anytime_iter.seeding import make_generator, rep_seed
from anytime_iter.streams import (
    SQRT3,
    GeneratorBatch,
    rademacher_batch,
    rademacher_matrix,
    sphere_noise,
    sphere_noise_batch,
    uniform_batch,
)


def generators(n, base=0):
    return [make_generator(rep_seed(base, i)) for i in range(n)]


# ---------------------------------------------------------------------------
# PCA stream: signs scaled by sqrt(eigs), as pca_batch draws them
# ---------------------------------------------------------------------------


def pca_draws(eigs, size, n_gens, base):
    return rademacher_batch(generators(n_gens, base), size, len(eigs)) * np.sqrt(eigs)


def test_pca_stream_exact_norm_and_support():
    eigs = (2.0, 1.0, 0.5)
    x = pca_draws(eigs, 20, 3, 7)
    assert np.array_equal(np.abs(x), np.broadcast_to(np.sqrt(eigs), x.shape))
    for row in x.reshape(-1, 3):
        assert math.isclose(float(row @ row), sum(eigs))


def test_pca_stream_empirical_covariance():
    eigs = (2.0, 1.0)
    xs = pca_draws(eigs, 5000, 4, 11).reshape(-1, 2)
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
    noise = sphere_noise_batch(generators(10), 20, 3, 0.3)
    norms = np.linalg.norm(noise, axis=-1)
    assert np.allclose(norms, 0.3, rtol=1e-12, atol=0.0)


def test_quadratic_oracle_unbiased():
    noise = sphere_noise_batch(generators(4), 5000, 2, 1.0).reshape(-1, 2)
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
    draws = uniform_batch(generators(50), 20, SQRT3)
    assert np.max(np.abs(draws)) <= SQRT3


def test_rm_oracle_unit_variance():
    draws = uniform_batch([make_generator(0)], 10**5, SQRT3)[:, 0]
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
    rng = make_generator(0)
    pts = sphere_noise(rng, (100, 4), 2.5)
    assert np.allclose(np.linalg.norm(pts, axis=1), 2.5)
    assert np.array_equal(sphere_noise(rng, (3, 2), 0.0), np.zeros((3, 2)))


def test_rademacher_matrix_support():
    rng = make_generator(1)
    m = rademacher_matrix(rng, (50, 3))
    assert set(np.unique(m)) <= {-1.0, 1.0}


def test_batch_draws_match_single_generator_draws():
    # the engines draw a chunk for a whole batch, compiled when the kernels
    # load; column j must be what generator j alone would have drawn
    gens = GeneratorBatch([make_generator(s) for s in range(3)], _kernel.load())
    solo = [make_generator(s) for s in range(3)]
    signs = rademacher_batch(gens, 5, 4)
    noise = sphere_noise_batch(gens, 6, 2, 0.7)
    unif = uniform_batch(gens, 7, SQRT3)
    for j, g in enumerate(solo):
        assert np.array_equal(signs[:, j], rademacher_matrix(g, (5, 4)))
        assert np.array_equal(noise[:, j], sphere_noise(g, (6, 2), 0.7))
        assert np.array_equal(unif[:, j], g.uniform(-SQRT3, SQRT3, 7))
    assert not sphere_noise_batch(gens, 2, 2, 0.0).any()


def test_rep_seed_splitting():
    # replication streams are independent of how many replications exist
    a = make_generator(rep_seed(42, 3)).random(5)
    b = make_generator(rep_seed(42, 3)).random(5)
    c = make_generator(rep_seed(42, 4)).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
