"""Tests for the synthetic data generators: exact boundedness claims,
moment checks, and stateless reproducibility."""

import math

import numpy as np
import pytest

from anytime_iter import (
    LinearModelStream,
    pca_rademacher_stream,
    quadratic_grad_oracle,
    rm_oracle,
)
from anytime_iter.seeding import make_generator, rep_seed
from anytime_iter.streams import (
    SQRT3,
    rademacher_batch,
    rademacher_matrix,
    sphere_noise,
    sphere_noise_batch,
)


# ---------------------------------------------------------------------------
# PCA stream
# ---------------------------------------------------------------------------


def test_pca_stream_exact_norm_and_support():
    eigs = (2.0, 1.0, 0.5)
    for t in range(20):
        x = pca_rademacher_stream(eigs, t, seed=7)
        assert np.allclose(np.abs(x), np.sqrt(eigs))
        assert math.isclose(float(x @ x), sum(eigs))


def test_pca_stream_stateless_indexing():
    a = np.stack([pca_rademacher_stream((2.0, 1.0), t, seed=3) for t in range(40)])
    b = np.stack([pca_rademacher_stream((2.0, 1.0), t, seed=3) for t in range(40)])
    c = np.stack([pca_rademacher_stream((2.0, 1.0), t, seed=4) for t in range(40)])
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_pca_stream_empirical_covariance():
    eigs = (2.0, 1.0)
    xs = np.stack([pca_rademacher_stream(eigs, t, seed=11) for t in range(20000)])
    cov = xs.T @ xs / len(xs)
    assert np.allclose(cov, np.diag(eigs), atol=0.05)


def test_pca_stream_eigengap_validation():
    with pytest.raises(ValueError):
        pca_rademacher_stream((1.0, 1.0), 0, seed=0)
    with pytest.raises(ValueError):
        pca_rademacher_stream((1.0, 2.0), 0, seed=0)


# ---------------------------------------------------------------------------
# Quadratic gradient oracle
# ---------------------------------------------------------------------------


def test_quadratic_oracle_noise_norm_exact():
    x = np.array([1.0, -2.0, 0.5])
    for seed in range(10):
        g = quadratic_grad_oracle(2.0, 0.3, x, seed)
        assert math.isclose(float(np.linalg.norm(g - 2.0 * x)), 0.3, rel_tol=1e-12)


def test_quadratic_oracle_unbiased():
    x = np.array([1.0, 0.0])
    gs = np.stack([quadratic_grad_oracle(1.0, 1.0, x, s) for s in range(20000)])
    assert np.allclose(gs.mean(axis=0), x, atol=0.03)


def test_quadratic_oracle_validation():
    with pytest.raises(ValueError):
        quadratic_grad_oracle(0.0, 0.5, np.zeros(2), 0)


# ---------------------------------------------------------------------------
# Root-finding oracle
# ---------------------------------------------------------------------------


def test_rm_oracle_bounded_by_sqrt3():
    for seed in range(50):
        draw = rm_oracle("linear", SQRT3, 0.0, seed, slope=1.0)
        assert abs(draw) <= SQRT3 + 1e-15


def test_rm_oracle_unit_variance():
    draws = np.array([rm_oracle("linear", SQRT3, 0.0, s, slope=1.0) for s in range(10**5)])
    assert abs(draws.mean()) < 0.01
    assert abs(draws.var() - 1.0) < 0.01


def test_rm_oracle_rejects_small_radius():
    with pytest.raises(ValueError):
        rm_oracle("linear", 1.0, 0.0, 0, slope=1.0)


def test_rm_oracle_cubic_mean():
    # at x = 1, theta = 0: M(x) = a + b
    draws = np.array(
        [rm_oracle("cubic_plus_linear", SQRT3, 1.0, s, a=0.5, b=2.0) for s in range(20000)]
    )
    assert abs(draws.mean() - 2.5) < 0.03


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
    # the engines draw a chunk for a whole batch; column j must be what
    # generator j alone would have drawn
    gens = [make_generator(s) for s in range(3)]
    solo = [make_generator(s) for s in range(3)]
    signs = rademacher_batch(gens, 5, 4)
    noise = sphere_noise_batch(gens, 6, 2, 0.7)
    for j, g in enumerate(solo):
        assert np.array_equal(signs[:, j], rademacher_matrix(g, (5, 4)))
        assert np.array_equal(noise[:, j], sphere_noise(g, (6, 2), 0.7))
    assert not sphere_noise_batch(gens, 2, 2, 0.0).any()


def test_rep_seed_splitting():
    # replication streams are independent of how many replications exist
    a = make_generator(rep_seed(42, 3)).random(5)
    b = make_generator(rep_seed(42, 3)).random(5)
    c = make_generator(rep_seed(42, 4)).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
