"""Tests for the algorithm runners: deterministic contractions, path-wise
recursion checks, batching equivalences, and geometry invariants."""

import math
import tracemalloc

import numpy as np
import pytest

from anytime_iter import (
    PcaProblem,
    RecursionParams,
    RmProblem,
    SgdProblem,
    StepSchedule,
    check_pca_recursion,
    check_recursion,
    krasulina_stream,
    oja_stream,
    pl_recursion_params,
    ridge_sgd,
    rm_recursion_params,
    robbins_monro,
    sgd_pl,
    sgd_recursion_params,
    sgd_strongly_convex,
    sin2,
)
from anytime_iter import _kernel, _reference, algorithms
from anytime_iter.algorithms import pca_batch, ridge_batch, rm_batch, sgd_batch
from anytime_iter.seeding import rep_seed
from anytime_iter.streams import LinearModelStream


SGD = SgdProblem(curvature=(1.0, 1.0), x_star=(0.0, 0.0), radius=0.5, b_noise=0.5)
PCA = PcaProblem(eigs=(2.0, 1.0))


def warm_v0(problem, direction=(0.6, 0.8)):
    v = problem.v_star + 0.3 * np.asarray(direction, dtype=float)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# Problem containers
# ---------------------------------------------------------------------------


def test_sgd_problem_derived_constants():
    p = SgdProblem(curvature=(1.0, 4.0), x_star=(0.5, 0.0), radius=1.0, b_noise=0.25)
    assert p.lam == 1.0 and p.mu == 4.0 and p.tau == 2.0
    assert p.b == 4.0 * (1.0 + 0.5) + 0.25


def test_pca_problem_derived_constants():
    assert PCA.b == math.sqrt(3.0)
    assert PCA.rho == 1.0
    assert np.allclose(PCA.cov, np.diag([2.0, 1.0]))
    assert np.allclose(PCA.v_star, [1.0, 0.0])


def test_pca_problem_rotation():
    c, s = math.cos(0.7), math.sin(0.7)
    rot = ((c, -s), (s, c))
    p = PcaProblem(eigs=(2.0, 1.0), rotation=rot)
    r = np.asarray(rot)
    assert np.allclose(p.cov, r @ np.diag([2.0, 1.0]) @ r.T)
    assert np.allclose(p.v_star, r[:, 0])


def test_rm_problem_poly_sq_matches_m_squared():
    p = RmProblem(m_kind="cubic_plus_linear", cub_a=0.5, cub_b=2.0)
    for x in (0.3, 1.7, -2.0):
        l = (x - p.theta) ** 2
        assert math.isclose(p.poly_sq(l), p.m_func(x) ** 2, rel_tol=1e-12)


def test_sin2_values():
    assert sin2([1.0, 0.0], [1.0, 0.0]) == 0.0
    assert math.isclose(sin2([1.0, 0.0], [0.0, 2.0]), 1.0)
    assert math.isclose(sin2([1.0, 1.0], [1.0, 0.0]), 0.5, rel_tol=1e-12)
    with pytest.raises(ValueError):
        sin2([0.0, 0.0], [1.0, 0.0])


# ---------------------------------------------------------------------------
# Deterministic (noiseless) behavior
# ---------------------------------------------------------------------------


def test_sgd_noiseless_contracts_per_coordinate():
    p = SgdProblem(curvature=(1.0, 2.0), x_star=(0.0, 0.0), radius=1.0, b_noise=0.0)
    sch = StepSchedule.inverse_time(1.0, 10.0)
    tr = sgd_strongly_convex(p, sch, (0.5, 0.5), 20, seed=0)
    # x_{t,i} = x_{0,i} * prod (1 - eta_s * a_i), never projected
    etas = sch.etas(20)
    expect = 0.5 * np.prod(1.0 - etas * 1.0), 0.5 * np.prod(1.0 - etas * 2.0)
    assert math.isclose(tr.losses[-1], expect[0] ** 2 + expect[1] ** 2, rel_tol=1e-12)
    assert np.all(tr.noise >= 0.0)  # only the eta^2*||grad||^2 part remains


def test_projection_keeps_iterates_in_ball():
    # Started on the sphere, with noise that pushes outward, SGD is pulled
    # back radially: with x* = 0 the loss is ||x_t||^2, which never exceeds
    # radius^2, and each pulled iterate lies on the sphere.
    p = SgdProblem(curvature=(1.0, 1.0), x_star=(0.0, 0.0), radius=0.5, b_noise=4.0)
    etas = StepSchedule.inverse_time(1.0, 4.0).etas(300)
    seeds = [rep_seed(2, i) for i in range(20)]
    res = sgd_batch(p, etas, (0.5, 0.0), seeds)
    r2 = p.radius**2
    assert res["proj_hits"] > 0
    assert np.all(res["loss_sc"] <= r2 * (1.0 + 1e-12))
    on_sphere = np.abs(res["loss_sc"][:, 1:] - r2) <= 1e-12 * r2
    assert np.count_nonzero(on_sphere) >= res["proj_hits"]
    # a ball the iterates never leave reports no projection
    wide = SgdProblem(curvature=(1.0, 1.0), x_star=(0.0, 0.0), radius=4.0, b_noise=0.5)
    res = sgd_batch(wide, etas, (1.0, 0.0), seeds)
    assert res["proj_hits"] == 0 and np.all(res["loss_sc"] < wide.radius**2)


def test_ridge_noiseless_converges_to_truth():
    stream = LinearModelStream(theta_star=(0.5, -0.25), x_radius=1.0, noise_radius=0.0)
    sch = StepSchedule.inverse_time(2.0 / stream.lambda_min, 32.0)
    tr = ridge_sgd(stream, 2.0, 0.0, sch, (0.0, 0.0), 3000, seed=1)
    assert tr.losses[-1] < 1e-3
    assert tr.losses[-1] < tr.losses[0]


# ---------------------------------------------------------------------------
# Recursion fidelity (path-wise inequality checks)
# ---------------------------------------------------------------------------


def test_sgd_trace_passes_recursion_check():
    b = StepSchedule.inverse_time(1.0 / SGD.lam, 32.0)
    for seed in range(5):
        tr = sgd_strongly_convex(SGD, b, (0.5, 0.0), 1000, seed)
        assert check_recursion(tr, sgd_recursion_params(SGD)).ok


def test_sgd_noise_channel_is_exact_identity():
    sch = StepSchedule.inverse_time(1.0, 32.0)
    tr = sgd_strongly_convex(SGD, sch, (0.5, 0.0), 200, seed=3)
    # whenever the projection is inactive, L_t = (1 - 2*lam*eta)L + U exactly;
    # the projection can only shrink the loss, so <= holds throughout
    lhs = tr.losses[1:]
    rhs = (1.0 - 2.0 * SGD.lam * tr.steps) * tr.losses[:-1] + tr.noise
    assert np.all(lhs <= rhs + 1e-12)


def test_pl_trace_passes_recursion_check():
    # ball chosen large enough that the projection never triggers
    p = SgdProblem(curvature=(1.0, 1.0), x_star=(0.0, 0.0), radius=4.0, b_noise=0.5)
    sch = StepSchedule.inverse_time(2.0 / p.tau, 32.0)
    for seed in range(5):
        tr = sgd_pl(p, sch, (1.0, 0.0), 1000, seed)
        assert tr.meta["proj_hits"] == "0"
        assert check_recursion(tr, pl_recursion_params(p)).ok


def test_rm_linear_trace_passes_recursion_check():
    p = RmProblem(m_kind="linear", slope=1.0)
    sch = StepSchedule.inverse_time(0.5, 1.0)
    for seed in range(5):
        tr = robbins_monro(p, sch, 1.0, 1000, seed)
        assert check_recursion(tr, rm_recursion_params(p)).ok


def test_rm_cubic_trace_passes_recursion_check():
    p = RmProblem(m_kind="cubic_plus_linear", cub_a=0.2, cub_b=1.0)
    sch = StepSchedule.inverse_time(0.25, 4.0)
    for seed in range(5):
        tr = robbins_monro(p, sch, 0.5, 1000, seed)
        assert check_recursion(tr, rm_recursion_params(p)).ok


@pytest.mark.parametrize("variant,runner", [("krasulina", krasulina_stream), ("oja", oja_stream)])
def test_pca_trace_passes_recursion_check(variant, runner):
    sch = StepSchedule.inverse_time(2.0 / PCA.rho, 200.0)
    for seed in range(5):
        tr = runner(PCA, sch, warm_v0(PCA), 1000, seed)
        assert check_pca_recursion(tr, PCA.b, PCA.rho, variant).ok


def test_pca_checker_detects_planted_violation():
    sch = StepSchedule.inverse_time(2.0, 200.0)
    tr = krasulina_stream(PCA, sch, warm_v0(PCA), 100, seed=0)
    losses = tr.losses.copy()
    losses[50] = 1.0  # jump the loss without touching the recorded noise
    from anytime_iter.recursion import Trace

    bad = Trace(losses=losses, steps=tr.steps, noise=tr.noise)
    rep = check_pca_recursion(bad, PCA.b, PCA.rho, "krasulina")
    assert not rep.ok and rep.first_violation.t == 50


# ---------------------------------------------------------------------------
# PCA geometry
# ---------------------------------------------------------------------------


def test_krasulina_update_orthogonal_to_iterate():
    sch = StepSchedule.inverse_time(1.0, 100.0)
    tr = krasulina_stream(PCA, sch, warm_v0(PCA), 200, seed=2)
    # z_t . v_{t-1} = 0 by construction
    assert np.max(np.abs(tr.aux["z_dot_v"])) < 1e-12


def test_krasulina_norm_growth_window():
    sch = StepSchedule.inverse_time(1.0, 100.0)
    tr = krasulina_stream(PCA, sch, warm_v0(PCA), 200, seed=2)
    b4 = PCA.b**4
    ratio = tr.aux["norm_ratio"]
    assert np.all(ratio >= 1.0 - 1e-12)
    assert np.all(ratio <= 1.0 + 4.0 * b4 * tr.steps**2 + 1e-12)


def test_oja_rotation_equivariance():
    # rotating the data rotates the iterates; the sin^2 path is unchanged
    c, s = math.cos(0.3), math.sin(0.3)
    rot = ((c, -s), (s, c))
    base = PcaProblem(eigs=(2.0, 1.0))
    rotated = PcaProblem(eigs=(2.0, 1.0), rotation=rot)
    sch = StepSchedule.inverse_time(1.0, 100.0)
    v0 = warm_v0(base)
    v0_rot = np.asarray(rot) @ v0
    a = oja_stream(base, sch, v0, 300, seed=4)
    b = oja_stream(rotated, sch, v0_rot, 300, seed=4)
    assert np.max(np.abs(a.losses - b.losses)) < 1e-12


def test_oja_normalized_iterates_stay_unit():
    sch = StepSchedule.inverse_time(1.0, 100.0)
    res = pca_batch(PCA, sch.etas(100), warm_v0(PCA), [rep_seed(0, 0)], "oja", True)
    assert math.isclose(float(np.linalg.norm(res["final_v"][0])), 1.0, rel_tol=1e-9)


def test_pca_q_channel_conditionally_centered():
    # E[Q_t | F_{t-1}] = 0: across replications the q channel averages to ~0
    n = 400
    seeds = [rep_seed(99, i) for i in range(n)]
    etas = StepSchedule.inverse_time(1.0, 100.0).etas(50)
    res = pca_batch(PCA, etas, warm_v0(PCA), seeds, "krasulina", False)
    means = res["q"].mean(axis=0)
    scale = 8.0 * PCA.b**2 * etas / math.sqrt(n)
    assert np.all(np.abs(means) <= 4.0 * scale)


# ---------------------------------------------------------------------------
# Batching equivalence and determinism
# ---------------------------------------------------------------------------


ETAS = StepSchedule.inverse_time(1.0, 32.0).etas(60)
# the Q of np.linalg.qr(np.arange(16.0).reshape(4, 4) + 5.0 * np.eye(4)) and
# warm_v0(ROTATED, direction=(0.0, 0.6, 0.8, 0.0)) as literals: LAPACK's QR
# and the BLAS norm give other bytes on other OpenBLAS kernels, and the
# rotated engine pins would follow them
_Q = np.array(
    [
        [float.fromhex(h) for h in row]
        for row in (
            ("-0x1.447781455e970p-2", "0x1.3f2fdfe434a17p-1", "0x1.93ab54c6a58e1p-2",
             "-0x1.314c3d92a9e98p-1"),
            ("-0x1.0392cdd11878ap-2", "-0x1.8fd77fb123a6ep-1", "0x1.6b4d65e5fb65ap-2",
             "-0x1.c9f25c5bfedd2p-2"),
            ("-0x1.0392cdd11878ap-1", "-0x1.04d74b9c3603dp-5", "-0x1.9dc2d07ed017fp-1",
             "-0x1.314c3d92a9e8dp-2"),
            ("-0x1.855c34b9a4b50p-1", "0x1.64f0b84f06962p-6", "0x1.066290b452030p-2",
             "0x1.314c3d92a9e8ep-1"),
        )
    ]
)
ROTATED = PcaProblem(eigs=(2.0, 1.0, 1.0, 0.5), rotation=tuple(map(tuple, _Q)))
V0_ROTATED = np.array(
    [
        float.fromhex(h)
        for h in ("-0x1.755271a768e92p-2", "-0x1.5a5673d14cd11p-4", "-0x1.3a8d0de3518ebp-2",
                  "-0x1.bffc88627de45p-1")
    ]
)
RM = RmProblem(m_kind="cubic_plus_linear", cub_a=0.5, cub_b=1.0)
RIDGE = LinearModelStream(theta_star=(0.5, 0.5), x_radius=1.0, noise_radius=0.5)

# name -> (values drawn per replication and step, run(seeds, **engine kwargs))
ENGINES = {
    "sgd": (2, lambda seeds, **kw: sgd_batch(SGD, ETAS, np.array([0.5, 0.0]), seeds, **kw)),
    "krasulina": (
        2,
        lambda seeds, **kw: pca_batch(PCA, ETAS, warm_v0(PCA), seeds, "krasulina", False, **kw),
    ),
    "oja": (2, lambda seeds, **kw: pca_batch(PCA, ETAS, warm_v0(PCA), seeds, "oja", True, **kw)),
    "krasulina-rotated": (
        4,
        lambda seeds, **kw: pca_batch(ROTATED, ETAS, V0_ROTATED, seeds, "krasulina", False, **kw),
    ),
    "krasulina-normalized-rotated": (
        4,
        lambda seeds, **kw: pca_batch(ROTATED, ETAS, V0_ROTATED, seeds, "krasulina", True, **kw),
    ),
    "oja-rotated": (
        4,
        lambda seeds, **kw: pca_batch(ROTATED, ETAS, V0_ROTATED, seeds, "oja", True, **kw),
    ),
    "rm": (1, lambda seeds, **kw: rm_batch(RM, ETAS, 1.0, seeds, **kw)),
    "ridge": (
        3,
        lambda seeds, **kw: ridge_batch(RIDGE, 2.0, 0.0, ETAS, (0.0, 0.0), seeds, **kw),
    ),
}


def assert_same_arrays(a: dict, b: dict, rows=slice(None)):
    """Every per-replication array of b equals the given rows of a's, bit for bit."""
    for key, arr in b.items():
        if isinstance(arr, np.ndarray):
            assert np.array_equal(a[key][rows], arr), key


def test_batch_matches_single_bitwise():
    # Slices of 1, 50 and 413 replications against one batch of 513: losses
    # and every recorded channel are identical, for every engine, including
    # rotated PCA, where matrix products used to depend on the batch shape.
    seeds = [rep_seed(7, i) for i in range(513)]
    for name, (_, run) in ENGINES.items():
        batch = run(seeds)
        for lo, hi in ((0, 1), (0, 50), (100, 513)):
            assert_same_arrays(batch, run(seeds[lo:hi]), slice(lo, hi))


@pytest.mark.parametrize("name", ["sgd", "krasulina", "oja-rotated", "rm"])
def test_engines_invariant_to_chunk_length(name, monkeypatch):
    # The loss budget sets the steps per streamed chunk; streamed in chunks
    # of 1, 7 and 2048 steps (one chunk for the whole horizon), a recorded
    # run gives identical losses, channels and final iterates.
    _, run = ENGINES[name]
    seeds = [rep_seed(3, i) for i in range(3)]
    monkeypatch.setattr(algorithms, "MIN_ROWS", 1)
    results = []
    for rows in (1, 7, 2048):
        monkeypatch.setattr(algorithms, "LOSS_BUDGET", rows * len(seeds))
        chunks = []
        res = run(seeds, on_chunk=lambda t0, loss: chunks.append(loss.copy()))
        assert max(c.shape[1] for c in chunks) == min(rows, len(ETAS))
        results.append((res, np.concatenate(chunks, axis=1)))
    for res, losses in results[1:]:
        assert_same_arrays(results[0][0], res)
        assert losses.tobytes() == results[0][1].tobytes()


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_engines_invariant_to_pass_slices(name, monkeypatch):
    # The reference chunk methods step and pass over slices of PASS_BUDGET
    # values of each chunk; slices of 1 and 5 steps give what one slice per
    # chunk gives.  The compiled chunks but ridge's build no slices, so the
    # engines run the reference here.
    width, run = ENGINES[name]
    seeds = [rep_seed(8, i) for i in range(3)]
    monkeypatch.setattr(_kernel, "load", lambda: _reference.REFERENCE)
    results = []
    for steps in (1, 5, 2048):
        monkeypatch.setattr(_reference, "PASS_BUDGET", steps * len(seeds) * width)
        results.append(run(seeds))
    for res in results[1:]:
        assert_same_arrays(results[0], res)


def test_sum_last_matches_np_sum_bitwise():
    rng = np.random.default_rng(0)
    for d in range(1, 12):
        for shape in ((1, d), (7, d), (513, d), (3, 5, d)):
            a = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, size=shape)
            a.flat[0] = -0.0
            expect = np.sum(a, axis=-1)
            assert _reference._sum_last(a).tobytes() == expect.tobytes(), shape
            out = np.empty(shape[:-1])
            _reference._sum_last(a, out)
            assert out.tobytes() == expect.tobytes(), shape
            sq = a * a
            expect = np.sum(sq, axis=-1)
            assert _reference._sum_last(sq, squares=True).tobytes() == expect.tobytes(), shape
    zeros = np.full((4, 3), -0.0)
    assert _reference._sum_last(zeros).tobytes() == np.sum(zeros, axis=-1).tobytes()


@pytest.mark.parametrize("name", ["sgd", "krasulina-rotated", "rm", "ridge"])
def test_streamed_losses_match_stored(name, monkeypatch):
    _, run = ENGINES[name]
    seeds = [rep_seed(4, i) for i in range(3)]
    monkeypatch.setattr(algorithms, "MIN_ROWS", 1)
    monkeypatch.setattr(algorithms, "LOSS_BUDGET", 7 * len(seeds))
    monkeypatch.setattr(algorithms, "RIDGE_ROWS", 7)
    key = "loss_sc" if name == "sgd" else "loss"
    stored = run(seeds)[key]
    chunks = []
    res = run(seeds, on_chunk=lambda t0, loss: chunks.append((t0, loss.copy())))
    assert res[key] is None
    starts = [t0 for t0, _ in chunks]
    sizes = [c.shape[1] for _, c in chunks]
    assert starts == [0] + list(np.cumsum(sizes)[:-1]) and max(sizes) == 7
    streamed = np.concatenate([c for _, c in chunks], axis=1)
    assert streamed.tobytes() == stored.tobytes()


# name -> (widths, run(width, seeds, etas, on_chunk)): streamed calls that
# record nothing, as the coverage runs make them
STREAMED = {
    "sgd": ((1, 2, 4, 9), lambda d, seeds, etas, on_chunk: sgd_batch(
        SgdProblem(curvature=(1.0,) * d, x_star=(0.0,) * d, radius=0.5, b_noise=0.5),
        etas, np.zeros(d), seeds, record_channels=False, on_chunk=on_chunk,
    )),
    "krasulina": ((1, 2, 4, 9), lambda p, seeds, etas, on_chunk: pca_batch(
        PcaProblem(eigs=(2.0,) + (1.0,) * (p - 1)),
        etas, np.ones(p), seeds, "krasulina", False, record_channels=False, on_chunk=on_chunk,
    )),
    "rm": ((1,), lambda _, seeds, etas, on_chunk: rm_batch(
        RM, etas, 1.0, seeds, record_channels=False, on_chunk=on_chunk
    )),
}


@pytest.mark.parametrize("name", sorted(STREAMED))
def test_streamed_chunks_are_sized_by_their_loss_buffer(name):
    # a streamed call's reused (n, rows) loss buffer holds LOSS_BUDGET
    # losses, or MIN_ROWS steps of n replications, whatever the width; at
    # width 2, that of every SGD and warm-Krasulina run shipped, the rows
    # are those of the former rule, 2^17 values over n * width
    widths, run = STREAMED[name]
    for width in widths:
        for n in (1, 100, 250, 500, 512):
            rows = max(algorithms.MIN_ROWS, algorithms.LOSS_BUDGET // n)
            if width == 2:
                assert rows == max(128, 2**17 // (2 * n))
            chunks = []
            run(
                width, [(9, i) for i in range(n)], np.full(rows + 3, 0.01),
                lambda t0, loss: chunks.append((t0, loss.shape, (loss.base if t0 else loss).size)),
            )
            assert [c[:2] for c in chunks] == [(0, (n, 1)), (1, (n, rows)), (rows + 1, (n, 3))]
            held = max(size for _, _, size in chunks)
            assert held == n * rows <= max(algorithms.LOSS_BUDGET, n * algorithms.MIN_ROWS)


def test_trace_runner_deterministic():
    sch = StepSchedule.inverse_time(1.0, 32.0)
    a = sgd_strongly_convex(SGD, sch, (0.5, 0.0), 50, seed=1)
    b = sgd_strongly_convex(SGD, sch, (0.5, 0.0), 50, seed=1)
    assert np.array_equal(a.losses, b.losses)


def test_sgd_y_channel_conditionally_centered():
    n = 400
    seeds = [rep_seed(13, i) for i in range(n)]
    etas = StepSchedule.inverse_time(1.0, 32.0).etas(50)
    res = sgd_batch(SGD, etas, np.array([0.5, 0.0]), seeds)
    means = res["y_sc"].mean(axis=0)
    # |Y_t| <= B*sqrt(L) <= B*radius*... use the crude bound B*2*radius
    scale = SGD.b * 2.0 * SGD.radius / math.sqrt(n)
    assert np.all(np.abs(means) <= 4.0 * scale)


# ---------------------------------------------------------------------------
# Ridge variants
# ---------------------------------------------------------------------------


def test_ridge_penalty_flag_changes_dynamics():
    stream = LinearModelStream(theta_star=(0.5, 0.0), x_radius=1.0, noise_radius=0.25)
    sch = StepSchedule.inverse_time(2.0 / stream.lambda_min, 32.0)
    a = ridge_sgd(stream, 2.0, 0.1, sch, (0.0, 0.0), 100, seed=0, penalty_in_gradient=True)
    b = ridge_sgd(stream, 2.0, 0.1, sch, (0.0, 0.0), 100, seed=0, penalty_in_gradient=False)
    assert not np.array_equal(a.losses, b.losses)
    c = ridge_sgd(stream, 2.0, 0.0, sch, (0.0, 0.0), 100, seed=0, penalty_in_gradient=False)
    d = ridge_sgd(stream, 2.0, 0.0, sch, (0.0, 0.0), 100, seed=0, penalty_in_gradient=True)
    # at lambda = 0 the two variants agree up to multiplication order
    assert np.allclose(c.losses, d.losses, rtol=1e-12, atol=1e-15)


def test_ridge_iterates_stay_in_ball():
    stream = LinearModelStream(theta_star=(0.9, 0.0), x_radius=1.0, noise_radius=0.5)
    sch = StepSchedule.inverse_time(2.0 / stream.lambda_min, 32.0)
    tr = ridge_sgd(stream, 1.0, 0.0, sch, (0.0, 0.0), 500, seed=5)
    # loss is ||theta - theta*||^2 with theta confined to the ball of radius 0.5
    assert np.all(np.sqrt(tr.losses) >= 0.9 - 0.5 - 1e-9)


def test_ridge_draws_within_the_draw_budget():
    # 512 replications stream one 2048-step chunk: besides the (512, 2048)
    # loss buffer, the engine holds no draws of its own (the compiled chunk
    # draws inline, the reference's a slice at a time), not the 25 MB of
    # all 512 replications' draws at once
    seeds = [(3, i) for i in range(512)]
    etas = StepSchedule.inverse_time(1.0, 32.0).etas(algorithms.RIDGE_ROWS)
    tracemalloc.start()
    try:
        ridge_batch(RIDGE, 2.0, 0.0, etas, (0.0, 0.0), seeds, on_chunk=lambda t0, loss: None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * algorithms.RIDGE_ROWS * 8 + 2**22, peak


# name -> run(etas, seeds): a recorded call that streams nothing
RECORDED = {
    "sgd": lambda etas, seeds: sgd_batch(SGD, etas, np.array([0.5, 0.0]), seeds),
    "krasulina": lambda etas, seeds: pca_batch(PCA, etas, (0.6, 0.8), seeds, "krasulina", False),
    "rm": lambda etas, seeds: rm_batch(RM, etas, 1.0, seeds),
}


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_reference_memory_does_not_grow_with_the_horizon(name, monkeypatch):
    # a call that streams nothing steps its whole horizon in one chunk
    # call; the reference draws, steps and passes over it one slice of
    # PASS_BUDGET values at a time, so the peak above what the call leaves
    # allocated, its outputs, is the same at four times the horizon (both
    # horizons span two slices or more)
    monkeypatch.setattr(_kernel, "load", lambda: _reference.REFERENCE)
    seeds = [rep_seed(6, i) for i in range(32)]
    transient = []
    for horizon in (1024, 4096):
        etas = StepSchedule.inverse_time(1.0, 32.0).etas(horizon)
        tracemalloc.start()
        try:
            res = RECORDED[name](etas, seeds)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        transient.append(peak - current)
        del res
    assert transient[1] < transient[0] + 2**16, transient


# ---------------------------------------------------------------------------
# Input validation
# ---------------------------------------------------------------------------


def test_v0_must_be_unit():
    sch = StepSchedule.inverse_time(1.0, 100.0)
    with pytest.raises(ValueError):
        oja_stream(PCA, sch, (2.0, 0.0), 10, seed=0)


def test_x0_must_lie_in_ball():
    sch = StepSchedule.inverse_time(1.0, 32.0)
    with pytest.raises(ValueError):
        sgd_strongly_convex(SGD, sch, (1.0, 1.0), 10, seed=0)


@pytest.mark.parametrize(
    "run",
    [
        lambda: sgd_batch(SGD, ETAS, np.zeros(3), [rep_seed(0, 0)]),
        lambda: sgd_batch(SGD, ETAS, np.zeros((1, 2)), [rep_seed(0, 0)]),
        lambda: ridge_batch(RIDGE, 2.0, 0.0, ETAS, (0.0,), [rep_seed(0, 0)]),
        lambda: ridge_batch(RIDGE, 2.0, 0.0, ETAS, (0.0, 0.0, 0.0), [rep_seed(0, 0)]),
    ],
    ids=["sgd-3-vector", "sgd-row-matrix", "ridge-1-vector", "ridge-3-vector"],
)
def test_start_vector_dimension_checked(run):
    with pytest.raises(ValueError, match="must be a vector of dimension 2"):
        run()
