"""Tests for the Monte Carlo harness: coverage runs, determinism across
worker counts, last-iterate exceedance, width tables, the iterated-logarithm
statistic, cold start, and report serialization."""

import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anytime_iter import (
    CoverageConfig,
    PcaProblem,
    RecursionParams,
    RmProblem,
    mc_threshold,
    run_counterexample,
    run_coverage,
    run_last_iterate,
    run_lil,
    run_lil_ensemble,
    run_oja_cold_start,
    width_comparison,
)
from anytime_iter import _kernel, _reference, harness
from anytime_iter._reference import REFERENCE
from anytime_iter.harness import _drive, _quantiles, write_grid_csv, write_report_json
from anytime_iter.seeding import rep_seed


SGD_SPEC = dict(
    curvature=(1.0, 1.0),
    x_star=(0.0, 0.0),
    radius=0.5,
    b_noise=0.5,
    x0=(0.5, 0.0),
)


def small_config(**kw):
    base = dict(
        algorithm="sgd_sc",
        problem=SGD_SPEC,
        delta=0.05,
        n_reps=60,
        horizon=800,
        seed_base=101,
        record_grid=(0, 100, 800),
    )
    base.update(kw)
    return CoverageConfig(**base)


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(algorithm="bogus")
    with pytest.raises(ValueError):
        small_config(delta=1.5)
    with pytest.raises(ValueError):
        small_config(n_reps=0)
    with pytest.raises(ValueError):
        small_config(record_grid=(100, 50))
    with pytest.raises(ValueError):
        small_config(record_grid=(0, 10**9))


@pytest.mark.parametrize(
    "raw,message",
    [
        ({"c1": 2}, None),  # an integer is a number
        ({"c1": 2, "terms_mean": [[1, 0.5, 1]]}, None),
        ({"c1": True}, "c1 must be a finite number, got True"),
        ({"c1": 10**400}, "c1 must be a finite number"),
        ({"c1": 1.0, "terms_mean": [[1.0, 2.0]]}, "terms_mean[0] must be a list of 3"),
        ({"c1": 1.0, "terms_mag": [[1.0, 2.0, "x"]]}, "terms_mag[0][2] must be a finite number"),
        ({"c1": 1.0, "terms_mag": "[]"}, "terms_mag must be a list"),
        ({"c2": 1.0}, "missing required field(s): c1"),
        ({"c1": 1.0, "c4": 1.0, "C1": 1.0}, "unknown key(s) 'c4', 'C1'"),
        ({"c1": -1.0}, "c1 must be positive"),
    ],
)
def test_parse_type_rules(raw, message):
    if message is None:
        (params,) = harness._parse(raw, (RecursionParams,), "cfg")
        assert isinstance(params.c1, float) and params.c1 == 2.0
    else:
        with pytest.raises(harness.SpecError, match=re.escape(f"cfg: {message}")):
            harness._parse(raw, (RecursionParams,), "cfg")


@pytest.mark.parametrize(
    "raw,message",
    [
        ({"eigs": [2, 1], "rotation": None, "v0": [1, 0]}, None),
        ({"eigs": [2, 1], "rotation": [[0, 1], [1, 0]], "v0": "uniform"}, None),
        ({"eigs": [2, 1], "rotation": 3}, "rotation must be a list or null, got 3"),
        ({"eigs": [2, 1], "v0": 0}, "v0 must be a string or a list, got 0"),
        ({"eigs": [2, 1], "v0": "cold"}, "unknown v0 spec 'cold'"),
        ({"eigs": [2, 1], "normalize": 1}, "normalize must be true or false, got 1"),
        ([], "must be a JSON object"),
    ],
)
def test_parse_optional_and_union_fields(raw, message):
    types = harness._PROBLEMS["krasulina"]
    if message is None:
        problem, start = harness._parse(raw, types, "problem")
        assert problem.eigs == (2.0, 1.0) and start.normalize is False
        # oja's start differs only in its default
        _, oja_start = harness._parse(raw, harness._PROBLEMS["oja"], "problem")
        assert oja_start.normalize is True and oja_start.v0 == start.v0
    else:
        with pytest.raises(harness.SpecError, match=re.escape(message)):
            harness._parse(raw, types, "problem")


def test_mc_threshold_formula():
    assert math.isclose(mc_threshold(2.0, 0.05, 100), 0.1 + 3.0 * math.sqrt(0.1 / 100))


# ---------------------------------------------------------------------------
# Coverage
# ---------------------------------------------------------------------------


def test_coverage_no_violations_and_quantile_sanity():
    rep = run_coverage(small_config())
    assert rep.violations == 0 and rep.empirical_rate == 0.0 and rep.passed
    assert rep.first_violation_times == ()
    for t, (q50, q90, q99) in rep.quantiles_at_grid.items():
        assert q50 <= q90 <= q99
    # quantiles sit below the widths at each grid point in a non-violating run
    for (t, qs), w in zip(sorted(rep.quantiles_at_grid.items()), rep.widths_at_grid):
        assert qs[2] <= w


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    # ties and signed zeros, where which copy partition leaves in place shows
    values=st.lists(
        st.one_of(st.sampled_from((0.0, -0.0, 1.0, -1.0, 2.5)), st.floats()),
        min_size=1,
        max_size=40,
    ),
    q=st.one_of(st.just([0.5, 0.9, 0.99]), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5)),
)
@example(values=[3.0], q=[0.5, 0.9, 0.99])
@example(values=[-0.0], q=[0.5, 0.9, 0.99])
@example(values=[1.0, 2.0], q=[0.5, 0.9, 0.99])
@example(values=[0.0, -0.0], q=[0.5, 0.9, 0.99])
@example(values=[-0.0, 0.0], q=[0.5, 0.9, 0.99])
@example(values=[math.inf, math.inf], q=[0.5, 0.9, 0.99])
def test_quantiles_match_numpy_bytes(values, q):
    a = np.array(values)
    with np.errstate(invalid="ignore"):  # inf - inf
        assert _quantiles(a, q).tobytes() == np.quantile(a, q).tobytes()
    assert a.tobytes() == np.array(values).tobytes()  # a is left as it was


def test_coverage_widths_decay_along_grid():
    rep = run_coverage(small_config())
    w = rep.widths_at_grid
    assert all(a >= b for a, b in zip(w, w[1:]))


def test_coverage_noiseless_never_violates():
    spec = dict(SGD_SPEC, b_noise=0.0)
    rep = run_coverage(small_config(problem=spec, n_reps=5))
    assert rep.violations == 0


def test_coverage_shrunken_boundary_violates():
    rep = run_coverage(small_config(boundary_scale=1.0 / 1008.0))
    assert rep.empirical_rate > 0.05
    assert not rep.passed
    assert len(rep.first_violation_times) == rep.violations


def test_coverage_worker_count_invariance():
    # three 512-replication blocks, so the pool has blocks to share; SGD
    # draws normals and PCA signs, each on the pool's threads at once
    pca = dict(eigs=(2.0, 1.0), v0="uniform")
    for algorithm, problem in (("sgd_sc", SGD_SPEC), ("krasulina", pca), ("oja", pca)):
        cfg = small_config(
            algorithm=algorithm, problem=problem, n_reps=1100, horizon=200, record_grid=(0, 100, 200)
        )
        reps = [run_coverage(cfg, threads=k) for k in (0, 2, 3)]
        dicts = [dataclasses.asdict(r) for r in reps]
        for d in dicts:
            d.pop("wall_time")
        assert dicts[0] == dicts[1] == dicts[2], algorithm


@pytest.mark.parametrize("n_reps", [500, 7])
def test_every_worker_gets_a_block(n_reps):
    # 500 replications fit one 512-replication block; with N threads the
    # blocks shrink to ceil(n_reps / N), and the report stays the same
    cfg = small_config(n_reps=n_reps, horizon=200, record_grid=(0, 100, 200))
    reports = [dataclasses.asdict(run_coverage(cfg, threads=k)) for k in (1, 2, 3)]
    for r in reports:
        r.pop("wall_time")
    assert reports[0] == reports[1] == reports[2]
    for threads in (2, 3):
        blocks = []

        def run(lo, hi, on_chunk):
            blocks.append((lo, hi))
            on_chunk(0, np.zeros((hi - lo, 1)))

        _drive(n_reps, run, threads=threads)
        size = math.ceil(n_reps / threads)
        assert sorted(blocks) == [(lo, min(lo + size, n_reps)) for lo in range(0, n_reps, size)]


@pytest.mark.parametrize(
    "n_reps, threads, cores, workers",
    [(10, 64, 4, 4), (2, 3, 4, 2), (600, 3, 2, 2), (600, 2, 8, 2), (10, 1, 4, None), (10, 0, 4, None)],
)
def test_pool_starts_no_more_workers_than_blocks_or_cores(
    n_reps, threads, cores, workers, monkeypatch
):
    # the blocks follow the requested count, the pool the blocks and cores;
    # one worker or fewer runs serially, with no pool
    pools = []

    class Recording(harness.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(harness, "ThreadPoolExecutor", Recording)
    monkeypatch.setattr(harness, "_usable_cores", lambda: cores)
    blocks = []

    def run(lo, hi, on_chunk):
        blocks.append((lo, hi))
        on_chunk(0, np.zeros((hi - lo, 1)))

    _drive(n_reps, run, threads=threads)
    size = min(512, math.ceil(n_reps / threads)) if threads > 1 else 512
    assert sorted(blocks) == [(lo, min(lo + size, n_reps)) for lo in range(0, n_reps, size)]
    assert pools == ([] if workers is None else [workers])


@pytest.mark.parametrize("v0", ["uniform", "warm"])
def test_pca_v0_gives_each_replication_its_own_direction(v0, monkeypatch):
    # one normals call per block, with either kernels, gives replication i
    # the direction its own generator of (seed_base, i, 1) draws, divided
    # by its norm as a numpy sum, not BLAS's
    problem = PcaProblem(eigs=(3.0, 2.0, 1.0, 0.5))
    want = []
    for i in range(5, 12):
        u = np.random.default_rng([20260824, i, 1]).standard_normal(problem.dim)
        u /= np.sqrt(np.sum(u * u))
        if v0 == "warm":
            u = problem.v_star + 0.3 * u
            u /= np.sqrt(np.sum(u * u))
        want.append(u)
    for kernels in {_kernel.load(), REFERENCE}:
        monkeypatch.setattr(_kernel, "load", lambda: kernels)
        got = harness._pca_v0(v0, problem, 20260824, 5, 12)
        assert got.tobytes() == np.stack(want).tobytes()


def test_coverage_krasulina_warm_start():
    cfg = CoverageConfig(
        algorithm="krasulina",
        problem=dict(eigs=(2.0, 1.0), v0="warm"),
        delta=0.05,
        n_reps=40,
        horizon=500,
        seed_base=7,
        record_grid=(0, 500),
    )
    rep = run_coverage(cfg)
    assert rep.violations == 0
    assert math.isclose(rep.confidence_cost, 2.0 * (math.e + 1.0))


def test_coverage_ridge():
    cfg = CoverageConfig(
        algorithm="ridge",
        problem=dict(
            theta_star=(0.5, 0.5),
            x_radius=1.0,
            noise_radius=0.5,
            diam=2.0,
            lambda_pen=0.0,
            theta0=(0.0, 0.0),
        ),
        delta=0.05,
        n_reps=40,
        horizon=500,
        seed_base=7,
    )
    rep = run_coverage(cfg)
    assert rep.violations == 0


def test_coverage_memory_flat_in_horizon():
    # losses are reduced chunk by chunk; only O(horizon) vectors (steps and
    # widths) grow with the horizon, not an (n_reps, horizon) loss matrix.
    # Both horizons are longer than a chunk (327 steps at 200 replications).
    peaks = []
    for horizon in (1000, 8000):
        tracemalloc.start()
        try:
            run_coverage(small_config(n_reps=200, horizon=horizon, record_grid=(0, horizon)))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 2**20, peaks


def test_non_finite_loss_fails_loudly():
    # a NaN compares False against any width, so it would count as covered;
    # the driver raises instead, naming the replication and the time
    def run(lo, hi, on_chunk):
        on_chunk(0, np.zeros((hi - lo, 1)))
        chunk = np.zeros((hi - lo, 5))
        if lo > 0:
            chunk[2, 3] = np.nan
        on_chunk(1, chunk)

    with pytest.raises(FloatingPointError, match=r"replication 514 at t=4"):
        _drive(600, run, grid=(0,), widths=np.ones(6))


# ---------------------------------------------------------------------------
# Last iterate
# ---------------------------------------------------------------------------


def test_last_iterate_exceedance_within_threshold():
    cfg = small_config(delta=0.1, n_reps=200, horizon=500, record_grid=())
    rate, bound = run_last_iterate(cfg, 500)
    assert rate <= 0.1 + 3.0 * math.sqrt(0.1 / 200)
    assert bound == pytest.approx(21.0 * math.log(10.0) / 503.0)


def test_last_iterate_monotone_in_delta():
    cfg1 = small_config(delta=0.05, n_reps=150, horizon=300, record_grid=())
    cfg2 = small_config(delta=0.2, n_reps=150, horizon=300, record_grid=())
    rate1, bound1 = run_last_iterate(cfg1, 300)
    rate2, bound2 = run_last_iterate(cfg2, 300)
    # same trajectories (same seeds); larger delta -> smaller bound -> more exceedances
    assert bound2 < bound1
    assert rate2 >= rate1


def test_last_iterate_rejects_wrong_algorithm():
    cfg = CoverageConfig(
        algorithm="ridge",
        problem=dict(
            theta_star=(0.5,), x_radius=1.0, noise_radius=0.1, diam=2.0, theta0=(0.0,)
        ),
        delta=0.1,
        n_reps=10,
        horizon=100,
        seed_base=1,
    )
    with pytest.raises(ValueError):
        run_last_iterate(cfg, 50)


# ---------------------------------------------------------------------------
# Width comparison
# ---------------------------------------------------------------------------


def test_width_comparison_ratio_formula():
    d = math.exp(-2.0) * (1.0 - 1e-12)
    rows = width_comparison(1.0, 1.0, d, [100, 10**4, 10**6])
    ll = lambda x: math.log(math.log(x))
    for row in rows:
        t = row["t"]
        expect = (1008.0 / 624.0) * (2.0 + 2.0 * ll(t + 9)) / (2.0 + ll(t)) * t / (t + 32.0)
        assert math.isclose(row["ratio"], expect, rel_tol=1e-9)
    # the ratio drifts toward its limit (1008/624)*2 from below
    ratios = [r["ratio"] for r in rows]
    assert ratios == sorted(ratios)
    assert ratios[-1] < 1008.0 / 624.0 * 2.0


# ---------------------------------------------------------------------------
# LIL statistic
# ---------------------------------------------------------------------------


def test_lil_report_structure_and_constant():
    p = RmProblem(m_kind="linear", slope=1.0)
    rep = run_lil(p, 1.0, 1.0, 6, seed=rep_seed(3, 0))
    assert math.isclose(rep.l_const, 1.0 / (4.0 * (1.0 + math.log(8.0))), rel_tol=1e-12)
    # dyadic blocks (2^n, 2^(n+1)] for n = 1..n_blocks; the statistic needs
    # t >= 3, so the first block starts at 3
    assert len(rep.block_stats) == 6
    assert rep.block_stats[0][:2] == (3, 4)
    assert rep.block_stats[-1][:2] == (2**6 + 1, 2**7)
    rm = rep.running_max
    assert all(a <= b for a, b in zip(rm, rm[1:]))
    assert rep.final_max == rm[-1]


def test_lil_ensemble_matches_single():
    p = RmProblem(m_kind="linear", slope=1.0)
    seeds = [rep_seed(3, i) for i in range(3)]
    ens = run_lil_ensemble(p, 1.0, 1.0, 6, seeds)
    for i, seed in enumerate(seeds):
        solo = run_lil(p, 1.0, 1.0, 6, seed)
        assert ens[i].block_stats == solo.block_stats


def test_lil_maxima_invariant_to_chunk_length(monkeypatch):
    # lil_chunk calls of 1, 7 and 8192 steps give identical block maxima;
    # 7-step chunks straddle the dyadic boundaries 8|9, 16|17, 32|33 and 64|65.
    # The cubic M runs the reference's lil_chunk, whose slices of 2 steps
    # cut each chunk again
    seeds = [rep_seed(6, i) for i in range(3)]
    monkeypatch.setattr(_reference, "PASS_BUDGET", 2 * len(seeds))
    for m_kind in ("linear", "cubic_plus_linear"):
        p = RmProblem(m_kind=m_kind, theta=0.5, slope=1.2, cub_a=0.3, cub_b=1.0)
        results = []
        for rows in (1, 7, 8192):
            monkeypatch.setattr(harness, "LIL_STEPS", rows)
            block_max, _ = harness._lil_batch(p, 1.0, 6, seeds, 1.0)
            results.append(block_max.tobytes())
        assert results[0] == results[1] == results[2], m_kind


@pytest.mark.skipif(_kernel.load() is REFERENCE, reason="no C compiler here")
def test_lil_memory_is_independent_of_the_horizon():
    # 2^23 steps for one seed: a step vector alone would take 8 * 2^23
    # bytes; the compiled lil_chunk keeps no vector of the horizon's length
    p = RmProblem(m_kind="linear", slope=1.0)
    tracemalloc.start()
    try:
        harness._lil_batch(p, 1.0, 22, [rep_seed(8, 0)], 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**23, peak


def test_lil_validation():
    p = RmProblem(m_kind="linear", slope=1.0)
    with pytest.raises(ValueError):
        run_lil(p, 2.0, 1.0, 6, seed=0)  # l1 > l2
    with pytest.raises(ValueError):
        run_lil(p, 1.0, 1.0, 30, seed=0)  # horizon overflow guard


# ---------------------------------------------------------------------------
# Cold start
# ---------------------------------------------------------------------------


def test_cold_start_small_run():
    pca = PcaProblem(eigs=(2.0, 1.0, 1.0, 1.0))
    rep = run_oja_cold_start(
        pca, 0.3, c_explore=0.05, c_stable=6.0, horizon=500, n_reps=60, seed_base=21
    )
    assert rep.split_t == math.ceil(0.05 * pca.b**4 / (0.3**6 * pca.rho**2))
    assert rep.hit_rate >= 0.9
    assert 0.0 <= rep.empirical_rate <= 1.0


# ---------------------------------------------------------------------------
# Counterexample
# ---------------------------------------------------------------------------


def test_counterexample_fraction():
    res = run_counterexample(0.1, 1500, 20, seed_base=17)
    assert abs(res["fraction_zero"] - 0.9) < 0.03
    assert res["within_tolerance"]


@pytest.mark.parametrize(
    "args", [(1.5, 10, 10, 1), (-0.1, 10, 10, 1), (0.1, 0, 10, 1), (0.1, 10, 0, 1), (0.1, 10, 10, -1)]
)
def test_counterexample_rejects_its_range(args):
    # (p_one, n_reps, horizon, seed_base): the library rejects what the CLI rejects
    with pytest.raises(harness.SpecError):
        run_counterexample(*args)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_report_json_deterministic_modulo_timing(tmp_path):
    cfg = small_config()
    r1 = run_coverage(cfg)
    r2 = run_coverage(cfg)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_report_json(r1, p1)
    write_report_json(r2, p2)
    d1 = json.loads(p1.read_text())
    d2 = json.loads(p2.read_text())
    assert d1["timing"].keys() == {"wall_time_s"}
    d1.pop("timing")
    d2.pop("timing")
    assert d1 == d2


def test_grid_csv_columns(tmp_path):
    cfg = small_config()
    rep = run_coverage(cfg)
    path = tmp_path / "grid.csv"
    write_grid_csv(rep, cfg.record_grid, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,width,q50,q90,q99"
    assert len(lines) == 1 + len(cfg.record_grid)
    t0 = lines[1].split(",")
    assert float(t0[1]) == rep.widths_at_grid[0]
