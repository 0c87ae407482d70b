"""The compiled kernels against the numpy reference they override.

Every kernel call, every engine array and every drawn chunk must come out
byte for byte the same with _kernel.StepKernels and with
_reference.REFERENCE, with the generators left in the same state; the
loader must fall back to the reference with one note when the library
cannot be built or numpy's distribution functions cannot be found, and
threads that start engines at once must share one build.  Tests choose the
reference for the engines by patching _kernel.load.
"""

import inspect
import json
import math
import os
import re
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_algorithms
import test_cli
import test_golden
import test_streams
from anytime_iter import _kernel, _reference, algorithms
from anytime_iter._kernel import StepKernels
from anytime_iter._reference import REFERENCE, Reference
from anytime_iter.algorithms import PcaProblem, RmProblem, SgdProblem
from anytime_iter.algorithms import pca_batch, ridge_batch, rm_batch, sgd_batch
from anytime_iter.boundaries import StepSchedule
from anytime_iter.harness import _lil_batch
from anytime_iter.seeding import rep_generators, rep_seed
from anytime_iter.streams import (
    GeneratorBatch,
    LinearModelStream,
    rademacher_batch,
    sphere_noise_batch,
    uniform_batch,
)
from test_algorithms import ENGINES

needs_kernel = pytest.mark.skipif(_kernel.load() is REFERENCE, reason="no C compiler here")


def reference_load(width=1):
    return REFERENCE


HORIZON = 90
ETAS = StepSchedule.inverse_time(1.0, 4.0).etas(HORIZON)


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def _sgd_case(d):
    # sphere noise of radius 2 around a ball of radius 0.5: the projection
    # is hit on most steps
    curvature = tuple(0.5 + 0.25 * j for j in range(d))
    x_star = (0.1,) + (0.0,) * (d - 1)
    problem = SgdProblem(curvature=curvature, x_star=x_star, radius=0.5, b_noise=2.0)
    x0 = 0.5 * _unit(np.arange(1.0, d + 1.0))
    return d, lambda seeds, **kw: sgd_batch(problem, ETAS, x0, seeds, **kw)


def _pca_case(p, variant, normalize, rotated):
    eigs = tuple(float(p - j) for j in range(p))
    rotation = None
    if rotated:
        q = np.linalg.qr(np.arange(float(p * p)).reshape(p, p) + 3.0 * np.eye(p))[0]
        rotation = tuple(map(tuple, q))
    problem = PcaProblem(eigs=eigs, rotation=rotation)
    v0 = _unit(problem.v_star + 0.4 * _unit(np.linspace(-1.0, 1.0, p)))
    return p, lambda seeds, **kw: pca_batch(problem, ETAS, v0, seeds, variant, normalize, **kw)


def _ridge_case(d, penalty_in_gradient):
    theta_star = (0.5,) + (-0.25,) * (d - 1)
    stream = LinearModelStream(theta_star=theta_star, x_radius=1.0, noise_radius=0.5)
    theta0 = np.zeros(d)
    return d + 1, lambda seeds, **kw: ridge_batch(
        stream, 1.5, 0.1, ETAS, theta0, seeds, penalty_in_gradient, **kw
    )


RM_LINEAR = RmProblem(m_kind="linear", theta=-0.3, slope=1.3)

# name -> (values drawn per replication and step, run(seeds, **engine keywords))
CASES = dict(ENGINES)
CASES.update({f"sgd-d{d}": _sgd_case(d) for d in range(1, 8)})
CASES.update(
    {
        f"{variant}-p{p}{'-normalized' if normalize else ''}{'-rotated' if rotated else ''}": (
            _pca_case(p, variant, normalize, rotated)
        )
        for p in range(1, 8)
        for variant in ("krasulina", "oja")
        for normalize in (False, True)
        for rotated in (False, True)
    }
)
CASES["rm-linear-shifted"] = (1, lambda seeds, **kw: rm_batch(RM_LINEAR, ETAS, 1.0, seeds, **kw))
CASES.update(
    {
        f"ridge-d{d}{'' if pig else '-penalty-outside'}": _ridge_case(d, pig)
        for d in (1, 2, 5, 7)
        for pig in (True, False)
    }
)


def as_bytes(res: dict) -> dict:
    return {
        k: (v.dtype.str, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v
        for k, v in res.items()
    }


def streamed_bytes(run, seeds) -> tuple:
    """The engine's result and the (t0, shape, bytes) of every chunk it
    streams to on_chunk; sgd_batch, pca_batch and rm_batch record their
    channels as well, by default."""
    chunks = []
    res = run(seeds, on_chunk=lambda t0, a: chunks.append((t0, a.shape, a.tobytes())))
    return as_bytes(res), chunks


@needs_kernel
@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(n_reps=st.integers(1, 9), chunk=st.integers(1, 128), slice_steps=st.integers(1, 40))
def test_kernel_matches_numpy_loop_bytes(name, n_reps, chunk, slice_steps):
    # whole engine runs, so the shared chunk and slice loop is checked along
    # with the kernels it calls
    width, run = CASES[name]
    seeds = [rep_seed(31, i) for i in range(n_reps)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algorithms, "MIN_ROWS", 1)
        mp.setattr(algorithms, "DRAW_BUDGET", chunk * n_reps * width)
        mp.setattr(algorithms, "RIDGE_ROWS", chunk)
        mp.setattr(_reference, "PASS_BUDGET", slice_steps * n_reps * width)
        compiled = as_bytes(run(seeds)), streamed_bytes(run, seeds)
        mp.setattr(_kernel, "load", reference_load)
        reference = as_bytes(run(seeds)), streamed_bytes(run, seeds)
    assert compiled == reference


# ---------------------------------------------------------------------------
# Call by call: each StepKernels method against the Reference method
# ---------------------------------------------------------------------------

CALLS = settings(max_examples=100, deadline=None, derandomize=True, database=None)
# replications, coordinates, the steps of one or two consecutive chunks, and
# the columns of the wider output arrays before and after the (n, m) slices
# the chunks write
SHAPES = st.tuples(
    st.integers(1, 9),
    st.integers(1, 7),
    st.lists(st.integers(1, 300), min_size=1, max_size=2),
    st.integers(0, 3),
    st.integers(0, 3),
)
SEEDS = st.integers(0, 2**32 - 1)


def outputs(n: int, m: int, lo: int, extra: int, count: int) -> np.ndarray:
    """count (n, lo+m+extra) arrays, stacked, of which the kernels write the
    column slices lo:lo+m; the sentinel shows writes outside them."""
    return np.full((count, n, lo + m + extra), -1.5)


def same_bytes(build, call, seeds=()) -> None:
    """call(kernels, gens, arrays) changes the arrays build() returns, draws
    from gens, a GeneratorBatch of the seeds' generators, and returns a
    value; all must come out the same with the compiled kernels and with the
    reference, byte for byte, and every generator must be left in the same
    state, with the same next draw."""
    got = []
    for kernels in (_kernel.load(), REFERENCE):
        arrays = build()
        gens = GeneratorBatch(rep_generators(seeds), kernels)
        ret = call(kernels, gens, arrays)
        states = [g.bit_generator.state for g in gens]
        written = {k: a.tobytes() for k, a in arrays.items()}
        got.append((ret, written, states, [g.random() for g in gens]))
    assert got[0] == got[1]


def chunk_slices(chunks, lo: int):
    """(steps, columns) of each consecutive chunk: the slice of the step
    sizes and the slice of the output columns it writes."""
    start = 0
    for m in chunks:
        yield slice(start, start + m), slice(lo + start, lo + start + m)
        start += m


@needs_kernel
@CALLS
@given(
    shape=SHAPES,
    record=st.booleans(),
    b_noise=st.sampled_from((0.0, 0.5, 2.0)),
    radius=st.sampled_from((0.05, 1.0, 4.0)),
    zero=st.booleans(),
    seed=SEEDS,
)
def test_sgd_calls_match_reference_bytes(shape, record, b_noise, radius, zero, seed):
    # b_noise 0 draws nothing; a ball of radius 0.05 projects most steps
    n, d, chunks, lo, extra = shape
    total = sum(chunks)

    def build():
        rng = np.random.default_rng(seed)
        xs = rng.uniform(-0.5, 0.5, d)
        state = rng.uniform(-1.0, 1.0, (n, d))
        if zero:
            # replication 0 starts at x*, from signed zeros
            xs[0] = 0.0
            state[0] = xs
            state[0, 0] = -0.0
        return dict(
            state=state, etas=rng.uniform(0.01, 1.0, total), a=rng.uniform(0.5, 2.0, d),
            xs=xs, loss=outputs(n, total, lo, extra, 1)[0],
            loss_pl=outputs(n, total, lo + 1, extra, 1)[0],
            channels=outputs(n, total, lo, extra, 5),
        )

    def call(k, gens, a):
        hits = []
        for steps, t in chunk_slices(chunks, lo):
            pl = slice(t.start + 1, t.stop + 1)
            channels = [a["loss_pl"][:, pl], *(c[:, t] for c in a["channels"])]
            hits.append(k.sgd_chunk(
                a["state"], gens, a["etas"][steps], a["a"], a["xs"], radius, b_noise, 0.75,
                a["loss"][:, t], *(channels if record else ()),
            ))
        if b_noise == 0.0:
            assert [g.bit_generator.state for g in gens] == untouched
        return hits

    seeds = [rep_seed(seed, i) for i in range(n)]
    untouched = [g.bit_generator.state for g in rep_generators(seeds)]
    same_bytes(build, call, seeds)


@needs_kernel
@CALLS
@given(
    shape=SHAPES,
    krasulina=st.booleans(),
    normalize=st.booleans(),
    record=st.booleans(),
    zero=st.booleans(),
    seed=SEEDS,
)
def test_pca_calls_match_reference_bytes(shape, krasulina, normalize, record, zero, seed):
    n, p, chunks, lo, extra = shape
    total = sum(chunks)

    def build():
        rng = np.random.default_rng(seed)
        eigs = np.sort(rng.uniform(0.5, 3.0, p))[::-1].copy()
        if zero:
            eigs[-1] = 0.0  # the last coordinate of every draw is a signed zero
        state = rng.standard_normal((n, p))
        return dict(
            state=state, norms=np.sum(state * state, axis=1), etas=rng.uniform(0.01, 0.5, total),
            eigs=eigs, loss=outputs(n, total, lo, extra, 1)[0],
            channels=outputs(n, total, lo, extra, 4),
        )

    def call(k, gens, a):
        for steps, t in chunk_slices(chunks, lo):
            channels = [c[:, t] for c in a["channels"]] if record else []
            k.pca_chunk(
                a["state"], a["norms"], gens, a["etas"][steps], np.sqrt(a["eigs"]), a["eigs"],
                krasulina, normalize, a["loss"][:, t], *channels,
            )

    same_bytes(build, call, [rep_seed(seed, i) for i in range(n)])


@needs_kernel
@CALLS
@given(
    shape=SHAPES,
    cubic=st.booleans(),
    signed_dev=st.booleans(),
    record=st.booleans(),
    zero=st.booleans(),
    seed=SEEDS,
)
def test_rm_calls_match_reference_bytes(shape, cubic, signed_dev, record, zero, seed):
    # the compiled rm_chunk runs the reference's for the cubic M
    n, _, chunks, lo, extra = shape
    total = sum(chunks)
    rng = np.random.default_rng(seed)
    theta, slope, cub_a, cub_b = rng.uniform(-1.0, 1.0), *rng.uniform(0.2, 1.5, 3)
    radius = rng.uniform(0.5, 2.0)
    if cubic:
        problem = RmProblem(m_kind="cubic_plus_linear", theta=theta, cub_a=cub_a, cub_b=cub_b)
    else:
        problem = RmProblem(m_kind="linear", theta=theta, slope=slope)

    def build():
        rng = np.random.default_rng(seed + 1)
        state = theta + rng.uniform(-1.0, 1.0, n)
        if zero:
            state[0] = theta  # replication 0 starts at theta
        return dict(
            state=state, etas=rng.uniform(0.01, 0.3, total),
            loss=outputs(n, total, lo, extra, 1)[0], channels=outputs(n, total, lo, extra, 2),
        )

    def call(k, gens, a):
        for steps, t in chunk_slices(chunks, lo):
            channels = [c[:, t] for c in a["channels"]] if record else []
            k.rm_chunk(
                a["state"], gens, a["etas"][steps], problem, radius, signed_dev,
                a["loss"][:, t], *channels,
            )

    same_bytes(build, call, [rep_seed(seed, i) for i in range(n)])


@needs_kernel
@CALLS
@given(shape=SHAPES, penalty_in_gradient=st.booleans(), zero=st.booleans(), seed=SEEDS)
def test_ridge_calls_match_reference_bytes(shape, penalty_in_gradient, zero, seed):
    n, d, chunks, _, _ = shape
    m = chunks[0]

    def build():
        rng = np.random.default_rng(seed)
        traj = np.empty((m + 1, n, d))
        traj[0] = rng.uniform(-0.5, 0.5, (n, d))
        xs = rng.choice([-1.0, 1.0], (m, n, d)) / np.sqrt(d)
        ys = rng.uniform(-1.0, 1.0, (m, n))
        if zero:
            traj[0, 0] = 0.0  # replication 0 stays at 0
            xs[:, 0] = -0.0
            ys[:, 0] = 0.0
        return dict(
            traj=traj, xs=xs, ys=ys, etas=rng.uniform(0.01, 1.0, m),
            lam_radius=np.array([rng.uniform(0.0, 0.5), rng.uniform(0.3, 1.5)]),
        )

    def call(k, gens, a):
        lambda_pen, radius = a["lam_radius"].tolist()
        args = (a["traj"], a["xs"], a["ys"], a["etas"])
        k.ridge(*args, lambda_pen, penalty_in_gradient, radius)

    same_bytes(build, call)


# what a deviation may be besides a plain number: each gives a statistic of
# nan, +inf or +0.0, or overflows to +inf
SPECIAL_DEVS = (np.nan, np.inf, -np.inf, 0.0, -0.0, 1e300, -1e300)


@st.composite
def lil_starts(draw):
    """n_blocks, and a first time t0 >= 1 within 40 of a power of two up to
    the horizon 2^(n_blocks+1), so that the chunks cross the boundary between
    two blocks, or leave the last one."""
    n_blocks = draw(st.integers(1, 24))
    e = draw(st.integers(0, n_blocks + 1))
    return n_blocks, max(1, 2**e + draw(st.integers(-40, 40)))


@needs_kernel
@CALLS
@given(
    n=st.integers(1, 9),
    start=lil_starts(),
    chunks=st.lists(st.integers(1, 60), min_size=1, max_size=4),
    extra=st.integers(0, 3),
    specials=st.lists(
        st.tuples(st.integers(0, 8), st.integers(0, 239), st.sampled_from(SPECIAL_DEVS)),
        max_size=6,
    ),
    seed=SEEDS,
)
def test_lil_calls_match_reference_bytes(n, start, chunks, extra, specials, seed):
    n_blocks, t0 = start
    rng = np.random.default_rng(seed)
    devs = rng.standard_normal((n, sum(chunks))) * rng.uniform(0.0, 3.0, (n, 1))
    for i, k, v in specials:
        if i < n and k < devs.shape[1]:
            devs[i, k] = v
    l0 = rng.standard_normal(n)

    def run(k):
        # as rm_batch streams them: the deviations at t = 0 as an (n, 1)
        # view, then each chunk through one reused buffer wider than any chunk
        block_max = np.full((n_blocks, n), -np.inf)
        buf = np.full((n, max(chunks) + extra), -1.5)
        with np.errstate(over="ignore", invalid="ignore"):
            k.lil_max(l0[:, None], 0, block_max)
            lo = 0
            for m in chunks:
                buf[:, :m] = devs[:, lo : lo + m]
                k.lil_max(buf[:, :m], t0 + lo, block_max)
                lo += m
        return block_max.tobytes()

    assert run(_kernel.load()) == run(REFERENCE)


@needs_kernel
def test_compiled_loglog_is_libm_loglog():
    # the blocks start at t = 3; Reference.lil_max takes math.log of
    # math.log, which calls libm's log
    ts = range(3, 2**20 + 1)
    got = np.empty(len(ts))
    _kernel.load()._lib.lil_loglog(got.ctypes.data, ts.start, len(ts))
    want = np.fromiter(map(math.log, map(math.log, ts)), float, len(ts))
    assert got.tobytes() == want.tobytes()


def test_step_kernels_keep_the_reference_interface():
    # StepKernels may only override Reference's methods, with their
    # arguments, so that the engines can call either object
    public = [n for n, f in vars(StepKernels).items() if callable(f) and not n.startswith("_")]
    assert public
    for name in public:
        assert hasattr(Reference, name), name
        assert inspect.signature(getattr(StepKernels, name)) == inspect.signature(
            getattr(Reference, name)
        ), name


# name -> draw(gens, rows, width, radius), one chunk as an engine draws it
SAMPLERS = {
    "sphere": sphere_noise_batch,
    "signs": lambda gens, rows, width, radius: rademacher_batch(gens, rows, width),
    "scaled-signs": lambda gens, rows, width, radius: rademacher_batch(
        gens, rows, width, np.sqrt(np.arange(width, 0.0, -1.0))
    ),
    "uniform": lambda gens, rows, width, radius: uniform_batch(gens, rows, radius),
}


@needs_kernel
@pytest.mark.parametrize("sampler", sorted(SAMPLERS))
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    n_gens=st.integers(1, 9),
    width=st.integers(1, 7),
    radius=st.sampled_from((0.0, 1.5)),
    chunks=st.lists(st.integers(1, 300), min_size=1, max_size=5),
)
def test_compiled_draws_match_numpy_draws(sampler, n_gens, width, radius, chunks):
    # consecutive chunks, so that the state one chunk leaves (PCG64 buffers
    # half of a 64-bit output for the next 32-bit draw) must be numpy's too
    draw = SAMPLERS[sampler]
    seeds = [rep_seed(17, i) for i in range(n_gens)]
    compiled = GeneratorBatch(rep_generators(seeds), _kernel.load())
    reference = rep_generators(seeds)  # a plain list draws with the reference
    for rows in chunks:
        got = draw(compiled, rows, width, radius)
        assert got.tobytes() == draw(reference, rows, width, radius).tobytes()
        for g, h in zip(compiled, reference):
            assert g.bit_generator.state == h.bit_generator.state
    assert [g.random() for g in compiled] == [g.random() for g in reference]


@needs_kernel
def test_steps_source_compiles_without_warnings(tmp_path):
    # -Werror turns any warning in _steps.c into a failed build
    cc = _kernel._default_cc() + ["-Wall", "-Wextra", "-Werror"]
    _kernel._compile(cc, _kernel.SOURCE.read_bytes(), str(tmp_path / "steps.so"))


@needs_kernel
def test_every_engine_takes_the_kernel(monkeypatch):
    # widths above MAX_WIDTH, where np.sum adds pairwise, get the reference
    assert _kernel.load(_kernel.MAX_WIDTH) is _kernel.load()
    assert _kernel.load(_kernel.MAX_WIDTH + 1) is REFERENCE
    widths = []
    monkeypatch.setattr(_kernel, "load", lambda width=1: widths.append(width) or REFERENCE)
    seeds = [rep_seed(1, 0)]
    for name in ("sgd", "krasulina-rotated", "ridge", "rm"):
        ENGINES[name][1](seeds)
    assert widths == [2, 4, 2, 1]
    monkeypatch.undo()
    # the compiled kernels step and record the cubic M with the reference's
    # chunk method, since numpy's u**3 matches neither u*u*u nor libm's pow
    deferred = []
    for name in ("rm_chunk", "rm", "rm_pass"):
        method = getattr(Reference, name)
        monkeypatch.setattr(
            Reference, name, lambda *a, _m=method, _n=name: deferred.append(_n) or _m(*a)
        )
    CASES["rm-linear-shifted"][1](seeds)
    assert deferred == []
    ENGINES["rm"][1](seeds)  # the cubic M
    assert set(deferred) == {"rm_chunk", "rm", "rm_pass"}


class CountingKernels:
    """The kernels' methods, each call counted by name as the engine makes it."""

    def __init__(self, kernels):
        self._kernels = kernels
        self.calls = []

    def __getattr__(self, name):
        method = getattr(self._kernels, name)
        return lambda *args: self.calls.append(name) or method(*args)


@pytest.mark.parametrize("compiled", [True, False])
@pytest.mark.parametrize(
    "engine, method",
    [
        ("sgd", "sgd_chunk"),
        ("krasulina-normalized-rotated", "pca_chunk"),
        ("oja", "pca_chunk"),
        ("rm", "rm_chunk"),
        ("ridge", "ridge_chunk"),
    ],
)
def test_engines_make_one_kernel_call_per_chunk(engine, method, compiled, monkeypatch):
    # 60 steps in chunks of 7: 9 chunks, each one chunk call, with or
    # without recording or streaming, whichever kernels the engines get
    if compiled and _kernel.load() is REFERENCE:
        pytest.skip("no C compiler here")
    width, run = ENGINES[engine]
    seeds = [rep_seed(2, i) for i in range(3)]
    kernels = CountingKernels(_kernel.load() if compiled else REFERENCE)
    monkeypatch.setattr(_kernel, "load", lambda width=1: kernels)
    monkeypatch.setattr(algorithms, "MIN_ROWS", 1)
    monkeypatch.setattr(algorithms, "DRAW_BUDGET", 7 * len(seeds) * width)
    monkeypatch.setattr(algorithms, "RIDGE_ROWS", 7)
    runs = [{}, {"on_chunk": lambda t0, loss: None}]
    if engine != "ridge":  # ridge records no channels
        runs.append({"record_channels": False})
    # ridge draws per generator in numpy, without the kernels' bitgens
    setup = [] if engine == "ridge" else ["bit_generators"]
    for kw in runs:
        kernels.calls.clear()
        run(seeds, **kw)
        assert kernels.calls == setup + [method] * 9, kw


def test_compiled_functions_are_the_bound_ones():
    # every function _steps.c exports has a binding and every binding a
    # function, so no deleted entry point lingers in the library, and the
    # constants both sides size buffers by agree
    source = _kernel.SOURCE.read_text()
    defined = re.findall(r"^(?!static\b|typedef\b)[a-z][\w *]*?\b(\w+)\(", source, re.M)
    assert sorted(defined) == sorted(_kernel._SIGNATURES)
    # the buffers Python sizes for C: coordinate vectors and the PCA signs
    for name in ("MAX_WIDTH", "LANES"):
        assert re.findall(rf"^#define {name} (\d+)$", source, re.M) == [str(getattr(_kernel, name))]


# ---------------------------------------------------------------------------
# The reference checks with the reference kernels
# ---------------------------------------------------------------------------


@pytest.fixture
def numpy_steps(monkeypatch):
    # the engines build their GeneratorBatch from _kernel.load() as well, so
    # this forces the reference draws along with the reference step loops
    monkeypatch.setattr(_kernel, "load", reference_load)
    return monkeypatch


@pytest.mark.parametrize("name", sorted(test_golden.CASES))
def test_report_payload_pinned_on_numpy_path(name, tmp_path, numpy_steps):
    test_golden.test_report_payload_is_pinned(name, tmp_path, numpy_steps)


@pytest.mark.parametrize("rows", [None, 7])
@pytest.mark.parametrize("name", sorted(test_golden.ENGINE_CASES))
def test_engine_outputs_pinned_on_numpy_path(name, rows, numpy_steps):
    test_golden.test_engine_outputs_are_pinned(name, rows, numpy_steps)


def test_batching_invariances_on_numpy_path(numpy_steps):
    test_golden.test_lil_block_maxima_are_pinned()
    test_algorithms.test_batch_matches_single_bitwise()
    for name in ("sgd", "krasulina", "oja-rotated", "rm"):
        with pytest.MonkeyPatch.context() as mp:
            test_algorithms.test_engines_invariant_to_chunk_length(name, mp)
    test_streams.test_batch_draws_match_single_generator_draws()


def test_lil_folds_with_the_kernels_of_the_call(numpy_steps):
    # _lil_batch looks lil_max up through _kernel.load as it folds, so the
    # reference reduces whenever the engines run the reference
    t0s = []
    fold = Reference.lil_max
    numpy_steps.setattr(
        Reference, "lil_max", lambda k, dev, t0, bm: t0s.append(t0) or fold(k, dev, t0, bm)
    )
    _lil_batch(RM_LINEAR, 1.0, 3, [rep_seed(1, 0)], 1.0)
    assert t0s == [0, 1]


SMALL_SGD = dict(test_cli.SGD_CFG, n_reps=4, horizon=20, record_grid=[])
WIDE_SGD = {
    "curvature": [1.0] * 8, "x_star": [0.0] * 8, "radius": 0.5, "b_noise": 0.5,
    "x0": [0.5] + [0.0] * 7,
}
# command -> (config, report file, width of its steps)
REPORTS = {
    "coverage": (SMALL_SGD, "coverage_report.json", 2),
    "coverage-wide": (dict(SMALL_SGD, problem=WIDE_SGD), "coverage_report.json", 8),
    "last-iterate": (dict(SMALL_SGD, t_eval=20), "last_iterate_report.json", 2),
    "lil": (
        {"l1": 1.0, "l2": 1.0, "n_blocks": 3, "n_seeds": 2, "seed_base": 4}, "lil_report.json", 1
    ),
    "oja-cold-start": (
        dict(test_cli.COLD_START_CFG, n_reps=4, horizon=20), "cold_start_report.json", 4
    ),
}


@pytest.mark.parametrize("reference", [False, True])
@pytest.mark.parametrize("name", sorted(REPORTS))
def test_reports_name_their_kernels(name, reference, tmp_path, monkeypatch):
    # timing names the kernels the engines got: the reference for steps
    # wider than MAX_WIDTH, without a compiler or when load is patched
    cfg, report, width = REPORTS[name]
    if reference:
        monkeypatch.setattr(_kernel, "load", reference_load)
    compiled = isinstance(_kernel.load(), StepKernels) and width <= _kernel.MAX_WIDTH
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    command = name.removesuffix("-wide")
    assert test_cli.run([command, "--config", str(path), "--out-dir", str(tmp_path)]) in (0, 1)
    timing = json.loads((tmp_path / report).read_text())["timing"]
    assert timing["kernels"] == ("compiled" if compiled else "reference")


@pytest.mark.filterwarnings("error")
def test_diverging_lil_run_on_numpy_path(tmp_path, capsys, numpy_steps):
    test_cli.test_diverging_lil_run_is_an_internal_error(tmp_path, capsys)


# ---------------------------------------------------------------------------
# Loader
# ---------------------------------------------------------------------------


def _reference_run():
    _, run = CASES["sgd-d3"]
    seeds = [rep_seed(5, i) for i in range(4)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernel, "load", reference_load)
        return run, seeds, as_bytes(run(seeds))


@pytest.mark.parametrize(
    "broken", ["missing-compiler", "failing-compiler", "unwritable-cache", "missing-numpy-symbol"]
)
def test_loader_falls_back_with_one_note(broken, tmp_path, monkeypatch, capsys):
    run, seeds, reference = _reference_run()
    cache, cc, distributions = tmp_path / "cache", None, None
    if broken == "missing-compiler":
        cc = [str(tmp_path / "no-such-cc")]
    elif broken == "failing-compiler":
        cc = [sys.executable, "-c", "raise SystemExit(1)"]
    elif broken == "unwritable-cache":
        (tmp_path / "file").write_text("")
        cache = tmp_path / "file" / "cache"  # a directory under a file cannot be made
    else:
        # a numpy shared object that exports none of the distribution
        # functions: looking them up raises AttributeError
        distributions = np.random._pcg64.__file__
    loader = _kernel.Loader(cache_dir=cache, cc=cc, distributions=distributions)
    monkeypatch.setattr(_kernel, "load", lambda width=1: loader.get())
    capsys.readouterr()
    for _ in range(3):
        assert as_bytes(run(seeds)) == reference
    assert loader.get() is REFERENCE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "compiled step loops unavailable" in err
    if broken in ("missing-compiler", "failing-compiler"):
        assert list(cache.iterdir()) == []  # no partial library left behind


@needs_kernel
def test_threads_share_one_build(tmp_path, monkeypatch):
    run, seeds, reference = _reference_run()
    loader = _kernel.Loader(cache_dir=tmp_path)
    monkeypatch.setattr(_kernel, "load", lambda width=1: loader.get())
    builds = []
    compile_ = _kernel._compile

    def counting_compile(*args):
        builds.append(threading.get_ident())
        compile_(*args)

    monkeypatch.setattr(_kernel, "_compile", counting_compile)
    start = threading.Barrier(4)
    results = [None] * 4

    def work(i):
        start.wait(timeout=30)
        results[i] = as_bytes(run(seeds))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(builds) == 1
    assert [p.suffix for p in tmp_path.iterdir()] == [".so"]
    assert isinstance(loader.get(), StepKernels)
    assert all(r == reference for r in results)


def test_import_builds_nothing(tmp_path):
    # the library is built, and numpy's distribution functions are looked
    # up, on the first engine call, never at import
    code = (
        "import ctypes\n"
        "opened = []\n"
        "class CDLL(ctypes.CDLL):\n"
        "    def __init__(self, name, *args, **kwargs):\n"
        "        opened.append(name)\n"
        "        super().__init__(name, *args, **kwargs)\n"
        "ctypes.CDLL = CDLL\n"
        "import sys, anytime_iter, anytime_iter.cli\n"
        "from anytime_iter import _kernel\n"
        "assert 'subprocess' not in sys.modules, 'subprocess imported'\n"
        "assert _kernel._LOADER._kernels is None\n"
        "assert opened == [], opened\n"
    )
    src = _kernel.SOURCE.parents[1].as_posix()
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.iterdir()) == []
