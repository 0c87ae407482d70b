"""The compiled step loops and draws against the numpy code they replace.

Every engine array and every drawn chunk must come out byte for byte the
same on both paths, with the generators left in the same state; the loader
must fall back to numpy with one note when the library cannot be built or
numpy's distribution functions cannot be found, and threads that start
engines at once must share one build.  Tests choose the numpy path by
patching _kernel.load.
"""

import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_algorithms
import test_golden
import test_streams
from anytime_iter import _kernel, algorithms
from anytime_iter.algorithms import PcaProblem, RmProblem, SgdProblem
from anytime_iter.algorithms import pca_batch, ridge_batch, rm_batch, sgd_batch
from anytime_iter.boundaries import StepSchedule
from anytime_iter.seeding import rep_generators, rep_seed
from anytime_iter.streams import (
    GeneratorBatch,
    LinearModelStream,
    rademacher_batch,
    sphere_noise_batch,
    uniform_batch,
)
from test_algorithms import ENGINES

needs_kernel = pytest.mark.skipif(_kernel.load() is None, reason="no C compiler here")

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
    return d, lambda seeds: sgd_batch(problem, ETAS, x0, seeds)


def _pca_case(p, variant, normalize, rotated):
    eigs = tuple(float(p - j) for j in range(p))
    rotation = None
    if rotated:
        q = np.linalg.qr(np.arange(float(p * p)).reshape(p, p) + 3.0 * np.eye(p))[0]
        rotation = tuple(map(tuple, q))
    problem = PcaProblem(eigs=eigs, rotation=rotation)
    v0 = _unit(problem.v_star + 0.4 * _unit(np.linspace(-1.0, 1.0, p)))
    return p, lambda seeds: pca_batch(problem, ETAS, v0, seeds, variant, normalize)


def _ridge_case(d, penalty_in_gradient):
    theta_star = (0.5,) + (-0.25,) * (d - 1)
    stream = LinearModelStream(theta_star=theta_star, x_radius=1.0, noise_radius=0.5)
    theta0 = np.zeros(d)
    return d + 1, lambda seeds: ridge_batch(
        stream, 1.5, 0.1, ETAS, theta0, seeds, penalty_in_gradient
    )


RM_LINEAR = RmProblem(m_kind="linear", theta=-0.3, slope=1.3)

# name -> (values drawn per replication and step, run(seeds))
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
CASES["rm-linear-shifted"] = (1, lambda seeds: rm_batch(RM_LINEAR, ETAS, 1.0, seeds))
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


@needs_kernel
@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(n_reps=st.integers(1, 9), chunk=st.integers(1, 128), slice_steps=st.integers(1, 40))
def test_kernel_matches_numpy_loop_bytes(name, n_reps, chunk, slice_steps):
    width, run = CASES[name]
    seeds = [rep_seed(31, i) for i in range(n_reps)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algorithms, "MIN_ROWS", 1)
        mp.setattr(algorithms, "DRAW_BUDGET", chunk * n_reps * width)
        mp.setattr(algorithms, "RIDGE_ROWS", chunk)
        mp.setattr(algorithms, "PASS_BUDGET", slice_steps * n_reps * width)
        compiled = as_bytes(run(seeds))
        mp.setattr(_kernel, "load", lambda: None)
        reference = as_bytes(run(seeds))
    assert compiled == reference


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
    reference = rep_generators(seeds)
    for rows in chunks:
        got = draw(compiled, rows, width, radius)
        assert got.tobytes() == draw(reference, rows, width, radius).tobytes()
        for g, h in zip(compiled, reference):
            assert g.bit_generator.state == h.bit_generator.state
    assert [g.random() for g in compiled] == [g.random() for g in reference]


def test_every_engine_takes_the_kernel(monkeypatch):
    # the engines ask for the kernel exactly where it applies: widths below
    # 8 and the linear M, not the cubic one
    calls = []
    monkeypatch.setattr(_kernel, "load", lambda: calls.append(1))
    seeds = [rep_seed(1, 0)]
    for name in ("sgd", "krasulina-rotated", "ridge", "rm"):
        ENGINES[name][1](seeds)
    assert len(calls) == 3  # ENGINES["rm"] runs the cubic M
    CASES["rm-linear-shifted"][1](seeds)
    wide = SgdProblem(curvature=(1.0,) * 8, x_star=(0.0,) * 8, radius=1.0, b_noise=0.5)
    sgd_batch(wide, ETAS, np.zeros(8), seeds)
    assert len(calls) == 4


# ---------------------------------------------------------------------------
# The reference checks on the numpy path
# ---------------------------------------------------------------------------


@pytest.fixture
def numpy_steps(monkeypatch):
    # the engines build their GeneratorBatch from _kernel.load() as well, so
    # this forces the numpy draws along with the numpy step loops
    monkeypatch.setattr(_kernel, "load", lambda: None)
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
    for name in sorted(ENGINES):
        with pytest.MonkeyPatch.context() as mp:
            test_algorithms.test_engines_invariant_to_pass_slices(name, mp)
    test_streams.test_batch_draws_match_single_generator_draws()


# ---------------------------------------------------------------------------
# Loader
# ---------------------------------------------------------------------------


def _reference():
    _, run = CASES["sgd-d3"]
    seeds = [rep_seed(5, i) for i in range(4)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernel, "load", lambda: None)
        return run, seeds, as_bytes(run(seeds))


@pytest.mark.parametrize(
    "broken", ["missing-compiler", "failing-compiler", "unwritable-cache", "missing-numpy-symbol"]
)
def test_loader_falls_back_with_one_note(broken, tmp_path, monkeypatch, capsys):
    run, seeds, reference = _reference()
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
    monkeypatch.setattr(_kernel, "load", loader.get)
    capsys.readouterr()
    for _ in range(3):
        assert as_bytes(run(seeds)) == reference
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "compiled step loops unavailable" in err
    if broken in ("missing-compiler", "failing-compiler"):
        assert list(cache.iterdir()) == []  # no partial library left behind


@needs_kernel
def test_threads_share_one_build(tmp_path, monkeypatch):
    run, seeds, reference = _reference()
    loader = _kernel.Loader(cache_dir=tmp_path)
    monkeypatch.setattr(_kernel, "load", loader.get)
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
    assert loader.get() is not None
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
        "assert not _kernel._LOADER._done\n"
        "assert opened == [], opened\n"
    )
    src = _kernel.SOURCE.parents[1].as_posix()
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.iterdir()) == []
