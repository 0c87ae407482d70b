"""The compiled kernels against the numpy reference they override.

Every kernel call, every engine array and every drawn chunk must come out
byte for byte the same with _kernel.StepKernels and with
_reference.REFERENCE, with the generators left in the same state, and the
inline draws must be numpy's on every path of its transforms, and the
generators numpy's for every seed default_rng takes; the loader must fall
back to the reference with one note when the library cannot be built or
its seeding or normals are not numpy's, and threads that start engines at
once, like links to one interpreter, must share one build.  Tests choose
the reference for the engines by patching _kernel.load.
"""

import ctypes
import gc
import inspect
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

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
from anytime_iter.algorithms import check_pca_recursion, pca_batch, ridge_batch, rm_batch
from anytime_iter.algorithms import sgd_batch
from anytime_iter.boundaries import StepSchedule
from anytime_iter.harness import _lil_batch, run_lil_ensemble
from anytime_iter.recursion import RecursionParams, Trace, check_recursion
from anytime_iter.seeding import rep_seed
from anytime_iter.streams import LinearModelStream
from test_algorithms import ENGINES

needs_kernel = pytest.mark.skipif(_kernel.load() is REFERENCE, reason="no C compiler here")


def reference_load():
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
# steps of 8 or more coordinates, whose sums C adds pairwise as np.sum
# does, at run-time widths: up to 128 terms in one block, and past the split
# of longer sums
WIDE = {f"sgd-d{d}": _sgd_case(d) for d in (8, 12, 129, 257)}
WIDE.update(
    {
        f"{variant}-p{p}{'-normalized' if normalize else ''}{'-rotated' if rotated else ''}": (
            _pca_case(p, variant, normalize, rotated)
        )
        for p in (8, 13)
        for variant in ("krasulina", "oja")
        for normalize in (False, True)
        for rotated in (False, True)
    }
)
for p in (129, 257):
    WIDE[f"krasulina-p{p}-normalized-rotated"] = _pca_case(p, "krasulina", True, True)
    WIDE[f"oja-p{p}-normalized"] = _pca_case(p, "oja", True, False)
WIDE.update({f"ridge-d{d}": _ridge_case(d, True) for d in (8, 129, 257)})


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
        mp.setattr(algorithms, "LOSS_BUDGET", chunk * n_reps)
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


# Replications, coordinates, the steps of one or two consecutive chunks, and
# the columns of the wider output arrays before and after the (n, m) slices
# the chunks write.  Up to 17 replications: three blocks of 8 lanes, the last
# one partial, whose ghost lanes must leak nothing into any output or
# generator.
SHAPES = st.tuples(
    st.integers(1, 17),
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


def numpy_states(seeds) -> list:
    """The bit_generator.state of default_rng of each seed."""
    return REFERENCE.states(REFERENCE.generators(seeds))


def same_bytes(build, call, seeds=()) -> None:
    """call(kernels, gens, arrays) changes the arrays build() returns, draws
    from gens, the kernels' generators of the seeds, and returns a value;
    all must come out the same with the compiled kernels and with the
    reference, byte for byte, and every generator must be left in the same
    state."""
    got = []
    for kernels in (_kernel.load(), REFERENCE):
        arrays = build()
        gens = kernels.generators(seeds)
        ret = call(kernels, gens, arrays)
        written = {k: a.tobytes() for k, a in arrays.items()}
        got.append((ret, written, kernels.states(gens)))
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
            assert k.states(gens) == untouched
        return hits

    seeds = [rep_seed(seed, i) for i in range(n)]
    untouched = numpy_states(seeds)
    same_bytes(build, call, seeds)


@needs_kernel
def test_sgd_chunk_lanes_draw_from_their_own_generators():
    # 17 replications, three blocks of 8 lanes with a partial last one, and
    # 300 steps at every width: 5100 to 35700 normals per width, so the
    # ziggurat's wedge and tail run in lanes mid-block, where drawing a
    # step's normals value-major across the lanes could mix up generators
    n, m = 17, 300
    seeds = [rep_seed(41, i) for i in range(n)]
    ki = np.array(_ziggurat_table("ki_double"), dtype=np.uint64)
    tail_from = float.fromhex("0x1.d3bb48209ad33p+1")  # ziggurat_nor_r
    tails, wedges = set(), set()
    for d in range(1, 8):

        def build():
            rng = np.random.default_rng(d)
            out = outputs(n, m, 0, 0, 7)
            return dict(
                state=rng.uniform(-0.3, 0.3, (n, d)), etas=rng.uniform(0.01, 1.0, m),
                a=rng.uniform(0.5, 2.0, d), xs=rng.uniform(-0.5, 0.5, d),
                loss=out[0], loss_pl=out[1], channels=out[2:],
            )

        def call(k, gens, a):
            return k.sgd_chunk(
                a["state"], gens, a["etas"], a["a"], a["xs"], 1.0, 2.0, 0.75, a["loss"],
                a["loss_pl"], *a["channels"],
            )

        same_bytes(build, call, seeds)
        # where each lane's normals leave the rectangles: a value beyond
        # ziggurat_nor_r comes from the tail, and a first output outside its
        # layer's rectangle before any other, of layer 1 or above, goes on
        # to the wedge test
        twins = zip(REFERENCE.generators(seeds), REFERENCE.generators(seeds))
        for i, (gen, raw_gen) in enumerate(twins):
            if (np.abs(gen.standard_normal(m * d)) > tail_from).any():
                tails.add(i % 8)
            raw = raw_gen.bit_generator.random_raw(m * d)
            layer = raw & np.uint64(0xFF)
            outside = (raw >> np.uint64(9)) & np.uint64(2**52 - 1) >= ki[layer]
            if outside.any() and layer[np.argmax(outside)]:
                wedges.add(i % 8)
    assert tails & set(range(1, 7)) and wedges & set(range(1, 7)), (tails, wedges)


@needs_kernel
def test_generators_are_numpy_states():
    # the compiled kernels seed each generator in C, from the entropy words
    # of an int or int-sequence seed, which C mixes into a pool as
    # SeedSequence does, or from a SeedSequence's pool: every field of
    # numpy's PCG64 state must come out as default_rng(seed) leaves it, for
    # ints of one to eight words, sequences of one to eight words, the
    # harness's (seed_base, i) pairs and their rep_seed, spawned children
    # and a wider pool, mixed in one call
    k = _kernel.load()
    pairs = [(b, i) for b in (0, 20260824, 2**64 + 3) for i in (0, 1, 2**32 - 1, 2**32)]
    seeds = [rep_seed(b, i) for b, i in pairs] + pairs
    seeds += [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**70, 2**255 + 2**224 + 1]
    seeds += [[2**32 - 1 - w for w in range(words)] for words in range(1, 9)]
    seeds += [(2**96 + 5, 0, 2**32), [], (), range(3), [True, 2], [np.uint64(2**63), np.int8(3)]]
    seeds += [*np.random.SeedSequence(5).spawn(3), np.random.SeedSequence(7, pool_size=8)]
    seeds += [*np.random.SeedSequence((1, 2)).spawn(2), np.int64(6), np.array([4, 2**40])]
    gens = k.generators(seeds)
    assert gens.dtype == np.uint64 and gens.shape == (len(seeds), _kernel.STATE_WORDS)
    assert k.states(gens) == numpy_states(seeds)
    assert k.generators([]).shape == (0, _kernel.STATE_WORDS)
    # the chunks refuse states they could not have been given
    state, loss = np.zeros((2, 1)), np.empty((2, 3))
    for bad in (gens[:2].astype(np.int64), gens[:1], np.asfortranarray(gens[:2])):
        with pytest.raises(ValueError):
            k.sgd_chunk(state, bad, np.ones(3), np.ones(1), np.zeros(1), 1.0, 1.0, 0.5, loss)
    frozen = gens[:2].copy()
    frozen.flags.writeable = False
    with pytest.raises(ValueError):
        k.sgd_chunk(state, frozen, np.ones(3), np.ones(1), np.zeros(1), 1.0, 1.0, 0.5, loss)


# ints of one to seven 32-bit words
ENTROPY = st.integers(0, 2**192)
ANY_SEED = st.one_of(
    ENTROPY,
    st.lists(ENTROPY, max_size=8),
    st.lists(ENTROPY, max_size=8).map(tuple),
    st.builds(
        lambda entropy, key, size: np.random.SeedSequence(entropy, spawn_key=key, pool_size=size),
        st.lists(ENTROPY, max_size=8),
        st.lists(st.integers(0, 2**40), max_size=3),
        st.integers(4, 9),
    ),
)


@needs_kernel
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seeds=st.lists(ANY_SEED, max_size=9))
def test_generators_take_the_seeds_numpy_takes(seeds):
    k = _kernel.load()
    assert k.states(k.generators(seeds)) == numpy_states(seeds)


@needs_kernel
@pytest.mark.parametrize(
    "bad, error",
    [
        (-1, ValueError),
        ((3, -1), ValueError),
        ([2**64, np.int64(-2)], ValueError),
        (1.0, TypeError),
        ((3, 0.5), TypeError),
        ([np.float64(2.0)], TypeError),
        ("7", TypeError),
    ],
)
def test_generators_refuse_what_numpy_refuses(bad, error):
    # a negative int raises ValueError and a float TypeError, with numpy's
    # message, as default_rng does
    with pytest.raises(error) as numpy_error:
        np.random.default_rng(bad)
    with pytest.raises(error, match=re.escape(str(numpy_error.value))):
        _kernel.load().generators([(1, 2), bad])


# the names of each engine's recorded outputs, in the order a recorded call
# carves them from its one block: the (N, T+1) losses, then the (N, T)
# channels
OUTPUTS = {
    "sgd-d3": (("loss_sc", "loss_pl"), ("noise_sc", "noise_pl", "y_sc", "y_pl", "gnorm2")),
    "krasulina-p3": (("loss",), ("q", "z_dot_v", "znorm2", "norm_ratio")),
    "rm-linear-shifted": (("loss",), ("q", "noise")),
}


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_recorded_channels_are_rows_of_one_block(name, monkeypatch):
    # one allocation per call, the losses included, big enough for huge
    # pages where one output alone is not; each output is still a
    # C-contiguous array of its own shape, starting where the one before
    # ends, with the reference's bytes.  A streamed loss (on_chunk) is not
    # in the block, and the block starts with the next output.
    losses, channels = OUTPUTS[name]
    _, run = CASES[name]
    n = 11
    seeds = [rep_seed(9, i) for i in range(n)]
    shapes = dict.fromkeys(losses, (n, HORIZON + 1)) | dict.fromkeys(channels, (n, HORIZON))
    res = run(seeds)
    streamed = run(seeds, on_chunk=lambda t0, a: None)
    assert streamed[losses[0]] is None
    for result, keys in ((res, losses + channels), (streamed, losses[1:] + channels)):
        block = result[keys[0]].base
        assert block.ndim == 1 and block.flags.c_contiguous
        assert block.size == sum(math.prod(shapes[key]) for key in keys)
        at = block.ctypes.data
        for key in keys:
            out = result[key]
            assert out.base is block and out.shape == shapes[key] and out.flags.c_contiguous
            assert out.ctypes.data == at
            at += out.nbytes
        assert at == block.ctypes.data + block.nbytes
    monkeypatch.setattr(_kernel, "load", reference_load)
    assert as_bytes(res) == as_bytes(run(seeds))


def _block(res: dict) -> tuple:
    """Where the block a result's arrays are views of starts and ends."""
    block = next(a for a in res.values() if isinstance(a, np.ndarray) and a.ndim == 2).base
    return block.ctypes.data, block.ctypes.data + block.nbytes


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_outputs_reuse_the_memory_of_collected_results(name, monkeypatch):
    # while a result is held, no other call writes into its memory; once
    # all its arrays are collected, its memory is the spare, which the next
    # call of equal or smaller size takes, and each gets the reference's
    # bytes from that stale memory
    _, run = CASES[name]
    seeds = [rep_seed(9, i) for i in range(11)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernel, "load", reference_load)
        want = [as_bytes(run(seeds)), as_bytes(run(seeds[:4]))]
    monkeypatch.setattr(algorithms, "_SPARE", algorithms._Spare())
    held = run(seeds)
    lo, hi = _block(held)
    other = run(seeds)
    assert _block(other)[1] <= lo or hi <= _block(other)[0]
    del held
    for batch, expected in zip((seeds, seeds[:4]), want):
        res = run(batch)
        assert _block(res)[0] == lo and _block(res)[1] <= hi
        assert as_bytes(res) == expected
        del res


class FailingChunks:
    """The kernels, but rm_chunk keeps the address of the block its losses
    are carved from and raises."""

    def __init__(self, kernels):
        self._kernels = kernels
        self.block = None

    def rm_chunk(self, state, gens, etas, problem, radius, loss, *channels):
        self.block = loss.base.ctypes.data
        raise RuntimeError("chunk failed")

    def __getattr__(self, name):
        return getattr(self._kernels, name)


def test_a_failing_call_gives_its_block_back(monkeypatch):
    _, run = CASES["rm-linear-shifted"]
    seeds = [rep_seed(9, i) for i in range(11)]
    monkeypatch.setattr(algorithms, "_SPARE", algorithms._Spare())
    failing = FailingChunks(_kernel.load())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernel, "load", lambda: failing)
        with pytest.raises(RuntimeError, match="chunk failed"):
            run(seeds)
    gc.collect()  # the traceback's frames held the block's arrays
    assert failing.block is not None and _block(run(seeds))[0] == failing.block


def test_the_spare_is_the_larger_block():
    # of two collected blocks the spare keeps the larger, which a call of
    # any size up to it takes; a bigger call gets fresh memory
    spare = algorithms._Spare()
    small, large = spare.block(10), spare.block(20)
    assert small.shape == (10,) and large.shape == (20,)
    at = large.ctypes.data
    del large, small
    assert spare.block(15).ctypes.data == at
    assert spare.block(21).ctypes.data != at


def test_threads_never_share_a_block():
    # threads take and give back blocks of different sizes at once, with
    # the interpreter switching between them every microsecond: no block a
    # thread holds may be handed to another, which would overwrite it
    spare = algorithms._Spare()
    clobbered = []

    def work(k):
        for _ in range(300):
            block = spare.block(64 + k)
            block.fill(k)
            time.sleep(0)
            if not (block == k).all():
                clobbered.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and clobbered == []


@pytest.mark.parametrize("name", sorted(set(ENGINES) - {"ridge"}))
def test_streamed_chunks_record_what_one_chunk_records(name, monkeypatch):
    # a recorded call that streams nothing is one chunk call; streamed in
    # chunks of 7 steps, it writes the same channel bytes and streams the
    # losses the one chunk wrote, under either kernels
    _, run = ENGINES[name]
    key = "loss_sc" if name == "sgd" else "loss"
    seeds = [rep_seed(12, i) for i in range(3)]
    monkeypatch.setattr(algorithms, "MIN_ROWS", 1)
    monkeypatch.setattr(algorithms, "LOSS_BUDGET", 7 * len(seeds))
    got = []
    for kernels in dict.fromkeys((_kernel.load(), REFERENCE)):
        monkeypatch.setattr(_kernel, "load", lambda: kernels)
        whole = as_bytes(run(seeds))
        chunks = []
        streamed = as_bytes(run(seeds, on_chunk=lambda t0, loss: chunks.append(loss.copy())))
        assert [c.shape[1] for c in chunks] == [1] + [7] * 8 + [4]
        assert streamed.pop(key) is None
        dtype, shape, losses = whole.pop(key)
        assert np.concatenate(chunks, axis=1).tobytes() == losses
        assert streamed == whole
        got.append(whole)
    assert got[0] == got[-1]


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
    record=st.booleans(),
    zero=st.booleans(),
    seed=SEEDS,
)
def test_rm_calls_match_reference_bytes(shape, cubic, record, zero, seed):
    # the cubic M's paths start up to 1e3 from theta, where the last bit of
    # the cubic term shows in the step, and from which most diverge to
    # +-inf and nan
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
        dev = rng.uniform(-1.0, 1.0, n)
        if cubic:
            dev *= 10.0 ** rng.uniform(0.0, 3.0, n)
        state = theta + dev
        if zero:
            state[0] = theta  # replication 0 starts at theta
        return dict(
            state=state, etas=rng.uniform(0.01, 0.3, total),
            loss=outputs(n, total, lo, extra, 1)[0], channels=outputs(n, total, lo, extra, 2),
        )

    def call(k, gens, a):
        for steps, t in chunk_slices(chunks, lo):
            channels = [c[:, t] for c in a["channels"]] if record else []
            with np.errstate(over="ignore", invalid="ignore"):
                k.rm_chunk(
                    a["state"], gens, a["etas"][steps], problem, radius, a["loss"][:, t],
                    *channels,
                )

    same_bytes(build, call, [rep_seed(seed, i) for i in range(n)])


def ridge_on_draws(stream, gens, theta, etas, lambda_pen, penalty_in_gradient, radius):
    """The (n, m) losses of ridge steps of the (n, d) iterates theta, in
    place, on what stream.draw(gens[j], m) gives each numpy Generator, for
    the m = len(etas) steps, each step a few numpy expressions over all
    replications: the oracle the ridge chunks must reproduce."""
    draws = [stream.draw(g, len(etas)) for g in gens]
    xs = np.stack([x for x, _ in draws], axis=1)
    ys = np.stack([y for _, y in draws], axis=1)
    theta_star = np.asarray(stream.theta_star)
    loss = np.empty((len(gens), len(etas)))
    for k, eta in enumerate(etas.tolist()):
        x = xs[k]
        resid = np.sum(x * theta, axis=-1) - ys[k]
        if penalty_in_gradient:
            w = theta - (resid[:, None] * x + theta * lambda_pen) * eta
        else:
            w = (theta - (resid * eta)[:, None] * x) + theta * lambda_pen
        r2 = np.sum(w * w, axis=-1)
        outside = r2 > radius * radius
        w[outside] *= (radius / np.sqrt(r2[outside]))[:, None]
        theta[...] = w
        loss[:, k] = np.sum((theta - theta_star) ** 2, axis=-1)
    return loss


@needs_kernel
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 17),
    d=st.integers(1, 300),
    chunks=st.lists(st.integers(1, 2048), min_size=1, max_size=2),
    spare=st.booleans(),
    penalty_in_gradient=st.booleans(),
    seed=SEEDS,
)
def test_ridge_calls_match_reference_bytes(n, d, chunks, spare, penalty_in_gradient, seed):
    # ridge_chunk draws each generator's chunk as LinearModelStream.draw
    # does, its m*d signs, then its m uniforms, from two cursors, the
    # uniforms' advanced past the signs: the compiled chunk must write the
    # reference's losses, iterates and generator states, byte for byte,
    # and both the losses and end states of each generator stepped on
    # stream.draw's own draws.  With spare, one sign drawn first leaves a
    # spare half word for the chunk's first sign; an odd m*d leaves one
    # for the next chunk.  Up to 300 coordinates: past the 128 terms of one
    # block of numpy's pairwise sum; 17 replications: a partial block
    rng = np.random.default_rng(seed)
    stream = LinearModelStream(
        tuple(rng.uniform(-1.0, 1.0, d) / d), rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0)
    )
    lambda_pen, radius = rng.uniform(0.0, 0.5), rng.uniform(0.3, 1.5)
    etas = rng.uniform(0.01, 1.0, sum(chunks))
    start = rng.uniform(-0.5, 0.5, (n, d))
    seeds = [rep_seed(seed, i) for i in range(n)]

    def run(k, gens, draw):
        state = start.copy()
        if spare:
            draw(gens)
        loss, lo = np.full((n, len(etas) + 2), -1.5), 1
        for m in chunks:
            k.ridge_chunk(
                state, gens, etas[lo - 1 : lo - 1 + m], stream, lambda_pen, penalty_in_gradient,
                radius, loss[:, lo : lo + m],
            )
            lo += m
        return loss.tobytes(), state.tobytes(), k.states(gens)

    got = [
        run(k, k.generators(seeds), lambda gens, k=k: k.signs(np.empty((1, n, 1)), gens))
        for k in (_kernel.load(), REFERENCE)
    ]
    assert got[0] == got[1]
    twins, theta = REFERENCE.generators(seeds), start.copy()
    if spare:
        for g in twins:
            g.integers(0, 2, size=(1, 1))
    want = np.full((n, len(etas) + 2), -1.5)
    lo = 1
    for m in chunks:
        want[:, lo : lo + m] = ridge_on_draws(
            stream, twins, theta, etas[lo - 1 : lo - 1 + m], lambda_pen, penalty_in_gradient,
            radius,
        )
        lo += m
    assert got[1] == (want.tobytes(), theta.tobytes(), REFERENCE.states(twins))


@st.composite
def lil_starts(draw):
    """n_blocks, and a first time t0 >= 1: t = 1 or 2, before the first
    block, or within 40 of a power of two up to the horizon
    2^(n_blocks+1), so that the chunks cross the boundary between two
    blocks, or leave the last one."""
    n_blocks = draw(st.integers(1, 24))
    if draw(st.booleans()):
        return n_blocks, draw(st.integers(1, 2))
    e = draw(st.integers(0, n_blocks + 1))
    return n_blocks, max(1, 2**e + draw(st.integers(-40, 40)))


@needs_kernel
@CALLS
@given(
    n=st.integers(1, 20),
    start=lil_starts(),
    chunks=st.lists(st.integers(1, 60), min_size=1, max_size=4),
    # l1 of 1e4 and x0 of 1e150 or more drive the paths to +-inf and nan
    l1=st.sampled_from((0.5, 1.0, 3.0, 1e4)),
    x0=st.sampled_from((1.0, -2.0, 1e150, 1e300)),
    cubic=st.booleans(),
    seed=SEEDS,
)
def test_lil_calls_match_reference_bytes(n, start, chunks, l1, x0, cubic, seed):
    # lil_chunk steps and folds in C as the reference's steps and fold do,
    # over partial blocks of lanes, into maxima that hold nan, +inf and
    # finite values already: the same iterates, maxima and generator states,
    # byte for byte, but for the sign of a nan in the maxima.  A diverging
    # path's nan is the one invalid operations give, -nan here, which C
    # keeps; numpy's max over two or more of them returns +nan
    n_blocks, t0 = start
    rng = np.random.default_rng(seed)
    theta, slope, cub_a = rng.uniform(-1.0, 1.0), *rng.uniform(0.2, 1.5, 2)
    if cubic:
        problem = RmProblem(m_kind="cubic_plus_linear", theta=theta, cub_a=cub_a, cub_b=slope)
    else:
        problem = RmProblem(m_kind="linear", theta=theta, slope=slope)
    seeds = [rep_seed(seed, i) for i in range(n)]

    def build():
        rng = np.random.default_rng(seed + 1)
        block_max = rng.choice([-np.inf, -np.inf, 0.0, 0.5, np.inf, np.nan], (n_blocks, n))
        return dict(state=theta + x0 * rng.uniform(0.5, 1.5, n), block_max=block_max)

    def call(k, gens, a):
        lo = t0
        with np.errstate(over="ignore", invalid="ignore"):
            for m in chunks:
                k.lil_chunk(a["state"], gens, lo, m, l1, problem, 1.5, a["block_max"])
                lo += m
        a["block_max"][np.isnan(a["block_max"])] = np.nan

    same_bytes(build, call, seeds)

    # and whole runs, diverging or not, give the same reports or raise the
    # same FloatingPointError
    def ensemble(kernels):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernel, "load", lambda: kernels)
            try:
                return run_lil_ensemble(problem, l1, l1, min(n_blocks, 6), seeds, x0)
            except FloatingPointError as exc:
                return str(exc)

    assert ensemble(_kernel.load()) == ensemble(REFERENCE)


@needs_kernel
def test_compiled_loglog_is_libm_loglog():
    # the blocks start at t = 3; Reference.lil_chunk takes math.log of
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


def test_kernels_share_one_public_interface():
    # StepKernels overrides every public Reference method and adds none, so
    # an engine needs one Reference chunk method and the draws it makes, and
    # a checker one Reference check method
    def public(cls):
        return {n for n, f in vars(cls).items() if callable(f) and not n.startswith("_")}

    chunks = {"sgd_chunk", "pca_chunk", "rm_chunk", "ridge_chunk"}
    draws = {"generators", "states", "normals", "signs"}
    checks = {"recursion_failure", "pca_failure"}
    assert public(StepKernels) == chunks | draws | checks | {"lil_chunk"}
    assert public(Reference) == public(StepKernels)


# name -> draw(kernels, out, gens, radius), one chunk as an engine draws it;
# out is (rows, n, width)
SAMPLERS = {
    "normals": lambda k, out, gens, radius: k.normals(out, gens),
    "signs": lambda k, out, gens, radius: k.signs(out, gens),
    "scaled-signs": lambda k, out, gens, radius: k.signs(
        out, gens, np.sqrt(np.arange(out.shape[2], 0.0, -1.0))
    ),
}


@needs_kernel
@pytest.mark.parametrize("sampler", sorted(SAMPLERS))
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    n_gens=st.integers(1, 9),
    width=st.integers(1, 20),
    radius=st.sampled_from((0.0, 1.5)),
    chunks=st.lists(st.integers(1, 300), min_size=1, max_size=5),
)
def test_compiled_draws_match_numpy_draws(sampler, n_gens, width, radius, chunks):
    # consecutive chunks, so that the state one chunk leaves (PCG64 buffers
    # half of a 64-bit output for the next 32-bit draw) must be numpy's too;
    # widths from 8 on, where the sphere's sum of squares adds pairwise, too
    draw = SAMPLERS[sampler]
    seeds = [rep_seed(17, i) for i in range(n_gens)]
    compiled = _kernel.load()
    gens = {k: k.generators(seeds) for k in (compiled, REFERENCE)}
    for rows in chunks:
        got = {}
        for k, g in gens.items():
            got[k] = np.zeros((rows, n_gens, width))
            draw(k, got[k], g, radius)
        assert got[compiled].tobytes() == got[REFERENCE].tobytes()
        assert compiled.states(gens[compiled]) == REFERENCE.states(gens[REFERENCE])


# ---------------------------------------------------------------------------
# The inline draws against numpy's distribution functions
# ---------------------------------------------------------------------------

_NEXT64 = ctypes.CFUNCTYPE(ctypes.c_uint64, ctypes.c_void_p)
_NEXT32 = ctypes.CFUNCTYPE(ctypes.c_uint32, ctypes.c_void_p)
_NEXT_DOUBLE = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_void_p)


class BitGen(ctypes.Structure):
    """numpy/random/bitgen.h's bitgen_t."""

    _fields_ = [
        ("state", ctypes.c_void_p),
        ("next_uint64", _NEXT64),
        ("next_uint32", _NEXT32),
        ("next_double", _NEXT_DOUBLE),
        ("next_raw", _NEXT64),
    ]


class ScriptedBitGen:
    """A bitgen_t that replays raw outputs in call order, as PCG64 returns
    them: next_uint64 returns the next one and next_double its top 53 bits
    times 2^-53; past the script, 0 (layer 0 and rabs 0: the normal 0.0).
    taken counts the outputs each of next_uint64, next_uint32 and
    next_double took."""

    def __init__(self, raws):
        self.taken = [0, 0, 0]

        def pull(kind):
            i = sum(self.taken)
            self.taken[kind] += 1
            return raws[i] if i < len(raws) else 0

        # held here: the struct keeps only the function pointers
        self._callbacks = (
            _NEXT64(lambda _state: pull(0)),
            _NEXT32(lambda _state: pull(1) & 0xFFFFFFFF),
            _NEXT_DOUBLE(lambda _state: (pull(2) >> 11) * 2.0**-53),
        )
        self.struct = BitGen(None, *self._callbacks, self._callbacks[0])

    @property
    def address(self) -> int:
        return ctypes.addressof(self.struct)


def _ziggurat_table(name: str) -> list:
    """The 256 entries of the named table in _steps.c."""
    source = _kernel.SOURCE.read_text()
    body = re.search(rf"\b{name}\[256\] = \{{(.*?)\}};", source, re.S).group(1)
    values = body.replace(",", " ").split()
    parse = float.fromhex if name != "ki_double" else lambda v: int(v, 16)
    assert len(values) == 256, name
    return [parse(v) for v in values]


def _raw(u: float) -> int:
    """The raw output whose next_double is u, a multiple of 2^-53 in [0, 1)."""
    return int(u * 2.0**53) << 11


def _normal_scripts():
    """(path, raws): the raw outputs of one normal, in the order they are
    drawn, each with the path it reaches, the rectangle, the wedge or the
    tail."""
    ki = _ziggurat_table("ki_double")
    top = 2**52 - 1  # the largest rabs
    # a first output of layer 2, sign 0 and rabs 0: the rectangle accepts it
    accept = 2
    for idx in range(256):
        rabs_values = {ki[idx] - 1, ki[idx]} if idx else {ki[0] - 1, ki[0], ki[0] + 256, top}
        for rabs in sorted(r for r in rabs_values if 0 <= r <= top):
            for sign in (0, 1):
                # the 3 bits above rabs take turns being set: numpy drops them
                r = idx | sign << 8 | rabs << 9 | (idx % 8) << 61
                if rabs < ki[idx]:
                    yield "rectangle", [r]
                elif idx == 0:
                    # a rejected pair (yy = 0), then an accepted one
                    yield "tail", [r] + [_raw(u) for u in (0.75, 0.0, 0.5, 1.0 - 2.0**-53)]
                else:
                    for u in (0.0, 0.5, 1.0 - 2.0**-53):
                        yield "wedge", [r, _raw(u), accept]


def test_inline_normal_replays_numpy_ziggurat():
    # every layer from both sides of its rectangle's edge, with both signs,
    # the wedge test's accepts and rejects and the tail loop: the inline
    # normal, fed the scripted raw outputs in place of PCG64's through the
    # same ziggurat, returns the bits numpy's random_standard_normal returns
    # from a bitgen_t replaying them, and takes as many of them.  The library is
    # loaded as built, without the loader's check of its draws, which would
    # hand a faulty ziggurat the reference and skip the tests that need the
    # kernels.
    from numpy.random import _generator

    try:
        library = ctypes.CDLL(str(_kernel.Loader()._build()))
    except OSError:
        pytest.skip("no C compiler here")
    normal_fill = library.normal_fill
    normal_fill.argtypes, normal_fill.restype = _kernel._SIGNATURES["normal_fill"]
    numpy_normal = ctypes.CDLL(_generator.__file__).random_standard_normal
    numpy_normal.argtypes, numpy_normal.restype = [ctypes.c_void_p], ctypes.c_double
    unused = np.zeros(_kernel.STATE_WORDS, dtype=np.uint64)
    reached = {}
    for path, raws in _normal_scripts():
        want_gen = ScriptedBitGen(raws)
        want = np.array([numpy_normal(want_gen.address)])
        got = np.empty(1)
        # zeros past the end, as ScriptedBitGen returns, for a faulty ziggurat
        script = np.array(raws + [0] * 8, dtype=np.uint64)
        taken = normal_fill(unused.ctypes.data, 1, got.ctypes.data, script.ctypes.data)
        assert got.tobytes() == want.tobytes(), (path, raws)
        assert taken == sum(want_gen.taken) <= len(raws), (path, raws)
        reached.setdefault(path, set()).add(tuple(want_gen.taken))
    assert not unused.any()
    # the rectangle takes one output; the wedge takes a double and accepts,
    # or rejects and takes the next output; the tail takes two pairs
    assert reached == {
        "rectangle": {(1, 0, 0)},
        "wedge": {(1, 0, 1), (2, 0, 1)},
        "tail": {(1, 0, 4)},
    }


@needs_kernel
@pytest.mark.parametrize("width", range(1, 8))
def test_chunk_draws_leave_numpy_generator_state(width):
    # chunks of 3, 1, 4 and 5 steps: with an odd width, an odd m*width leaves
    # PCG64 holding the spare half of a 64-bit output (has_uint32, uinteger)
    # in the state array for the next call's first sign.  After every chunk
    # each generator must be where Generator.integers(0, 2),
    # Generator.uniform, Generator.standard_normal or LinearModelStream.draw
    # leaves a twin, and the draw loops and the ridge chunk must return the
    # bytes of those methods' draws.  11 replications: a full block of lanes
    # and a partial one.
    k = _kernel.load()
    n, radius = 11, 1.5
    seeds = [rep_seed(23, i) for i in range(n)]
    eigs = np.arange(width, 0.0, -1.0)

    def pca(gens, m):
        state = np.full((n, width), 0.5)
        k.pca_chunk(
            state, np.sum(state * state, axis=1), gens, np.full(m, 0.1), np.sqrt(eigs), eigs,
            True, False, np.empty((n, m)),
        )

    def sgd(b_noise):
        def run(gens, m):
            k.sgd_chunk(
                np.zeros((n, width)), gens, np.full(m, 0.1), np.ones(width), np.zeros(width),
                1.0, b_noise, 0.5, np.empty((n, m)),
            )

        return run

    def rm(gens, m):
        k.rm_chunk(np.zeros(n), gens, np.full(m, 0.1), RM_LINEAR, radius, np.empty((n, m)))

    def draw(method, out, *args):
        method(out, *args)
        return out

    def signs(g, m):
        return g.integers(0, 2, size=(m, width)) * 2.0 - 1.0

    def uniform(g, m):
        return g.uniform(-radius, radius, size=m)

    # ridge: the losses of one chunk from theta = 0, against the oracle's on
    # LinearModelStream.draw per generator
    stream = LinearModelStream(tuple(np.linspace(-0.5, 0.7, width)), 1.3, radius)

    def ridge(gens, m):
        loss = np.empty((n, m))
        k.ridge_chunk(np.zeros((n, width)), gens, np.full(m, 0.1), stream, 0.1, True, 1.0, loss)
        return loss.T

    def ridge_twin(g, m):
        return ridge_on_draws(stream, [g], np.zeros((1, width)), np.full(m, 0.1), 0.1, True, 1.0)[0]

    # name -> (the compiled call, returning its draws or None, and what a
    # twin generator draws for the same chunk)
    kinds = {
        "pca": (pca, signs),
        "sgd": (sgd(2.0), lambda g, m: g.standard_normal((m, width))),
        "sgd-no-noise": (sgd(0.0), lambda g, m: None),
        "rm": (rm, uniform),
        "ridge": (ridge, ridge_twin),
        "signs": (lambda gens, m: draw(k.signs, np.empty((m, n, width)), gens), signs),
    }
    for name, (compiled, twin) in kinds.items():
        gens = k.generators(seeds)
        twins = REFERENCE.generators(seeds)
        spare = []
        for m in (3, 1, 4, 5):
            got = compiled(gens, m)
            want = [twin(g, m) for g in twins]
            if got is not None:
                assert got.tobytes() == np.stack(want, axis=1).tobytes(), (name, m)
            states = k.states(gens)
            assert states == REFERENCE.states(twins), (name, m)
            spare += [s["has_uint32"] for s in states]
        if name in ("pca", "signs", "ridge") and width % 2:
            assert 1 in spare and 0 in spare, name
        if name == "sgd-no-noise":
            assert states == numpy_states(seeds)


@pytest.mark.parametrize("d", [8, 17, 40])
def test_ridge_responses_are_each_generators_draw(d):
    # each kernels' ridge chunk forms each generator's responses as
    # LinearModelStream.draw does for that generator alone, x.theta* as
    # np.sum(x * theta*, axis=-1), whose order no BLAS kernel picks; at these
    # widths the sum is pairwise.  A chunk's losses from theta = 0 must be
    # those of the oracle's steps on the generators' own draws
    stream = LinearModelStream(tuple(np.linspace(-1.0, 0.9, d) / d), 1.5, 0.5)
    seeds = [rep_seed(29, i) for i in range(13)]
    for kernels in {_kernel.load(), REFERENCE}:
        for m in (algorithms.RIDGE_ROWS, 5):
            etas = np.full(m, 0.05)
            loss = np.empty((len(seeds), m))
            kernels.ridge_chunk(
                np.zeros((len(seeds), d)), kernels.generators(seeds), etas, stream, 0.0, True,
                2.0, loss,
            )
            theta = np.zeros((len(seeds), d))
            want = ridge_on_draws(stream, REFERENCE.generators(seeds), theta, etas, 0.0, True, 2.0)
            assert loss.tobytes() == want.tobytes(), m


@needs_kernel
def test_steps_source_compiles_without_warnings(tmp_path):
    # -Werror turns any warning in _steps.c into a failed build
    cc = _kernel._default_cc() + ["-Wall", "-Wextra", "-Werror"]
    _kernel._compile(cc, _kernel.SOURCE.read_bytes(), str(tmp_path / "steps.so"))


@needs_kernel
@pytest.mark.parametrize("level", ["-O0", "-O3"])
def test_optimisation_level_changes_no_byte(level, tmp_path, monkeypatch):
    # the bytes must follow from the source and -ffp-contract=off alone: a
    # build at another optimisation level compiles without warnings (a
    # warning fails the build, and the loader would return the reference),
    # passes the loader's check of its draws and writes the SGD, PCA,
    # root-finding and ridge chunks and the generator states of the default
    # build, at widths of a constant-width arm of BY_WIDTH (SGD and ridge at
    # d = 2, PCA at p = 4) and of its run-time arm (d = p = 3)
    flags = tuple(level if f.startswith("-O") else f for f in _kernel.FLAGS)
    assert level in flags and "-ffp-contract=off" in flags
    monkeypatch.setattr(_kernel, "FLAGS", flags)
    cc = _kernel._default_cc() + ["-Wall", "-Wextra", "-Werror"]
    built = _kernel.Loader(cache_dir=tmp_path, cc=cc).get()
    assert isinstance(built, StepKernels) and built is not _kernel.load()
    n, m = 5, 40
    seeds = [rep_seed(41, i) for i in range(n)]

    def chunks(k, d, p):
        gens = k.generators(seeds)
        rng = np.random.default_rng(3)
        etas = rng.uniform(0.01, 0.5, m)
        out = [rng.uniform(-1.0, 1.0, (n, d)), rng.standard_normal((n, p)), np.zeros(n),
               rng.uniform(-1.0, 1.0, (n, d))]
        out += [np.full((n, m), -1.5) for _ in range(4 + 6 + 4 + 2)]
        x, v, r, theta, loss_sgd, loss_pca, loss_rm, loss_ridge, *channels = out
        hits = k.sgd_chunk(
            x, gens, etas, np.linspace(0.5, 2.0, d), np.linspace(0.1, -0.1, d), 0.5, 2.0,
            0.25, loss_sgd, *channels[:6],
        )
        eigs = np.arange(p, 0.0, -1.0)
        k.pca_chunk(
            v, np.sum(v * v, axis=1), gens, etas, np.sqrt(eigs), eigs, True, True, loss_pca,
            *channels[6:10],
        )
        k.rm_chunk(r, gens, etas, RM_LINEAR, 1.0, loss_rm, *channels[10:])
        block_max = np.full((6, n), -np.inf)
        k.lil_chunk(r, gens, 1, 2 * m, 0.7, RM_LINEAR, 1.0, block_max)
        stream = LinearModelStream(tuple(np.linspace(0.5, -0.5, d)), 1.2, 0.5)
        k.ridge_chunk(theta, gens, etas, stream, 0.1, True, 1.0, loss_ridge)
        return hits, [a.tobytes() for a in out], block_max.tobytes(), gens.tobytes()

    for d, p in ((2, 4), (3, 3)):
        assert chunks(built, d, p) == chunks(_kernel.load(), d, p), (d, p)
    # and finds the first failing step of every check, at exact ties too
    rng = np.random.default_rng(7)
    for name, (method, sides, _, draw) in CHECKERS.items():
        for tol in (0.0, 1e-10, 1e-3):
            constants = draw(rng)
            path = _check_path(rng, 40, tol, sides, constants, {3: "recursion", 6: "magnitude"})
            with np.errstate(all="ignore"):  # the terms of overflowing losses
                got = [getattr(k, method)(*path, tol, *constants) for k in (built, _kernel.load())]
            assert got[0] == got[1], (name, tol)


def spy_reference_chunks(monkeypatch) -> list:
    """Make the four Reference chunk methods log their names as they are
    called; returns the log."""
    called = []
    for name in ("sgd_chunk", "pca_chunk", "rm_chunk", "ridge_chunk"):
        method = getattr(Reference, name)
        monkeypatch.setattr(
            Reference, name, lambda *a, _m=method, _n=name: called.append(_n) or _m(*a)
        )
    return called


@needs_kernel
def test_every_engine_takes_the_kernel(monkeypatch):
    # every engine asks load() for the process's kernels, without a width
    calls = []
    monkeypatch.setattr(_kernel, "load", lambda: calls.append(1) or REFERENCE)
    seeds = [rep_seed(1, 0)]
    for name in ("sgd", "krasulina-rotated", "ridge", "rm"):
        ENGINES[name][1](seeds)
    assert len(calls) == 4
    monkeypatch.undo()
    # the compiled kernels step every width and both root-finding M in C,
    # and run no reference chunk method
    deferred = spy_reference_chunks(monkeypatch)
    for name in ("sgd-d7", "krasulina-p7-normalized-rotated", "oja-p7", "ridge-d7"):
        CASES[name][1](seeds)
    CASES["rm-linear-shifted"][1](seeds)
    ENGINES["rm"][1](seeds)  # the cubic M
    for _, run in WIDE.values():
        run(seeds)
    assert deferred == []


class KeptGenerators:
    """The kernels, keeping what each generators call returned."""

    def __init__(self, kernels):
        self._kernels = kernels
        self.gens = []

    def generators(self, seeds):
        self.gens.append(self._kernels.generators(seeds))
        return self.gens[-1]

    def __getattr__(self, name):
        return getattr(self._kernels, name)


@needs_kernel
@pytest.mark.parametrize("name", sorted(WIDE))
def test_wide_engines_match_reference_bytes(name, monkeypatch):
    # the compiled kernels step wide runs in C, without a Reference chunk:
    # every array, recorded or streamed, and every generator's end state
    # must be the pure reference's, over several chunks and slices
    width, run = WIDE[name]
    seeds = [rep_seed(43, i) for i in range(11)]
    monkeypatch.setattr(algorithms, "MIN_ROWS", 1)
    monkeypatch.setattr(algorithms, "LOSS_BUDGET", 7 * len(seeds))
    monkeypatch.setattr(algorithms, "RIDGE_ROWS", 7)
    monkeypatch.setattr(_reference, "PASS_BUDGET", 3 * len(seeds) * width)
    got = []
    for kernels in (_kernel.load(), REFERENCE):
        kept = KeptGenerators(kernels)
        monkeypatch.setattr(_kernel, "load", lambda: kept)
        with pytest.MonkeyPatch.context() as spy:
            deferred = spy_reference_chunks(spy)
            written = as_bytes(run(seeds)), streamed_bytes(run, seeds)
        assert kernels is REFERENCE or deferred == []  # no compiled run defers
        got.append((written, [kernels.states(g) for g in kept.gens]))
    assert got[0] == got[1]


def _very_wide_run(seeds) -> tuple:
    """Three normalised Krasulina steps at p = 60 000 under the process's
    kernels: the losses, the channels and the end states."""
    p = 60_000
    problem = PcaProblem(eigs=tuple(float(p - j) for j in range(p)))
    v0 = _unit(problem.v_star + 0.4 * _unit(np.linspace(-1.0, 1.0, p)))
    kept = KeptGenerators(_kernel.load())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernel, "load", lambda: kept)
        res = pca_batch(problem, ETAS[:3], v0, seeds, "krasulina", True)
    return as_bytes(res), [kept.states(g) for g in kept.gens]


@needs_kernel
def test_very_wide_steps_run_on_the_heap(monkeypatch):
    # the scratch of a chunk, 26 vectors of p values for PCA, grows
    # with the width: 12.5 MB at p = 60 000, more than a thread's stack, so
    # it must come from the heap, on the main thread and in a pool worker
    seeds = [rep_seed(47, 0)]
    deferred = spy_reference_chunks(monkeypatch)
    compiled = _very_wide_run(seeds)
    with ThreadPoolExecutor(1) as pool:
        in_worker = pool.submit(_very_wide_run, seeds).result()
    assert deferred == []
    monkeypatch.undo()
    monkeypatch.setattr(_kernel, "load", reference_load)
    assert compiled == in_worker == _very_wide_run(seeds)


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
    # 60 steps streamed in chunks of 7: 9 chunks, each one chunk call, with
    # or without recording, whichever kernels the engines get; a run that
    # streams nothing is one chunk call.  Ridge cuts every run into chunks
    # of RIDGE_ROWS, since its draws depend on the chunk length
    if compiled and _kernel.load() is REFERENCE:
        pytest.skip("no C compiler here")
    _, run = ENGINES[engine]
    seeds = [rep_seed(2, i) for i in range(3)]
    kernels = CountingKernels(_kernel.load() if compiled else REFERENCE)
    monkeypatch.setattr(_kernel, "load", lambda: kernels)
    monkeypatch.setattr(algorithms, "MIN_ROWS", 1)
    monkeypatch.setattr(algorithms, "LOSS_BUDGET", 7 * len(seeds))
    monkeypatch.setattr(algorithms, "RIDGE_ROWS", 7)
    runs = [{}, {"on_chunk": lambda t0, loss: None}]
    if engine != "ridge":  # ridge records no channels
        runs.append({"record_channels": False})
    for kw in runs:
        kernels.calls.clear()
        run(seeds, **kw)
        chunks = 9 if engine == "ridge" or "on_chunk" in kw else 1
        assert kernels.calls == ["generators"] + [method] * chunks, kw


def test_compiled_functions_are_the_bound_ones():
    # every function _steps.c exports has a binding and every binding a
    # function, so no deleted entry point lingers in the library, and the
    # words of a generator's state, by which both sides size its rows, agree
    source = _kernel.SOURCE.read_text()
    defined = re.findall(r"^(?!static\b|typedef\b)[a-z][\w *]*?\b(\w+)\(", source, re.M)
    assert sorted(defined) == sorted(_kernel._SIGNATURES)
    assert re.findall(r"^#define STATE_WORDS (\d+)$", source, re.M) == [str(_kernel.STATE_WORDS)]


# ---------------------------------------------------------------------------
# The recursion checks: each compiled check method against the Reference one
# ---------------------------------------------------------------------------


def _recursion_checker(term_exponents):
    """A checker of the contraction recursion whose magnitude terms have the
    exponents 1.5 (of eta) and those given (of L): 1.0 for the linear M,
    3.0, 2.0 and 1.0 for the cubic M."""

    def draw(rng):
        terms = [(rng.uniform(0.0, 3.0), 1.5, d) for d in term_exponents]
        c1, c2, c3 = rng.uniform(0.1, 1.9), rng.uniform(0.0, 2.0), rng.uniform(0.0, 3.0)
        return (RecursionParams(c1=c1, c2=c2, c3=c3, terms_mag=terms),)

    def check(trace, tol, params):
        return check_recursion(trace, params, tol)

    return "recursion_failure", _reference.recursion_sides, check, draw


def _pca_checker(krasulina: bool):
    def draw(rng):
        return rng.uniform(0.2, 2.0), rng.uniform(0.05, 0.95), krasulina

    def check(trace, tol, b, rho, krasulina):
        return check_pca_recursion(trace, b, rho, "krasulina" if krasulina else "oja", tol)

    return "pca_failure", _reference.pca_sides, check, draw


# name -> (kernels method, its numpy sides, check(trace, tol, *constants),
# draw(rng) -> the constants the method and the sides take after tol)
CHECKERS = {
    "contraction": _recursion_checker(()),
    "rm-linear": _recursion_checker((1.0,)),
    "rm-cubic": _recursion_checker((3.0, 2.0, 1.0)),
    "krasulina": _pca_checker(True),
    "oja": _pca_checker(False),
}
SPECIALS = (math.nan, math.inf, -math.inf, 0.0, -0.0)


def _check_path(rng, horizon: int, tol: float, sides, constants, ties: dict) -> tuple:
    """losses, steps and noise of a path that keeps to its checker's bounds
    but for one side in 30, which overshoots by up to 50 %, so that it may
    fail at any step or none; at the steps in ties it meets the bound of
    the named kind exactly: L_t = rec_rhs + slack, or |U_t| = mag_rhs +
    slack, computed by the sides of the path's one step.  Losses may
    overflow to inf, whose nan sides the checks must fail too."""
    losses = np.zeros(horizon + 1)
    losses[0] = rng.exponential(rng.choice([1e-3, 1.0, 1e3]))
    steps, noise = rng.uniform(0.01, 1.0, horizon), np.zeros(horizon)
    with np.errstate(all="ignore"):
        for t in range(horizon):
            step = (losses[t : t + 2], steps[t : t + 1], noise[t : t + 1], tol, *constants)
            _, rec_rhs, _, mag_rhs, slack = sides(*step)
            bound, room = (mag_rhs + slack)[0], (rec_rhs + slack)[0]
            low = -min(1.0, max(room, 0.0) / bound) if bound > 0 else 0.0  # rec_rhs + slack >= 0
            tie = ties.get(t)
            over = rng.uniform(1.0, 1.5, 2) ** (rng.random(2) < 1 / 30)
            sign = rng.choice([-1.0, 1.0])
            noise[t] = bound * (sign if tie == "magnitude" else rng.uniform(low, over[0]))
            _, rec_rhs, _, _, slack = sides(*step)
            bound = (rec_rhs + slack)[0]
            share = 1.0 if tie == "recursion" else rng.uniform(0.0, over[1])
            losses[t + 1] = max(0.0, bound * share)
    return losses, steps, noise


def _report_bytes(report) -> tuple:
    v = report.first_violation
    if v is None:
        return (report.ok,)
    return report.ok, v.t, v.kind, np.float64(v.lhs).tobytes(), np.float64(v.rhs).tobytes()


@needs_kernel
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(CHECKERS))
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    horizon=st.integers(0, 30),
    tol=st.sampled_from((0.0, 1e-10, 1e-3)),
    ties=st.dictionaries(
        st.integers(0, 29), st.sampled_from(("recursion", "magnitude")), max_size=4
    ),
    specials=st.lists(
        st.tuples(st.sampled_from((0, 2)), st.integers(0, 30), st.sampled_from(SPECIALS)),
        max_size=3,
    ),
)
def test_compiled_checks_match_reference(name, seed, horizon, tol, ties, specials):
    # the first failing step, and the whole report, of paths with nan and
    # +-inf losses and noise, tol = 0 beside an infinite loss (a nan
    # slack), and sides that meet their bounds exactly
    method, sides, check, draw = CHECKERS[name]
    rng = np.random.default_rng(seed)
    constants = draw(rng)
    path = _check_path(rng, horizon, tol, sides, constants, ties)
    for which, i, value in specials:
        if len(path[which]):
            path[which][i % len(path[which])] = value
    compiled = _kernel.load()
    t = getattr(compiled, method)(*path, tol, *constants)
    assert t == getattr(REFERENCE, method)(*path, tol, *constants)
    if (path[0] < 0).any():
        return  # -inf: no Trace
    reports = []
    for kernels in (compiled, REFERENCE):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernel, "load", lambda: kernels)
            reports.append(_report_bytes(check(Trace(*path), tol, *constants)))
    assert reports[0] == reports[1]
    assert reports[0][0] == (t < 0) and (t < 0 or reports[0][1] == t + 1)


@needs_kernel
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(CHECKERS))
def test_checks_keep_numpy_nan_and_tie_rules(name):
    method, sides, _, draw = CHECKERS[name]
    constants = draw(np.random.default_rng(5))
    steps = np.array([0.25, 0.125])

    def first_failure(losses, noise, tol) -> int:
        path = (np.array(losses, dtype=float), steps[: len(noise)], np.array(noise), tol)
        t = getattr(_kernel.load(), method)(*path, *constants)
        assert t == getattr(REFERENCE, method)(*path, *constants)
        return t

    inf, nan = math.inf, math.nan
    # slack = tol * np.maximum(1.0, L): infinite for an infinite loss, but
    # nan for tol = 0 and for a nan loss, which fails the step
    assert first_failure([inf, inf, inf], [0.0, 0.0], 1e-10) == -1
    assert first_failure([inf, inf, inf], [0.0, 0.0], 0.0) == 0
    assert first_failure([1.0, 0.5, nan], [0.0, 0.0], 1e-10) == 1
    assert first_failure([1.0, nan, 0.5], [0.0, 0.0], 1e-10) == 0
    assert first_failure([1.0, 0.5, 0.25], [0.0, nan], 1e-10) == 1
    # a side that meets its bound passes, one ulp more fails
    for tol in (0.0, 1e-10):
        losses = np.array([4.0, 0.0])
        _, _, _, mag_rhs, slack = sides(losses, steps[:1], np.zeros(1), tol, *constants)
        u = (mag_rhs + slack)[0]
        assert first_failure([4.0, 0.0], [u], tol) == -1
        assert first_failure([4.0, 0.0], [np.nextafter(u, inf)], tol) == 0
        _, rec_rhs, _, _, slack = sides(losses, steps[:1], np.array([u]), tol, *constants)
        lc = (rec_rhs + slack)[0]
        assert first_failure([4.0, lc], [u], tol) == -1
        assert first_failure([4.0, np.nextafter(lc, inf)], [u], tol) == 0
    # C reads m + 1 losses and m noise values: other lengths are refused
    with pytest.raises(ValueError, match="check kernel"):
        getattr(_kernel.load(), method)(np.ones(3), steps, np.zeros(1), 0.0, *constants)


@needs_kernel
def test_passing_checks_make_no_reference_call(monkeypatch):
    # with the compiled kernels loaded, a passing path is decided in C with
    # no numpy pass over it but its magnitude terms, as the WIDE test
    # asks of the chunks; a failing path builds its report from the
    # reference's numpy sides
    called = []
    for owner, names in (
        (Reference, ("recursion_failure", "pca_failure")),
        (_reference, ("recursion_sides", "pca_sides", "_first_failure")),
    ):
        for name in names:
            spied = lambda *a, _f=getattr(owner, name), _n=name: called.append(_n) or _f(*a)
            monkeypatch.setattr(owner, name, spied)
    seeds = [rep_seed(3, i) for i in range(4)]
    etas = StepSchedule.inverse_time(1.0, 32.0).etas(300)
    sgd = SgdProblem(curvature=(1.0, 1.0), x_star=(0.0, 0.0), radius=0.5, b_noise=0.5)
    res = sgd_batch(sgd, etas, np.array([0.5, 0.0]), seeds)
    pca = PcaProblem(eigs=(2.0, 1.0))
    v0 = np.tile(_unit([1.0, 1.0]), (len(seeds), 1))
    rm = rm_batch(RM_LINEAR, etas, 1.0, seeds)
    paths = [
        (check_recursion, res["loss_sc"], res["noise_sc"], algorithms.sgd_recursion_params(sgd)),
        (check_recursion, res["loss_pl"], res["noise_pl"], algorithms.pl_recursion_params(sgd)),
        (check_recursion, rm["loss"], rm["noise"], algorithms.rm_recursion_params(RM_LINEAR)),
    ]
    for variant in ("krasulina", "oja"):
        got = pca_batch(pca, etas, v0, seeds, variant, variant == "oja")
        check = lambda tr, p, tol, _v=variant: check_pca_recursion(tr, pca.b, pca.rho, _v, tol)
        paths.append((check, got["loss"], got["q"], None))
    for check, losses, noise, params in paths:
        for i in range(len(seeds)):
            assert check(Trace(losses[i], etas, noise[i]), params, 1e-10).ok
    assert called == []
    for (check, losses, noise, params), sides in zip(paths[2:4], ("recursion_sides", "pca_sides")):
        bad = losses[0].copy()
        bad[7] = 10.0 * bad[6] + 1.0
        assert check(Trace(bad, etas, noise[0]), params, 1e-10).first_violation.t == 7
        assert called == [sides]
        called.clear()


# ---------------------------------------------------------------------------
# The reference checks with the reference kernels
# ---------------------------------------------------------------------------


@pytest.fixture
def numpy_steps(monkeypatch):
    # the engines take their generators from _kernel.load() as well, so
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
    # _lil_batch looks lil_chunk up through _kernel.load, so the reference
    # steps and folds whenever the engines run the reference: 16 steps, in
    # one call from t = 1
    calls = []
    chunk = Reference.lil_chunk
    numpy_steps.setattr(
        Reference, "lil_chunk", lambda k, *a: calls.append(a[2:4]) or chunk(k, *a)
    )
    _lil_batch(RM_LINEAR, 1.0, 3, [rep_seed(1, 0)], 1.0)
    assert calls == [(1, 16)]


@needs_kernel
def test_lil_runs_make_one_compiled_lil_chunk(monkeypatch):
    # a LIL run, linear or cubic, seeds its generators and then steps and
    # folds in one C lil_chunk call, drawing nothing through the draw loops,
    # over a horizon of 2^16 steps that spans 4 of the call's own slices
    k = _kernel.load()
    called = []

    class Lib:
        def __getattr__(self, name, _lib=k._lib):
            fn = getattr(_lib, name)
            return lambda *a: called.append(name) or fn(*a)

    monkeypatch.setattr(k, "_lib", Lib())
    seeds = [rep_seed(1, i) for i in range(3)]
    cubic = RmProblem(m_kind="cubic_plus_linear", cub_a=0.3, cub_b=1.0)
    for problem in (cubic, RM_LINEAR):
        called.clear()
        _lil_batch(problem, 1.0, 15, seeds, 1.0)
        assert called == ["seed_states", "lil_chunk"], problem.m_kind


SMALL_SGD = dict(test_cli.SGD_CFG, n_reps=4, horizon=20, record_grid=[])
WIDE_SGD = {
    "curvature": [1.0] * 8, "x_star": [0.0] * 8, "radius": 0.5, "b_noise": 0.5,
    "x0": [0.5] + [0.0] * 7,
}
LIL_CFG = {"l1": 1.0, "l2": 1.0, "n_blocks": 3, "n_seeds": 2, "seed_base": 4}
CUBIC = {"m_kind": "cubic_plus_linear", "cub_a": 0.3, "cub_b": 1.0}
# case -> (command, config, report file)
REPORTS = {
    "coverage": ("coverage", SMALL_SGD, "coverage_report.json"),
    "coverage-wide": ("coverage", dict(SMALL_SGD, problem=WIDE_SGD), "coverage_report.json"),
    "last-iterate": ("last-iterate", dict(SMALL_SGD, t_eval=20), "last_iterate_report.json"),
    "lil": ("lil", LIL_CFG, "lil_report.json"),
    "lil-cubic": ("lil", dict(LIL_CFG, **CUBIC), "lil_report.json"),
    "oja-cold-start": (
        "oja-cold-start",
        dict(test_cli.COLD_START_CFG, n_reps=4, horizon=20),
        "cold_start_report.json",
    ),
}


@pytest.mark.parametrize("reference", [False, True])
@pytest.mark.parametrize("name", sorted(REPORTS))
def test_reports_name_their_kernels(name, reference, tmp_path, monkeypatch):
    # timing names the kernels the engines got, the cubic M's included: the
    # reference without a compiler or when load is patched
    command, cfg, report = REPORTS[name]
    if reference:
        monkeypatch.setattr(_kernel, "load", reference_load)
    compiled = isinstance(_kernel.load(), StepKernels)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert test_cli.run([command, "--config", str(path), "--out-dir", str(tmp_path)]) in (0, 1)
    timing = json.loads((tmp_path / report).read_text())["timing"]
    assert timing["kernels"] == ("compiled" if compiled else "reference")


@needs_kernel
@pytest.mark.parametrize("name", ["coverage", "lil"])
def test_runs_hand_generators_their_seed_pairs(name, tmp_path, monkeypatch):
    # a coverage run and a lil run seed replication i with (seed_base, i),
    # rep_seed's entropy, which the compiled generators mix in C: no
    # SeedSequence reaches them
    command, cfg, _ = REPORTS[name]
    handed = []
    generators = StepKernels.generators
    monkeypatch.setattr(
        StepKernels, "generators", lambda k, seeds: handed.extend(seeds) or generators(k, seeds)
    )
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert test_cli.run([command, "--config", str(path), "--out-dir", str(tmp_path)]) in (0, 1)
    n = cfg["n_reps"] if command == "coverage" else cfg["n_seeds"]
    assert handed == [(cfg["seed_base"], i) for i in range(n)]
    assert not any(isinstance(s, np.random.SeedSequence) for s in handed)


@pytest.mark.filterwarnings("error")
def test_diverging_lil_run_on_numpy_path(tmp_path, capsys, numpy_steps):
    test_cli.test_diverging_lil_run_is_an_internal_error(tmp_path, capsys)


# ---------------------------------------------------------------------------
# Loader
# ---------------------------------------------------------------------------


def quick_builds(monkeypatch) -> None:
    """Build at -O0, which writes the default build's bytes
    (test_optimisation_level_changes_no_byte) in a fraction of its build
    time, for the tests of how the loader builds, not of what it builds."""
    flags = tuple("-O0" if f.startswith("-O") else f for f in _kernel.FLAGS)
    monkeypatch.setattr(_kernel, "FLAGS", flags)


def _reference_run():
    _, run = CASES["sgd-d3"]
    seeds = [rep_seed(5, i) for i in range(4)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernel, "load", reference_load)
        return run, seeds, as_bytes(run(seeds))


# a copy of _steps.c whose generators are not numpy's, and what the note names
MISMATCHES = {
    # wi_double[0] negated flips the sign of layer 0's normals, as when
    # numpy's ziggurat changes
    "numpy-mismatch": (r"(\bwi_double\[256\] = \{\s*)", r"\1-", "standard_normal"),
    # one SeedSequence hash constant changed, as when numpy's seeding changes
    "seed-mismatch": (r"(#define SS_MULT_B 0x58f38de)d", r"\1c", "SeedSequence"),
    # one constant of SeedSequence's mix changed, as when numpy's mixing of
    # entropy words changes: the pools still seed numpy's states
    "entropy-mismatch": (r"(#define SS_MIX_L 0xca01f9d)d", r"\1c", "entropy mixing"),
}


@pytest.mark.parametrize(
    "broken", ["missing-compiler", "failing-compiler", "unwritable-cache", *MISMATCHES]
)
def test_loader_falls_back_with_one_note(broken, tmp_path, monkeypatch, capsys):
    run, seeds, reference = _reference_run()
    quick_builds(monkeypatch)
    cache, cc = tmp_path / "cache", None
    if broken == "missing-compiler":
        cc = [str(tmp_path / "no-such-cc")]
    elif broken == "failing-compiler":
        cc = [sys.executable, "-c", "raise SystemExit(1)"]
    elif broken == "unwritable-cache":
        (tmp_path / "file").write_text("")
        cache = tmp_path / "file" / "cache"  # a directory under a file cannot be made
    else:
        # a library whose draws are not numpy's, which the loader's check of
        # seed_states, normal_fill and sign_draw against numpy catches
        if _kernel.load() is REFERENCE:
            pytest.skip("no C compiler here")
        pattern, replacement, _ = MISMATCHES[broken]
        source = _kernel.SOURCE.read_text()
        changed = re.sub(pattern, replacement, source, count=1)
        assert changed != source
        monkeypatch.setattr(_kernel, "SOURCE", tmp_path / "_steps.c")
        _kernel.SOURCE.write_text(changed)
    loader = _kernel.Loader(cache_dir=cache, cc=cc)
    monkeypatch.setattr(_kernel, "load", lambda: loader.get())
    capsys.readouterr()
    for _ in range(3):
        assert as_bytes(run(seeds)) == reference
    assert loader.get() is REFERENCE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "compiled step loops unavailable" in err
    if broken in MISMATCHES:
        assert MISMATCHES[broken][2] in err
    if broken in ("missing-compiler", "failing-compiler"):
        assert list(cache.iterdir()) == []  # no partial library left behind


def test_links_to_the_interpreter_share_one_build(tmp_path, monkeypatch):
    # python and python3 are links to one interpreter, which names the
    # compiler: the cache key hashes its real path, so a process started
    # through either link finds the library the other built
    link = tmp_path / "python-link"
    link.symlink_to(os.path.realpath(sys.executable))
    builds = []
    monkeypatch.setattr(
        _kernel, "_compile", lambda cc, source, out: builds.append(out) or Path(out).touch()
    )
    paths = []
    for executable in (sys.executable, str(link), os.path.realpath(sys.executable)):
        monkeypatch.setattr(sys, "executable", executable)
        paths.append(_kernel.Loader(cache_dir=tmp_path / "cache", cc=["cc"])._build())
    assert len(builds) == 1 and len(set(paths)) == 1 and paths[0].is_file()


def test_every_field_of_the_build_key_names_another_library(tmp_path, monkeypatch):
    # the source, the flags, the compiler, the interpreter's real path and
    # the machine each change the library's name, so no process loads a
    # library built from another of them
    monkeypatch.setattr(
        _kernel, "_compile", lambda cc, source, out: Path(out).write_bytes(source)
    )
    source = tmp_path / "_steps.c"
    source.write_bytes(_kernel.SOURCE.read_bytes())
    monkeypatch.setattr(_kernel, "SOURCE", source)
    machine = os.uname()

    def build(cc=("cc",)) -> Path:
        return _kernel.Loader(cache_dir=tmp_path / "cache", cc=list(cc))._build()

    paths = [build(), build(("cc", "-m64"))]
    source.write_bytes(source.read_bytes() + b"\n")
    paths.append(build())
    monkeypatch.setattr(_kernel, "FLAGS", (*_kernel.FLAGS, "-g"))
    paths.append(build())
    monkeypatch.setattr(sys, "executable", str(tmp_path / "other-python"))
    paths.append(build())
    fields = list(machine)
    fields[4] = machine.machine + "-other"
    monkeypatch.setattr(os, "uname", lambda: os.uname_result(fields))
    paths.append(build())
    assert len(set(paths)) == len(paths) and all(p.is_file() for p in paths)
    assert build() == paths[-1]  # and the same fields name the same one


def test_a_library_that_builds_is_loaded():
    # needs_kernel skips whenever load() gives the reference; with a compiler
    # here, that must not happen silently, as when the library's normals fail
    # the loader's check against numpy's
    try:
        _kernel.Loader()._build()
    except OSError:
        pytest.skip("no C compiler here")
    assert isinstance(_kernel.load(), StepKernels)


@needs_kernel
def test_threads_share_one_build(tmp_path, monkeypatch):
    run, seeds, reference = _reference_run()
    quick_builds(monkeypatch)
    loader = _kernel.Loader(cache_dir=tmp_path)
    monkeypatch.setattr(_kernel, "load", lambda: loader.get())
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


@needs_kernel
def test_cached_load_imports_no_sysconfig():
    # this process has built and cached the library; a fresh interpreter
    # loads it without compiling and without _sysconfigdata, whose import
    # would cost a cached load more than half its time
    code = (
        "import sys\n"
        "from anytime_iter import _kernel\n"
        "assert isinstance(_kernel.load(), _kernel.StepKernels)\n"
        "loaded = [m for m in sys.modules if m.startswith('_sysconfigdata')]\n"
        "assert not loaded, loaded\n"
        "assert 'subprocess' not in sys.modules, 'compiled'\n"
    )
    env = dict(os.environ, PYTHONPATH=_kernel.SOURCE.parents[1].as_posix())
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_import_builds_nothing(tmp_path):
    # the library is built, loaded and checked on the first engine call,
    # never at import
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
