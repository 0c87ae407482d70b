"""Which kernels the engines run, and the loader of the compiled ones.

Every engine in algorithms, the LIL statistic in harness and the
recursion checkers call the object load() returns: the compiled
StepKernels when _steps.c could be built and loaded, else
_reference.REFERENCE, the numpy chunk methods, draws and checks.
StepKernels subclasses Reference and overrides every one of its public
methods, with the same arguments, but sphere, which in both is the
object's normals, then _reference._onto_sphere; each override computes its
whole call in C.  Each object's draw and chunk methods take what its own
generators(seeds) returns:

  * the SGD, PCA, root-finding and ridge chunks: one C call per chunk,
    replication-major, that steps each replication's iterate in locals and
    writes its losses, and its channels when the engine records them,
    straight into row i of the (N, T) results or chunk buffer, drawing each
    replication's values from its own generator (ridge its uniforms from a
    copy of the state jumped past the chunk's signs, as PCG64.advance
    jumps), with no draw chunk and no trajectory buffer.  C performs the
    reference's correctly rounded IEEE operations in the same order, each
    numpy expression left to right with its parentheses, built without
    contraction into fused multiply-adds and without -ffast-math (FLAGS),
    and sums coordinates as np.sum does, with the closing +0.0 of
    _reference._sum_last: fewer than 8 terms left to right, more with
    numpy's pairwise sum.  So they write the reference's bytes for finite
    inputs and for the nan invalid operations give; where a nan of the
    other sign that a caller supplies meets another nan, the two may keep
    different ones, which the engines' own finite draws never meet.  The
    chunks step every width, those of widths 2 and 4 on the stack with
    their coordinate loops unrolled and all others on scratch from the heap
    (a failed allocation raises MemoryError).  rm_chunk and lil_chunk step
    the linear and the cubic M alike, each in a loop compiled for it:
    RmProblem forms the cubic M's powers as products, u*u*u, which C rounds
    as numpy does, where numpy's own power loops need not round as libm's
    pow;
  * the generators and every draw: generators turns each int seed or
    sequence of ints into its entropy words (_entropy_words) and takes any
    other seed's SeedSequence.pool, and one C call seeds an (n,
    STATE_WORDS) uint64 array of PCG64 states from them as default_rng
    would (seed_states), mixing entropy words into a pool as
    SeedSequence.mix_entropy does, so no SeedSequence is built for the
    harness's (seed_base, i) seeds; the kernels own the states, declare no
    numpy struct and need no generator lock.  C steps each state inline as
    numpy's PCG64 does, through its next64, next_double and next32 with the
    spare half word, and performs the transforms of the functions Generator
    calls, per generator in the same order: random_standard_normal's
    ziggurat, whose tables _steps.c copies from numpy's libnpyrandom.a,
    random_uniform, and the range-1 step of random_bounded_uint64_fill.
    sphere scales C's normals onto the sphere with the reference's
    _onto_sphere, whose sum of squares is np.sum's at every width; the
    harness draws the PCA runs' initial directions with normals.  So each
    value is numpy's, every state is the one numpy's generator would reach
    (states turns the rows into bit_generator.state dicts), and no numpy
    function is called, compiled or linked.  On the first get() the loader
    compares the seeding and the draws with numpy's (_check_draws), so that
    a numpy whose seeding, entropy mixing, PCG64 or ziggurat has changed
    gets the reference rather than other numbers;
  * the LIL chunk lil_chunk: one C call that runs rm_chunk's steps, with
    eta_t = l1/t, the division np.divide(l1, t) makes, and folds each
    statistic (t*dev)*dev/log log t, with log log t from libm's log, which
    math.log calls, into each replication's block maxima with np.maximum's
    rule for nan, storing no deviation.  A nan in the maxima may differ in
    sign from the reference's, whose max over two or more of a diverging
    path's -nan statistics returns +nan; run_lil_ensemble refuses any nan;
  * the recursion checks recursion_failure and pca_failure: one C pass over
    a path that evaluates the reference's numpy sides (_reference.
    recursion_sides and pca_sides) step by step, in their order and with
    their parentheses, with np.maximum's and the comparisons' rules for
    nan, and returns the first failing step or -1.  It builds no array but
    the magnitude terms of recursion_failure, which numpy forms
    (_reference.magnitude_terms), since numpy's powers need not round as
    libm's pow does; the constants the checkers form in Python, such as
    8.0 * b**2, come in as doubles.  The checkers build a failing path's
    report from the numpy sides.

The library is built on first use, never at import: the C compiler Python
was built with (sysconfig's CC) compiles _steps.c with FLAGS into
$XDG_CACHE_HOME/anytime-iter/ (default ~/.cache/anytime-iter/), under a name
that hashes the source, the flags, the compiler a Loader was given, the
interpreter's real path and version (its sysconfig names the default
compiler; links to it, such as python and python3, share one build) and the
machine, so later processes load it from the cache without importing
sysconfig.  The build renames a temporary file into place, so concurrent
processes never load a partial file, and a lock makes threads of one
process build it once.  When there is no compiler, the build fails, the
cache cannot be written or the compiled seeding or draws differ from
numpy's, load() returns the reference, with one note per process on
stderr.

ctypes.CDLL releases the interpreter lock during each call, so engines on
several threads, each with its own generator states, draw and step in
parallel.  Each binding checks the dtype,
contiguity and shape of every array before it passes a pointer; the outputs
of the chunks, column slices of the engines' (N, T) results, need a unit
column stride and pass their row stride along.
"""
from __future__ import annotations

import ctypes
import hashlib
import math
import os
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np

from ._reference import REFERENCE, Reference, magnitude_terms

SOURCE = Path(__file__).with_name("_steps.c")
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")

_P, _L, _D, _I = ctypes.c_void_p, ctypes.c_long, ctypes.c_double, ctypes.c_int
_SIGNATURES = {
    "sgd_chunk": ([_P] * 5 + [_L] * 3 + [_D] * 4 + [_P, _L, _P, _L] + [_P] * 5 + [_L], _L),
    "pca_chunk": ([_P] * 6 + [_L] * 3 + [_I] * 2 + [_P, _L] + [_P] * 4 + [_L], _L),
    "rm_chunk": ([_P] * 3 + [_L] * 2 + [_P, _I] + [_D] * 2 + [_P, _L, _P, _P, _L], None),
    "lil_chunk": ([_P] * 2 + [_L] * 3 + [_D, _P, _I] + [_D] * 2 + [_P, _L, _P], None),
    "ridge_chunk": ([_P] * 4 + [_L] * 3 + [_D] * 4 + [_I, _D, _D, _P, _L], _L),
    "seed_states": ([_P] * 3 + [_L], None),
    "normal_fill": ([_P, _L, _P, _P], _L),
    "normal_draw": ([_P] * 2 + [_L] * 3, None),
    "sign_draw": ([_P] * 3 + [_L] * 3, None),
    "lil_loglog": ([_P] + [_L] * 2, None),
    "recursion_failure": ([_P] * 3 + [_L] + [_D] * 4 + [_P, _L], _L),
    "pca_failure": ([_P] * 3 + [_L] + [_D] * 4 + [_I, _D], _L),
}
STATE_WORDS = 6  # uint64 values per generator; STATE_WORDS in _steps.c
_MASK32 = 0xFFFFFFFF
# what the loader compares with numpy (_check_draws): the states of these
# seeds, SELF_CHECK normals from the first, in blocks that keep the check
# from raising the process's peak memory, then an odd run of signs
SELF_CHECK, SELF_CHECK_BLOCK = 2**14, 2**10
SELF_CHECK_SIGNS = (3, 5)  # rows and width: 15 signs leave a spare half word


def _addr(a: np.ndarray, shape: tuple, dtype=np.float64) -> int:
    """Address of a's data, once a is checked to be a C-contiguous array of
    the given shape and dtype (float64 by default)."""
    if a.dtype != dtype or not a.flags.c_contiguous or a.shape != shape:
        raise ValueError(
            f"step kernel needs a C-contiguous {np.dtype(dtype)} array of shape {shape}, "
            f"got {a.dtype} {a.shape}"
        )
    return a.ctypes.data


def _rows(a: np.ndarray, shape: tuple) -> tuple:
    """Address of a's data and its row stride in values, once a is checked to
    be a writeable float64 array of the given (n, m) shape with adjacent
    columns, such as a column slice of an engine's (N, T) result."""
    if (
        a.dtype != np.float64
        or a.shape != shape
        or a.strides[1] != a.itemsize
        or a.strides[0] % a.itemsize
        or not a.flags.writeable
    ):
        raise ValueError(
            f"chunk kernel needs a writeable float64 array of shape {shape} with unit "
            f"column stride, got {a.dtype} {a.shape} strides {a.strides}"
        )
    return a.ctypes.data, a.strides[0] // a.itemsize


def _channels(arrays, shape: tuple) -> list:
    """The addresses of the channel arrays, then their common row stride."""
    rows = [_rows(a, shape) for a in arrays]
    strides = {ld for _, ld in rows}
    if len(strides) != 1:
        raise ValueError(f"chunk kernel needs channel arrays of one row stride, got {strides}")
    return [addr for addr, _ in rows] + [strides.pop()]


def _iterates(state) -> tuple:
    """Address, rows and coordinates of the (n, d) iterates state, once
    checked to be a C-contiguous float64 array with d >= 1."""
    n, d = state.shape
    if d < 1:
        raise ValueError("step kernel needs iterates of at least one coordinate")
    return _addr(state, (n, d)), n, d


def _scratch(ret: int) -> int:
    """ret, the value of a chunk, once checked not to be the -1 a chunk
    returns when the heap scratch of a width other than 2 and 4 cannot be
    allocated."""
    if ret < 0:
        raise MemoryError("step kernel could not allocate its scratch")
    return ret


def _steps(etas) -> tuple:
    """The step sizes as a contiguous float64 array, and their count."""
    etas = np.ascontiguousarray(etas, dtype=np.float64)
    return etas, len(etas)


def _path(losses, steps, noise) -> tuple:
    """A path's m + 1 losses and m steps and noise values, once checked, as
    C-contiguous float64 arrays, copied only where they are not, and m:
    arrays, not addresses, so that the caller holds any copy while C reads
    it."""
    path = [np.ascontiguousarray(a, dtype=np.float64) for a in (losses, steps, noise)]
    m = len(path[1])
    if [a.shape for a in path] != [(m + 1,), (m,), (m,)]:
        raise ValueError(
            "check kernel needs m + 1 losses and m steps and noise values, "
            f"got shapes {[a.shape for a in path]}"
        )
    return (*path, m)


def _rm_constants(problem, radius: float) -> tuple:
    """The root-finding steps of the RmProblem problem with noise uniform
    on [-radius, radius], as rm_chunk and lil_chunk in _steps.c take them:
    the rm_consts array theta, a, b, a2, ab2, b2, r1sq of its M and
    envelope, formed in Python as m_func, poly_sq and the reference pass
    form them; whether M is cubic; and the low and range that
    Generator.uniform(-radius, radius) forms."""
    p = problem
    cubic = p.m_kind != "linear"
    if cubic:
        m = (p.cub_a, p.cub_b, p.cub_a**2, 2.0 * p.cub_a * p.cub_b, p.cub_b**2)
    else:
        m = (0.0, p.slope, 0.0, 0.0, p.slope**2)
    consts = np.array([p.theta, *m, p.r1**2], dtype=np.float64)
    return consts, int(cubic), -radius, radius - -radius


def _gens(gens, n: int) -> int:
    """Address of gens, once checked to be the writeable (n, STATE_WORDS)
    uint64 array of generator states StepKernels.generators returns."""
    if not gens.flags.writeable:
        raise ValueError("step kernel needs writeable generator states")
    return _addr(gens, (n, STATE_WORDS), np.uint64)


def _entropy_words(seed):
    """The uint32 entropy words SeedSequence(seed) mixes into its pool, when
    seed is a non-negative int or a list, tuple or range of them: each int's
    32-bit words, low word first, and 0 as one word, as numpy's
    _coerce_to_uint32_array gives them.  None for any other seed, which
    SeedSequence(seed) takes or refuses."""
    if type(seed) is int:
        seed = (seed,)
    elif not isinstance(seed, (list, tuple, range)):
        return None
    words = []
    for v in seed:
        if type(v) is int and 0 <= v <= _MASK32:
            words.append(v)
        elif isinstance(v, (int, np.integer)) and v >= 0:
            v = int(v)
            words.append(v & _MASK32)
            while v > _MASK32:
                v >>= 32
                words.append(v & _MASK32)
        else:
            return None
    return words


class StepKernels(Reference):
    """Checked bindings of the functions in _steps.c, with Reference's
    methods and arguments.

    The draw and chunk methods take the generator states generators
    returned, an (n, STATE_WORDS) uint64 array, and advance them in place;
    a call owns the rows it is given, so calls on different arrays run on
    different threads at once.
    """

    def __init__(self, lib: ctypes.CDLL):
        for name, (argtypes, restype) in _SIGNATURES.items():
            fn = getattr(lib, name)
            fn.argtypes, fn.restype = argtypes, restype
        self._lib = lib

    def generators(self, seeds):
        """Row i holds the PCG64 state of default_rng(seeds[i]), built in C
        (seed_states) from the entropy words of an int seed or a sequence of
        ints (_entropy_words), or else from the pool of the seed's
        SeedSequence: the seed itself, or SeedSequence(seed)."""
        words, sizes = [], []
        for s in seeds:
            entropy = _entropy_words(s)
            if entropy is not None:
                words += entropy
                sizes.append(len(entropy))
                continue
            if not isinstance(s, np.random.SeedSequence):
                s = np.random.SeedSequence(s)
            words += s.pool.tolist()
            sizes.append(-len(s.pool))  # a pool: seed_states skips the mixing
        flat = np.array(words, dtype=np.uint32)
        sizes = np.array(sizes, dtype=np.int_)
        states = np.empty((len(sizes), STATE_WORDS), dtype=np.uint64)
        self._lib.seed_states(states.ctypes.data, flat.ctypes.data, sizes.ctypes.data, len(sizes))
        return states

    def states(self, gens):
        return [
            {
                "bit_generator": "PCG64",
                "state": {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo},
                "has_uint32": has_uint32,
                "uinteger": uinteger,
            }
            for s_hi, s_lo, i_hi, i_lo, has_uint32, uinteger in gens.tolist()
        ]

    def normals(self, out, gens) -> None:
        rows, n, width = out.shape
        self._lib.normal_draw(_addr(out, (rows, n, width)), _gens(gens, n), rows, n, width)

    def signs(self, out, gens, scale=None) -> None:
        rows, n, width = out.shape
        self._lib.sign_draw(
            _addr(out, (rows, n, width)),
            _gens(gens, n),
            None if scale is None else _addr(scale, (width,)),
            rows, n, width,
        )

    def sgd_chunk(
        self, state, gens, etas, a, xs, radius: float, b_noise: float, half_mu: float, loss,
        *channels,
    ) -> int:
        iterates, n, d = _iterates(state)
        etas, m = _steps(etas)
        recorded = [None, 0] + [None] * 5 + [0]  # NULL channels: not recording
        if channels:
            loss_pl, *rest = channels
            recorded = [*_rows(loss_pl, (n, m)), *_channels(rest, (n, m))]
        return _scratch(self._lib.sgd_chunk(
            iterates,
            _gens(gens, n),
            _addr(etas, (m,)),
            _addr(a, (d,)),
            _addr(xs, (d,)),
            m, n, d, radius, radius * radius, b_noise, half_mu,
            *_rows(loss, (n, m)),
            *recorded,
        ))

    def pca_chunk(
        self, state, norms, gens, etas, scale, eigs, krasulina: bool, normalize: bool, loss,
        *channels,
    ) -> None:
        iterates, n, p = _iterates(state)
        etas, m = _steps(etas)
        recorded = _channels(channels, (n, m)) if channels else [None] * 4 + [0]
        _scratch(self._lib.pca_chunk(
            iterates,
            _addr(norms, (n,)),
            _gens(gens, n),
            _addr(scale, (p,)),
            _addr(etas, (m,)),
            _addr(eigs, (p,)),
            m, n, p, int(krasulina), int(normalize),
            *_rows(loss, (n, m)),
            *recorded,
        ))

    def rm_chunk(self, state, gens, etas, problem, radius: float, loss, *channels) -> None:
        etas, m = _steps(etas)
        n = len(state)
        recorded = _channels(channels, (n, m)) if channels else [None, None, 0]
        consts, cubic, low, span = _rm_constants(problem, radius)
        self._lib.rm_chunk(
            _addr(state, (n,)),
            _gens(gens, n),
            _addr(etas, (m,)),
            m, n, consts.ctypes.data, cubic, low, span,
            *_rows(loss, (n, m)),
            *recorded,
        )

    def ridge_chunk(
        self, state, gens, etas, stream, lambda_pen, penalty_in_gradient, radius, loss
    ) -> None:
        iterates, n, d = _iterates(state)
        etas, m = _steps(etas)
        theta_star, r = np.array(stream.theta_star), stream.noise_radius
        _scratch(self._lib.ridge_chunk(
            iterates,
            _gens(gens, n),
            _addr(etas, (m,)),
            _addr(theta_star, (d,)),
            m, n, d, stream.x_radius / math.sqrt(d), -r, r - -r,
            lambda_pen, int(penalty_in_gradient), radius, radius * radius,
            *_rows(loss, (n, m)),
        ))

    def lil_chunk(
        self, state, gens, t0: int, m: int, l1: float, problem, radius: float, block_max
    ) -> None:
        n_blocks, n = block_max.shape
        loglog = np.empty(m)
        consts, cubic, low, span = _rm_constants(problem, radius)
        self._lib.lil_chunk(
            _addr(state, (n,)),
            _gens(gens, n),
            t0, m, n, l1, consts.ctypes.data, cubic, low, span,
            _addr(block_max, (n_blocks, n)), n_blocks,
            _addr(loglog, (m,)),
        )

    def recursion_failure(self, losses, steps, noise, tol: float, params) -> int:
        losses, steps, noise, m = _path(losses, steps, noise)
        k = len(params.terms_mag)
        terms = magnitude_terms(losses, steps, params.terms_mag) if k else None
        return self._lib.recursion_failure(
            losses.ctypes.data, steps.ctypes.data, noise.ctypes.data, m,
            tol, params.c1, params.c2, params.c3, terms.ctypes.data if k else None, k,
        )

    def pca_failure(
        self, losses, steps, noise, tol: float, b: float, rho: float, krasulina: bool
    ) -> int:
        losses, steps, noise, m = _path(losses, steps, noise)
        # the constants _reference.pca_sides forms in Python
        coef = 4.0 * b**4 if krasulina else 5.0 * b**4
        return self._lib.pca_failure(
            losses.ctypes.data, steps.ctypes.data, noise.ctypes.data, m,
            tol, 2.0 * rho, coef, b**6, int(not krasulina), 8.0 * b**2,
        )


def _compile(cc: list, source: bytes, out: str) -> None:
    """Compile the C source into the shared library out; raises OSError if
    the compiler is missing or fails."""
    # imported here: a process that finds the library cached never needs
    # subprocess, whose import takes about 7 ms
    import subprocess

    cmd = [*cc, *FLAGS, "-x", "c", "-", "-o", out]
    proc = subprocess.run(cmd, input=source, capture_output=True)
    if proc.returncode:
        last = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
        raise OSError(f"{cc[0]} exited with {proc.returncode}: {''.join(last)}")


def _default_cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME")
    if not base or not os.path.isabs(base):
        base = Path.home() / ".cache"
    return Path(base) / "anytime-iter"


def _default_cc() -> list:
    import shlex
    import sysconfig

    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def _check_draws(kernels: StepKernels) -> None:
    """Raise RuntimeError unless the compiled generators are numpy's, as a
    numpy whose seeding, PCG64 or transforms differ from the ones _steps.c
    reproduces would not be: seed_states must give default_rng's states
    for a few SeedSequences (large entropy, a spawn key, a wider pool) and
    for a few seeds it mixes from their entropy words itself (an int, a
    (seed_base, i) pair, an int of three words, five words); from the
    first, normal_fill must draw SELF_CHECK normals with the bytes
    Generator.standard_normal draws, then sign_draw an odd run of signs
    with the bytes Generator.integers(0, 2) draws, leaving a spare half
    word; and the generators must end in numpy's state."""
    pooled = [
        np.random.SeedSequence(0),
        np.random.SeedSequence([2**64 + 3, 2**32]),
        np.random.SeedSequence(2**70, spawn_key=(3,)),
        np.random.SeedSequence(7, pool_size=8),
    ]
    mixed = [5, (20260824, 3), 2**70 + 1, [1, 2**32 - 1, 0, 3, 2**31]]
    gens = kernels.generators(pooled + mixed)
    twins = [np.random.default_rng(s) for s in pooled + mixed]
    states, numpy_states = kernels.states(gens), [t.bit_generator.state for t in twins]
    k = len(pooled)
    if states[:k] != numpy_states[:k]:
        raise RuntimeError("compiled PCG64 seeding differs from numpy's SeedSequence and PCG64")
    if states[k:] != numpy_states[k:]:
        raise RuntimeError("compiled entropy mixing differs from numpy's SeedSequence")
    gen, twin = gens[:1], twins[0]
    got = np.empty(SELF_CHECK_BLOCK)
    same = True
    for _ in range(SELF_CHECK // SELF_CHECK_BLOCK):
        kernels._lib.normal_fill(gen.ctypes.data, SELF_CHECK_BLOCK, got.ctypes.data, None)
        same &= got.tobytes() == twin.standard_normal(SELF_CHECK_BLOCK).tobytes()
    if not same:
        raise RuntimeError("compiled normals differ from numpy's Generator.standard_normal")
    signs = np.empty((SELF_CHECK_SIGNS[0], 1, SELF_CHECK_SIGNS[1]))
    kernels.signs(signs, gen)
    want = twin.integers(0, 2, size=SELF_CHECK_SIGNS) * 2.0 - 1.0
    if signs[:, 0].tobytes() != want.tobytes() or kernels.states(gen) != [twin.bit_generator.state]:
        raise RuntimeError("compiled signs differ from numpy's Generator.integers")


class Loader:
    """Builds and loads the step library once, on the first get().

    cache_dir and cc default to the cache directory and compiler named in the
    module docstring.
    """

    def __init__(self, cache_dir=None, cc=None):
        self._cache_dir = cache_dir
        self._cc = cc
        self._lock = threading.Lock()
        self._kernels = None

    def get(self) -> Reference:
        """The bindings, or REFERENCE when the library cannot be built or
        loaded or its generators are not numpy's."""
        if self._kernels is None:
            with self._lock:
                if self._kernels is None:
                    self._kernels = self._load()
        return self._kernels

    def _load(self) -> Reference:
        try:
            kernels = StepKernels(ctypes.CDLL(str(self._build())))
            _check_draws(kernels)
            return kernels
        except (OSError, RuntimeError, AttributeError) as exc:
            reason = " ".join(str(exc).split()) or type(exc).__name__
            print(
                f"anytime-iter: compiled step loops unavailable ({reason}); "
                "running the numpy reference",
                file=sys.stderr,
            )
            return REFERENCE

    def _build(self) -> Path:
        """Path of the library, compiled into the cache first if missing."""
        cache = Path(self._cache_dir) if self._cache_dir is not None else _default_cache_dir()
        source = SOURCE.read_bytes()
        # The key hashes the source's bytes, then the repr of the other
        # fields: the repr of the whole source would take most of a cached
        # load's time.  The interpreter stands for its default compiler,
        # sysconfig's CC, which is resolved only to compile: loading
        # _sysconfigdata would cost a cached load more than half its time.
        # Its real path, so that links to one interpreter (python, python3)
        # share one build.  The machine too: a home directory may be shared
        # by different machines.
        python = os.path.realpath(sys.executable)
        tag = (FLAGS, self._cc, python, sys.version, os.uname().machine)
        key = hashlib.sha256(source)
        key.update(repr(tag).encode())
        path = cache / f"steps-{key.hexdigest()[:16]}.so"
        if path.is_file():
            return path
        cc = self._cc if self._cc is not None else _default_cc()
        cache.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=path.name, suffix=".tmp", dir=cache)
        os.close(fd)
        try:
            _compile(cc, source, tmp)
            os.replace(tmp, path)
        finally:
            Path(tmp).unlink(missing_ok=True)
        return path


_LOADER = Loader()


def load() -> Reference:
    """The process's kernels: the compiled ones, built on the first call, or
    REFERENCE (see the module docstring)."""
    return _LOADER.get()


def steps_by() -> str:
    """Which kernels step the engines, as reports name them: "compiled",
    or "reference" when load() gives the reference."""
    return "compiled" if isinstance(load(), StepKernels) else "reference"
