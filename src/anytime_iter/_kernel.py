"""Which kernels the engines run, and the loader of the compiled ones.

Every engine in algorithms, every batch sampler in streams and the LIL
reducer in harness call the object load(width) returns: the compiled
StepKernels when _steps.c could be built and loaded and a step carries at
most MAX_WIDTH coordinates, else _reference.REFERENCE, the numpy chunk
methods, step loops, passes, draws and reducer.  StepKernels subclasses
Reference and overrides only what C computes bit for bit:

  * the SGD, PCA and root-finding chunks, except the cubic M's, since
    numpy's u**3 matches neither u*u*u nor libm's pow: one C call per
    chunk, replication-major, that draws each replication's values from its
    own generator, steps its iterate in locals and writes its losses, and
    its channels when the engine records them, straight into row i of the
    (N, T) results or chunk buffer.  No draw chunk and no trajectory buffer
    is built.  C performs the reference's correctly rounded IEEE operations
    in the same order, each numpy expression left to right with its
    parentheses, built without contraction into fused multiply-adds and
    without -ffast-math (FLAGS), and sums coordinates left to right with the
    closing +0.0 of _reference._sum_last; np.sum adds 8 or more terms
    pairwise, hence MAX_WIDTH;
  * the ridge step loop, inside the reference's ridge chunk, whose draws
    stay per generator in numpy (see algorithms.ridge_batch);
  * the draws the streams samplers make, for every M: the C code calls
    numpy's exported distribution functions (random_standard_normal,
    random_bounded_uint64_fill, random_uniform), the ones Generator calls,
    per generator in the same order, then does the reference's IEEE
    operations, so each value comes from the machine code Generator runs and
    every generator ends in the same state.  They are looked up on the
    first get() with ctypes.CDLL on numpy.random._generator's shared object
    (as numpy's cffi example does) and passed as function pointers, so
    nothing of numpy is compiled or linked into the library; C gets each
    generator's bitgen_t as an opaque pointer from its bit generator's
    "BitGenerator" capsule.  The chunk calls draw the same way;
  * the LIL reducer lil_max: (t*dev)*dev/log log t, with log log t from
    libm's log, which math.log calls, folded into each replication's block
    maxima with np.maximum's rule for nan, in one call per chunk.

The library is built on first use, never at import: the C compiler Python
was built with (sysconfig's CC) compiles _steps.c with FLAGS into
$XDG_CACHE_HOME/anytime-iter/ (default ~/.cache/anytime-iter/), under a name
that hashes the source, the flags, the compiler and the platform, so later
processes load it from the cache.  The build renames a temporary file into
place, so concurrent processes never load a partial file, and a lock makes
threads of one process build it once.  When there is no compiler, the build
fails, the cache cannot be written or numpy's functions cannot be found,
every width gets the reference, with one note per process on stderr.

ctypes.CDLL releases the interpreter lock during each call, so engines on
several threads draw and step in parallel.  Each binding checks the dtype,
contiguity and shape of every array before it passes a pointer; the outputs
of the chunks, column slices of the engines' (N, T) results, need a unit
column stride and pass their row stride along.
"""
from __future__ import annotations

import ctypes
import hashlib
import os
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np

from ._reference import REFERENCE, Reference

SOURCE = Path(__file__).with_name("_steps.c")
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
MAX_WIDTH = 7  # coordinates per step at most; MAX_WIDTH in _steps.c
LANES = 8  # replications per block of a chunk call; LANES in _steps.c

_P, _L, _D, _I = ctypes.c_void_p, ctypes.c_long, ctypes.c_double, ctypes.c_int
_SIGNATURES = {
    "sgd_chunk": ([_P] * 5 + [_L] * 3 + [_D] * 4 + [_P, _L, _P, _L] + [_P] * 5 + [_L, _P], _L),
    "pca_chunk": ([_P] * 7 + [_L] * 3 + [_I] * 2 + [_P, _L] + [_P] * 4 + [_L, _P], None),
    "rm_chunk": ([_P] * 3 + [_L] * 2 + [_D] * 6 + [_I, _P, _L, _P, _P, _L, _P], None),
    "ridge_steps": ([_P] * 4 + [_L] * 3 + [_D, _I, _D, _D], None),
    "sphere_draw": ([_P] * 2 + [_L] * 3 + [_D, _P], None),
    "sign_draw": ([_P] * 4 + [_L] * 3 + [_P], None),
    "uniform_draw": ([_P] * 2 + [_L] * 2 + [_D] * 2 + [_P], None),
    "lil_loglog": ([_P] + [_L] * 2, None),
    "lil_max": ([_P] + [_L] * 4 + [_P, _L, _P], None),
}
# numpy's exported distribution functions the draw loops call, by the name of
# the StepKernels attribute that holds each address
_NUMPY_FUNCTIONS = {
    "_normal": "random_standard_normal",
    "_fill": "random_bounded_uint64_fill",
    "_uniform": "random_uniform",
}


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


def _width(d: int) -> int:
    """d, once checked to fit the chunks' coordinate buffers."""
    if not 1 <= d <= MAX_WIDTH:
        raise ValueError(f"chunk kernel needs 1 to {MAX_WIDTH} coordinates, got {d}")
    return d


def _steps(etas) -> tuple:
    """The step sizes as a contiguous float64 array, and their count."""
    etas = np.ascontiguousarray(etas, dtype=np.float64)
    return etas, len(etas)


class StepKernels(Reference):
    """Checked bindings of the functions in _steps.c, with Reference's
    methods and arguments.

    The draw methods take a streams.GeneratorBatch built with these kernels,
    whose bitgens hold the bit generator addresses bit_generators returned;
    the caller keeps those generators alive and uses them on no other
    thread meanwhile, since the draws bypass the bit generators' locks.
    """

    def __init__(self, lib: ctypes.CDLL, distributions: ctypes.CDLL):
        for name, (argtypes, restype) in _SIGNATURES.items():
            fn = getattr(lib, name)
            fn.argtypes, fn.restype = argtypes, restype
        for attr, name in _NUMPY_FUNCTIONS.items():
            setattr(self, attr, ctypes.cast(getattr(distributions, name), _P).value)
        self._lib = lib
        # keeps numpy's library, and so the addresses above, loaded
        self._distributions = distributions
        self._capsule_pointer = ctypes.PYFUNCTYPE(_P, ctypes.py_object, ctypes.c_char_p)(
            ("PyCapsule_GetPointer", ctypes.pythonapi)
        )

    def bit_generators(self, gens):
        """The (len(gens),) uintp array of the generators' bitgen_t addresses."""
        return np.array(
            [self._capsule_pointer(g.bit_generator.capsule, b"BitGenerator") for g in gens],
            dtype=np.uintp,
        )

    def sphere(self, out, gens, radius: float) -> None:
        rows, n, width = out.shape
        self._lib.sphere_draw(
            _addr(out, (rows, n, width)),
            _addr(gens.bitgens, (n,), np.uintp),
            rows, n, width, radius, self._normal,
        )

    def signs(self, out, gens, scale=None) -> None:
        rows, n, width = out.shape
        tmp = np.empty(rows * width, dtype=np.uint64)
        self._lib.sign_draw(
            _addr(out, (rows, n, width)),
            _addr(gens.bitgens, (n,), np.uintp),
            _addr(tmp, (rows * width,), np.uint64),
            None if scale is None else _addr(scale, (width,)),
            rows, n, width, self._fill,
        )

    def uniform(self, out, gens, low: float, high: float) -> None:
        rows, n = out.shape
        self._lib.uniform_draw(
            _addr(out, (rows, n)),
            _addr(gens.bitgens, (n,), np.uintp),
            rows, n, low, high - low, self._uniform,
        )

    def sgd_chunk(
        self, state, gens, etas, a, xs, radius: float, b_noise: float, half_mu: float, loss,
        *channels,
    ) -> int:
        etas, m = _steps(etas)
        n, d = state.shape
        recorded = [None, 0] + [None] * 5 + [0]  # NULL channels: not recording
        if channels:
            loss_pl, *rest = channels
            recorded = [*_rows(loss_pl, (n, m)), *_channels(rest, (n, m))]
        return self._lib.sgd_chunk(
            _addr(state, (n, _width(d))),
            _addr(gens.bitgens, (n,), np.uintp),
            _addr(etas, (m,)),
            _addr(a, (d,)),
            _addr(xs, (d,)),
            m, n, d, radius, radius * radius, b_noise, half_mu,
            *_rows(loss, (n, m)),
            *recorded,
            self._normal,
        )

    def pca_chunk(
        self, state, norms, gens, etas, scale, eigs, krasulina: bool, normalize: bool, loss,
        *channels,
    ) -> None:
        etas, m = _steps(etas)
        n, p = state.shape
        # one fill per generator, for each of a block of up to LANES of them
        tmp = np.empty(min(n, LANES) * m * p, dtype=np.uint64)
        recorded = _channels(channels, (n, m)) if channels else [None] * 4 + [0]
        self._lib.pca_chunk(
            _addr(state, (n, _width(p))),
            _addr(norms, (n,)),
            _addr(gens.bitgens, (n,), np.uintp),
            _addr(tmp, (tmp.size,), np.uint64),
            _addr(scale, (p,)),
            _addr(etas, (m,)),
            _addr(eigs, (p,)),
            m, n, p, int(krasulina), int(normalize),
            *_rows(loss, (n, m)),
            *recorded,
            self._fill,
        )

    def rm_chunk(
        self, state, gens, etas, problem, radius: float, signed_dev: bool, loss, *channels
    ) -> None:
        if problem.m_kind != "linear":
            return super().rm_chunk(state, gens, etas, problem, radius, signed_dev, loss, *channels)
        etas, m = _steps(etas)
        n = len(state)
        recorded = _channels(channels, (n, m)) if channels else [None, None, 0]
        # formed in Python, as Generator.uniform, poly_sq and the reference
        # pass form them
        low, high = -radius, radius
        s2, r1sq = float(problem.slope**2), float(problem.r1**2)
        self._lib.rm_chunk(
            _addr(state, (n,)),
            _addr(gens.bitgens, (n,), np.uintp),
            _addr(etas, (m,)),
            m, n, float(problem.theta), float(problem.slope), low, high - low, s2, r1sq,
            int(signed_dev),
            *_rows(loss, (n, m)),
            *recorded,
            self._uniform,
        )

    def ridge(self, traj, xs, ys, etas, lambda_pen, penalty_in_gradient, radius) -> None:
        etas, m = _steps(etas)
        _, n, d = traj.shape
        self._lib.ridge_steps(
            _addr(traj[: m + 1], (m + 1, n, d)),
            _addr(xs, (m, n, d)),
            _addr(ys, (m, n)),
            _addr(etas, (m,)),
            m, n, d, lambda_pen, int(penalty_in_gradient), radius, radius * radius,
        )

    def lil_max(self, dev, t0: int, block_max) -> None:
        n_blocks, n = block_max.shape
        m = dev.shape[1]
        # a chunk that ends before the first block, t = 3, folds nothing:
        # the deviations at t = 0 come as an (n, 1) view of column stride 0
        if t0 + m <= 3:
            return
        loglog = np.empty(m)
        self._lib.lil_max(
            *_rows(dev, (n, m)), n, m, t0,
            _addr(block_max, (n_blocks, n)), n_blocks,
            _addr(loglog, (m,)),
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


def _numpy_distributions() -> str:
    """Path of the shared object of numpy.random._generator, which exports
    the distribution functions Generator calls."""
    from numpy.random import _generator

    return _generator.__file__


class Loader:
    """Builds and loads the step library once, on the first get().

    cache_dir and cc default to the cache directory and compiler named in the
    module docstring, distributions to numpy.random._generator's shared
    object.
    """

    def __init__(self, cache_dir=None, cc=None, distributions=None):
        self._cache_dir = cache_dir
        self._cc = cc
        self._distributions = distributions
        self._lock = threading.Lock()
        self._kernels = None

    def get(self) -> Reference:
        """The bindings, or REFERENCE when the library cannot be built or
        loaded."""
        if self._kernels is None:
            with self._lock:
                if self._kernels is None:
                    self._kernels = self._load()
        return self._kernels

    def _load(self) -> Reference:
        try:
            lib = ctypes.CDLL(str(self._build()))
            distributions = ctypes.CDLL(self._distributions or _numpy_distributions())
            return StepKernels(lib, distributions)
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
        import sysconfig

        cc = self._cc if self._cc is not None else _default_cc()
        cache = Path(self._cache_dir) if self._cache_dir is not None else _default_cache_dir()
        source = SOURCE.read_bytes()
        # the platform too: a home directory may be shared by different machines
        tag = (source, FLAGS, cc, sysconfig.get_platform())
        key = hashlib.sha256(repr(tag).encode()).hexdigest()[:16]
        path = cache / f"steps-{key}.so"
        if path.is_file():
            return path
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


def load(width: int = 1) -> Reference:
    """The kernels for steps of the given width: the process's compiled
    kernels, built on the first call, or REFERENCE (see the module
    docstring)."""
    return _LOADER.get() if width <= MAX_WIDTH else REFERENCE
