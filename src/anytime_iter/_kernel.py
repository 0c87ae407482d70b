"""Loader of the compiled step loops and draw loops in _steps.c.

The library is built on first use, never at import: the C compiler Python
was built with (sysconfig's CC) compiles _steps.c with FLAGS, which keep
every IEEE operation as written (no fused multiply-add, no -ffast-math), into
$XDG_CACHE_HOME/anytime-iter/ (default ~/.cache/anytime-iter/).  The file
name hashes the source, the flags, the compiler and the platform, so later
processes load the cached library instead of compiling again.  The build
writes a temporary file and renames it into place, so processes building at
once never load a partial file, and a lock makes threads of one process
build it once.

The draw loops call numpy's distribution functions random_standard_normal,
random_bounded_uint64_fill and random_uniform, which Generator calls too.
They are resolved on the first get(), with ctypes.CDLL on the shared object
of numpy.random._generator that exports them (as numpy's own cffi example
does), and passed to C as function pointers, so nothing of numpy is
compiled or linked into the library and each value comes from the machine
code Generator runs.  C receives each generator's bitgen_t as an opaque
pointer, taken from its bit generator's "BitGenerator" capsule.

When there is no compiler, the build fails, the cache cannot be written or
numpy's functions cannot be found, load() returns None and the engines run
their numpy step loops and draws, which give the same bits; one note per
process goes to stderr.

ctypes.CDLL releases the interpreter lock during each call, so engines
running on several threads draw and step in parallel.  Each binding checks
the dtype, contiguity and shape of every array before it passes a pointer.
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

SOURCE = Path(__file__).with_name("_steps.c")
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")

_P, _L, _D, _I = ctypes.c_void_p, ctypes.c_long, ctypes.c_double, ctypes.c_int
_SIGNATURES = {
    "sgd_steps": ([_P] * 5 + [_L] * 3 + [_D] * 2, _L),
    "pca_steps": ([_P] * 5 + [_L] * 3 + [_I] * 2, None),
    "rm_linear_steps": ([_P] * 3 + [_L] * 2 + [_D] * 2, None),
    "ridge_steps": ([_P] * 4 + [_L] * 3 + [_D, _I, _D, _D], None),
    "sphere_draw": ([_P] * 2 + [_L] * 3 + [_D, _P], None),
    "sign_draw": ([_P] * 4 + [_L] * 3 + [_P], None),
    "uniform_draw": ([_P] * 2 + [_L] * 2 + [_D] * 2 + [_P], None),
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


def _steps(etas) -> tuple:
    """The step sizes as a contiguous float64 array, and their count."""
    etas = np.ascontiguousarray(etas, dtype=np.float64)
    return etas, len(etas)


class StepKernels:
    """Checked bindings of the functions in _steps.c.

    Each step method advances m = len(etas) steps: traj holds at least m+1
    rows, row 0 the iterates before the first step, and step k writes row
    k+1.  Each draw method fills a chunk for the generators whose bit
    generator addresses bit_generators returned; the caller keeps those
    generators alive and uses them on no other thread meanwhile, since the
    draws bypass the bit generators' locks.
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

    def bit_generators(self, gens) -> np.ndarray:
        """The (len(gens),) uintp array of the generators' bitgen_t addresses."""
        return np.array(
            [self._capsule_pointer(g.bit_generator.capsule, b"BitGenerator") for g in gens],
            dtype=np.uintp,
        )

    def sphere(self, out, bitgens, radius: float) -> None:
        """out, (rows, n, width), receives rows uniform on the sphere of the
        given radius, as Generator.standard_normal and _onto_sphere give."""
        rows, n, width = out.shape
        self._lib.sphere_draw(
            _addr(out, (rows, n, width)),
            _addr(bitgens, (n,), np.uintp),
            rows, n, width, radius, self._normal,
        )

    def signs(self, out, bitgens, scale=None) -> None:
        """out, (rows, n, width), receives signs as Generator.integers(0, 2)
        draws them, times scale (a (width,) array) when it is given."""
        rows, n, width = out.shape
        tmp = np.empty(rows * width, dtype=np.uint64)
        self._lib.sign_draw(
            _addr(out, (rows, n, width)),
            _addr(bitgens, (n,), np.uintp),
            _addr(tmp, (rows * width,), np.uint64),
            None if scale is None else _addr(scale, (width,)),
            rows, n, width, self._fill,
        )

    def uniform(self, out, bitgens, low: float, high: float) -> None:
        """out, (rows, n), receives what Generator.uniform(low, high) draws."""
        rows, n = out.shape
        self._lib.uniform_draw(
            _addr(out, (rows, n)),
            _addr(bitgens, (n,), np.uintp),
            rows, n, low, high - low, self._uniform,
        )

    def sgd(self, traj, noise, etas, a, xs, radius: float) -> int:
        """Projected SGD steps; returns how many iterates were projected."""
        etas, m = _steps(etas)
        _, n, d = traj.shape
        return self._lib.sgd_steps(
            _addr(traj[: m + 1], (m + 1, n, d)),
            _addr(noise, (m, n, d)),
            _addr(etas, (m,)),
            _addr(a, (d,)),
            _addr(xs, (d,)),
            m, n, d, radius, radius * radius,
        )

    def pca(self, traj, norms, grown, data, etas, krasulina: bool, normalize: bool) -> None:
        """Krasulina or Oja steps; grown may be the view norms[1:]."""
        etas, m = _steps(etas)
        _, n, p = traj.shape
        self._lib.pca_steps(
            _addr(traj[: m + 1], (m + 1, n, p)),
            _addr(norms[:m], (m, n)),
            _addr(grown[:m], (m, n)),
            _addr(data, (m, n, p)),
            _addr(etas, (m,)),
            m, n, p, int(krasulina), int(normalize),
        )

    def rm_linear(self, traj, xi, etas, theta: float, slope: float) -> None:
        """Root-finding steps for the linear map M(x) = slope*(x - theta)."""
        etas, m = _steps(etas)
        n = traj.shape[1]
        self._lib.rm_linear_steps(
            _addr(traj[: m + 1], (m + 1, n)),
            _addr(xi, (m, n)),
            _addr(etas, (m,)),
            m, n, theta, slope,
        )

    def ridge(self, traj, xs, ys, etas, lambda_pen, penalty_in_gradient, radius) -> None:
        """Ridge-SGD steps, each followed by the projection onto the ball."""
        etas, m = _steps(etas)
        _, n, d = traj.shape
        self._lib.ridge_steps(
            _addr(traj[: m + 1], (m + 1, n, d)),
            _addr(xs, (m, n, d)),
            _addr(ys, (m, n)),
            _addr(etas, (m,)),
            m, n, d, lambda_pen, int(penalty_in_gradient), radius, radius * radius,
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
        self._done = False
        self._kernels = None

    def get(self) -> StepKernels | None:
        """The bindings, or None when the library cannot be built or loaded."""
        if not self._done:
            with self._lock:
                if not self._done:
                    self._kernels = self._load()
                    self._done = True
        return self._kernels

    def _load(self) -> StepKernels | None:
        try:
            lib = ctypes.CDLL(str(self._build()))
            distributions = ctypes.CDLL(self._distributions or _numpy_distributions())
            return StepKernels(lib, distributions)
        except (OSError, RuntimeError, AttributeError) as exc:
            reason = " ".join(str(exc).split()) or type(exc).__name__
            print(
                f"anytime-iter: compiled step loops unavailable ({reason}); "
                "running the numpy step loops and draws",
                file=sys.stderr,
            )
            return None

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


def load() -> StepKernels | None:
    """The process's step kernels, built on the first call; None means the
    numpy step loops and draws run instead."""
    return _LOADER.get()
