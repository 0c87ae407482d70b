"""Loader of the compiled step loops in _steps.c.

The library is built on first use, never at import: the C compiler Python
was built with (sysconfig's CC) compiles _steps.c with FLAGS, which keep
every IEEE operation as written (no fused multiply-add, no -ffast-math), into
$XDG_CACHE_HOME/anytime-iter/ (default ~/.cache/anytime-iter/).  The file
name hashes the source, the flags, the compiler and the platform, so later
processes load the cached library instead of compiling again.  The build
writes a temporary file and renames it into place, so processes building at
once never load a partial file, and a lock makes threads of one process
build it once.

When there is no compiler, the build fails or the cache cannot be written,
load() returns None and the engines run their numpy step loops, which give
the same bits; one note per process goes to stderr.

ctypes.CDLL releases the interpreter lock during each call, so engines
running on several threads step in parallel.  Each binding checks the dtype,
contiguity and shape of every array before it passes a pointer.
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
}


def _addr(a: np.ndarray, shape: tuple) -> int:
    """Address of a's data, once a is checked to be a C-contiguous float64
    array of the given shape."""
    if a.dtype != np.float64 or not a.flags.c_contiguous or a.shape != shape:
        raise ValueError(
            f"step kernel needs a C-contiguous float64 array of shape {shape}, "
            f"got {a.dtype} {a.shape}"
        )
    return a.ctypes.data


def _steps(etas) -> tuple:
    """The step sizes as a contiguous float64 array, and their count."""
    etas = np.ascontiguousarray(etas, dtype=np.float64)
    return etas, len(etas)


class StepKernels:
    """Checked bindings of the functions in _steps.c.

    Each method advances m = len(etas) steps: traj holds at least m+1 rows,
    row 0 the iterates before the first step, and step k writes row k+1.
    """

    def __init__(self, lib: ctypes.CDLL):
        for name, (argtypes, restype) in _SIGNATURES.items():
            fn = getattr(lib, name)
            fn.argtypes, fn.restype = argtypes, restype
        self._lib = lib

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


class Loader:
    """Builds and loads the step library once, on the first get().

    cache_dir and cc default to the cache directory and compiler named in the
    module docstring.
    """

    def __init__(self, cache_dir=None, cc=None):
        self._cache_dir = cache_dir
        self._cc = cc
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
            return StepKernels(ctypes.CDLL(str(self._build())))
        except (OSError, RuntimeError, AttributeError) as exc:
            reason = " ".join(str(exc).split()) or type(exc).__name__
            print(
                f"anytime-iter: compiled step loops unavailable ({reason}); "
                "running the numpy step loops",
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
    numpy step loops run instead."""
    return _LOADER.get()
