"""In-process A/B timing of two builds of src/anytime_iter/_steps.c.

Builds the working tree's _steps.c (B) and the one at a git revision (A)
into a temporary cache through _kernel.Loader, so each build passes the
loader's check of its normals, then times the compiled chunk calls of
both builds in one process, alternating which build runs first, for
--rounds rounds:

  * sgd:      sgd_chunk, d = 2, sphere noise, losses only;
  * sgd-rec:  the same with loss_pl and the five noise channels recorded;
  * pca:      pca_chunk, Krasulina, p = 4, losses only;
  * rm:       rm_chunk, linear M, losses only.

Every call starts from the same state and from fresh generators of the
same seeds, built outside the timed region, and both builds must write the
same bytes.  It prints, per chunk, each build's median ns per rep-step and
the median of the per-round ratios B/A.  Running both builds in one
process pairs every measurement with its twin, so the host's load swings,
which make separate runs of two trees hard to tell apart, cancel in the
ratio.  Both builds are driven through the working tree's Python bindings,
so the revision's chunk functions must take the same arguments.

Run from the repository root:

    python tools/kernel_ab.py [--rev HEAD] [--rounds 9] [--reps 504] [--steps 1000]
"""
from __future__ import annotations

import argparse
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from anytime_iter import _kernel  # noqa: E402
from anytime_iter.problems import RmProblem  # noqa: E402
from anytime_iter.seeding import rep_generators, rep_seed  # noqa: E402
from anytime_iter.streams import SQRT3, GeneratorBatch  # noqa: E402


def build(source: Path, cache: Path) -> _kernel.StepKernels:
    """The bindings of the library compiled from source into cache."""
    default = _kernel.SOURCE
    _kernel.SOURCE = source
    try:
        kernels = _kernel.Loader(cache_dir=cache).get()
    finally:
        _kernel.SOURCE = default
    if not isinstance(kernels, _kernel.StepKernels):
        raise SystemExit(f"{source} did not build or failed the loader's check")
    return kernels


def chunks(n: int, m: int) -> dict:
    """name -> call(kernels, gens), which returns the arrays it wrote."""
    rng = np.random.default_rng(0)
    etas = rng.uniform(0.01, 0.5, m)
    rm = RmProblem(m_kind="linear", theta=-0.3, slope=1.3)

    def sgd(record: bool):
        def call(k, gens):
            state = np.full((n, 2), 0.3)
            out = np.empty((7 if record else 1, n, m))
            channels = out[1:] if record else ()
            k.sgd_chunk(
                state, gens, etas, np.array([1.0, 0.5]), np.zeros(2), 1.0, 2.0, 0.25, out[0],
                *channels,
            )
            return out

        return call

    def pca(k, gens):
        state = np.tile(np.full(4, 0.5), (n, 1))
        norms = np.ones(n)
        eigs = np.array([4.0, 3.0, 2.0, 1.0])
        out = np.empty((n, m))
        k.pca_chunk(state, norms, gens, etas, np.sqrt(eigs), eigs, True, False, out)
        return out

    def root(k, gens):
        out = np.empty((n, m))
        k.rm_chunk(np.full(n, 1.0), gens, etas, rm, SQRT3, False, out)
        return out

    return {"sgd": sgd(False), "sgd-rec": sgd(True), "pca": pca, "rm": root}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", default="HEAD", help="git revision of build A")
    parser.add_argument("--rounds", type=int, default=9, help="rounds, at least 9")
    parser.add_argument("--reps", type=int, default=504, help="replications per chunk")
    parser.add_argument("--steps", type=int, default=1000, help="steps per chunk")
    args = parser.parse_args(argv)
    if args.rounds < 9:
        parser.error("--rounds must be at least 9")

    with tempfile.TemporaryDirectory(prefix="kernel-ab-") as tmp:
        old = Path(tmp) / "_steps.c"
        old.write_bytes(
            subprocess.run(
                ["git", "show", f"{args.rev}:src/anytime_iter/_steps.c"],
                cwd=ROOT, check=True, capture_output=True,
            ).stdout
        )
        builds = {"A": build(old, Path(tmp)), "B": build(_kernel.SOURCE, Path(tmp))}
        seeds = [rep_seed(7, i) for i in range(args.reps)]
        per_step = {}  # (chunk, build) -> ns per rep-step, one per round
        ratios = {}  # chunk -> B/A, one per round
        for r in range(args.rounds):
            for name, call in chunks(args.reps, args.steps).items():
                times, written = {}, {}
                for label in ("AB" if r % 2 == 0 else "BA"):
                    k = builds[label]
                    gens = GeneratorBatch(rep_generators(seeds), k)
                    start = time.perf_counter()
                    out = call(k, gens)
                    times[label] = time.perf_counter() - start
                    written[label] = out.tobytes()
                    ns = times[label] / (args.reps * args.steps) * 1e9
                    per_step.setdefault((name, label), []).append(ns)
                if written["A"] != written["B"]:
                    raise SystemExit(f"{name}: the two builds wrote different bytes")
                ratios.setdefault(name, []).append(times["B"] / times["A"])

    print(f"A = {args.rev}, B = working tree; {args.reps} reps x {args.steps} steps, "
          f"{args.rounds} rounds; medians")
    print(f"{'chunk':8} {'A ns/rep-step':>14} {'B ns/rep-step':>14} {'B/A':>7}")
    for name, ratio in ratios.items():
        a, b = (statistics.median(per_step[name, label]) for label in "AB")
        print(f"{name:8} {a:14.2f} {b:14.2f} {statistics.median(ratio):7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
