"""In-process A/B timing of two builds of src/anytime_iter/_steps.c.

Builds the working tree's _steps.c (B) and the one at a git revision (A)
into a temporary cache, each through the Loader of its own tree's
_kernel.py, so each build passes its own loader's check and is driven
through its own Python bindings: the revision's package is extracted under
the name anytime_iter_a beside the working tree's.  It then times the
compiled chunk calls of both builds in one process, alternating which
build runs first, for --rounds rounds:

  * sgd:      sgd_chunk, d = 2, sphere noise, losses only;
  * sgd-rec:  the same with loss_pl and the five noise channels recorded;
  * sgd-wide: sgd, d = 16;
  * pca:      pca_chunk, Krasulina, p = 4, losses only;
  * pca-rec:  the same with the four noise channels recorded;
  * pca-wide: pca, p = 16, each step normalised;
  * rm:       rm_chunk, linear M, losses only;
  * rm-rec:   the same with the two noise channels recorded;
  * rm-cubic: rm, cubic M;
  * lil:      lil_chunk, linear M, eta_t = 1/t from t = 1 into 12 blocks;
  * lil-cubic: lil, cubic M;
  * lil-long: the same over LIL_LONG = 2^16 steps, whatever --steps says,
              into 15 blocks: one call that spans 4 of the compiled
              lil_chunk's internal slices of 2^14 steps, where a revision
              whose lil_chunk takes log log t scratch from its caller
              allocates 2^16 values for it;
  * ridge:    ridge_chunk, d = 2, the ridge engine's RIDGE_ROWS = 2048 steps
              whatever --steps says, on the shipped config's stream,
              drawing from the generator states as it steps; a revision
              whose ridge_chunk takes covariates and responses is timed
              with its engine's draws, algorithms._ridge_draw per group of
              replications, before each group's chunk;
  * seed:     generators on the --reps seeds (7, i), the (seed_base, i)
              pairs the harness passes, timed per seed over enough calls
              per round for about SEEDS_PER_ROUND seeds, so that one call's
              jitter does not set the round's ratio: a revision whose
              generators read SeedSequence pools builds SeedSequence(seed)
              for each inside the call.

Every chunk call starts from the same state and from fresh generators of
the same seeds, built outside the timed region by each build's kernels,
and writes into outputs allocated and filled outside it too, so that a row
times the chunk, not the page faults of the first writes to fresh outputs.
The recorded rows write their channels as rows of (n, --steps) arrays.
Both builds must write the same bytes and leave every generator in the
same state, and both builds' generators must be numpy's states of the
seeds; a revision whose kernels hand 8 or more coordinates to the numpy
reference runs the wide chunks that way, on its compiled draws.  It
prints, per row, each build's median ns per rep-step (per seed for seed)
and the median of the per-round ratios B/A between their first and third
quartiles, so that a row's gap can be told from its round-to-round
spread.  Running both builds in one process pairs every measurement with
its twin, so the host's load swings, which make separate runs of two
trees hard to tell apart, cancel in the ratio.
--reps 100 leaves the last block of 8 lanes partial, as the workloads of
100 replications do; 504 fills every block.  The header gives the level
each build's lane section was built for (StepKernels.lane_isa): x86-64-vN,
"default" for the compiler's default target, or "none" for a revision
without the section.  Under NPY_DISABLE_CPU_FEATURES both builds take the
level numpy then reports.

Run from the repository root:

    python tools/kernel_ab.py [--rev HEAD] [--rounds 9] [--reps 504] [--steps 1000]
"""
from __future__ import annotations

import argparse
import importlib
import inspect
import io
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import anytime_iter  # noqa: E402
from anytime_iter.algorithms import RIDGE_ROWS  # noqa: E402
from anytime_iter.problems import RmProblem  # noqa: E402
from anytime_iter.streams import SQRT3, LinearModelStream  # noqa: E402

SEEDS_PER_ROUND = 2**16  # seeds the seed row seeds per build and round
LIL_LONG = 2**16  # steps of the lil-long row


def extract(rev: str, into: Path):
    """The package anytime_iter at rev, imported as anytime_iter_a."""
    archive = subprocess.run(
        ["git", "archive", rev, "src/anytime_iter"], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    (into / "src" / "anytime_iter").rename(into / "anytime_iter_a")
    sys.path.insert(0, str(into))
    return importlib.import_module("anytime_iter_a")


def build(package, cache: Path):
    """The compiled kernels of the package, built into cache."""
    kernel = importlib.import_module(f"{package.__name__}._kernel")
    kernels = kernel.Loader(cache_dir=cache).get()
    if not isinstance(kernels, kernel.StepKernels):
        raise SystemExit(f"{package.__name__}: _steps.c did not build or failed the loader's check")
    return kernels


def lane_isa(kernels) -> str:
    """The level the build's lane section was built for, as the header
    names it."""
    isa = getattr(kernels, "lane_isa", None)
    return "none" if isa is None else f"x86-64-v{isa}" if isa else "default"


def chunks(n: int, m: int) -> dict:
    """name -> (shape, fill, call(kernels, gens, out)): call writes into
    out, an array of that shape filled with fill outside the timed region."""
    rng = np.random.default_rng(0)
    etas = rng.uniform(0.01, 0.5, m)
    rm = RmProblem(m_kind="linear", theta=-0.3, slope=1.3)
    cubic = RmProblem(m_kind="cubic_plus_linear", theta=0.5, cub_a=0.3, cub_b=1.0)
    ridge_etas = rng.uniform(0.01, 0.5, RIDGE_ROWS)
    stream = LinearModelStream((0.5, 0.5), 1.0, 0.5)

    def sgd(d: int, record: bool):
        def call(k, gens, out):
            state = np.full((n, d), 0.3 / np.sqrt(d / 2))
            a = np.linspace(1.0, 0.5, d)
            k.sgd_chunk(state, gens, etas, a, np.zeros(d), 1.0, 2.0, 0.25, *out)

        return (7 if record else 1, n, m), 0.0, call

    def pca(p: int, normalize: bool, record: bool):
        def call(k, gens, out):
            state = np.full((n, p), 1.0 / np.sqrt(p))
            norms = np.ones(n)
            eigs = np.arange(p, 0.0, -1.0)
            k.pca_chunk(state, norms, gens, etas, np.sqrt(eigs), eigs, True, normalize, *out)

        return (5 if record else 1, n, m), 0.0, call

    def root(problem, record: bool):
        def call(k, gens, out):
            k.rm_chunk(np.full(n, 1.0), gens, etas, problem, SQRT3, *out)

        return (3 if record else 1, n, m), 0.0, call

    def lil(problem, steps: int):
        def call(k, gens, block_max):
            state = np.full(n, 1.0 + problem.theta)
            k.lil_chunk(state, gens, 1, steps, 1.0, problem, SQRT3, block_max)

        return call

    def ridge(k, gens, out):
        theta = np.zeros((n, 2))
        if "xs" not in inspect.signature(k.ridge_chunk).parameters:
            k.ridge_chunk(theta, gens, ridge_etas, stream, 0.0, True, 1.0, out)
            return
        # a revision that drew the chunk in numpy first, in groups of 21
        package = sys.modules[type(k).__module__.rpartition(".")[0]]
        for lo in range(0, n, 21):
            g = slice(lo, lo + 21)
            xs, ys = package.algorithms._ridge_draw(k, stream, gens[g], RIDGE_ROWS)
            k.ridge_chunk(theta[g], xs, ys, ridge_etas, np.array([0.5, 0.5]), 0.0, True, 1.0,
                          out[g])

    return {
        "sgd": sgd(2, False),
        "sgd-rec": sgd(2, True),
        "sgd-wide": sgd(16, False),
        "pca": pca(4, False, False),
        "pca-rec": pca(4, False, True),
        "pca-wide": pca(16, True, False),
        "rm": root(rm, False),
        "rm-rec": root(rm, True),
        "rm-cubic": root(cubic, False),
        "lil": ((12, n), -np.inf, lil(rm, m)),
        "lil-cubic": ((12, n), -np.inf, lil(cubic, m)),
        "lil-long": ((15, n), -np.inf, lil(rm, LIL_LONG)),
        "ridge": ((n, RIDGE_ROWS), 0.0, ridge),
    }


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
        packages = {"A": extract(args.rev, Path(tmp)), "B": anytime_iter}
        builds = {label: build(pkg, Path(tmp) / label) for label, pkg in packages.items()}
        seeds = [(7, i) for i in range(args.reps)]
        want = [np.random.default_rng(s).bit_generator.state for s in seeds]
        per_step = {}  # (row, build) -> ns per rep-step or per seed, one per round
        ratios = {}  # row -> B/A, one per round
        for r in range(args.rounds):
            for name, (shape, fill, call) in chunks(args.reps, args.steps).items():
                times, written = {}, {}
                for label in ("AB" if r % 2 == 0 else "BA"):
                    k = builds[label]
                    gens = k.generators(seeds)
                    out = np.full(shape, fill)
                    start = time.perf_counter()
                    call(k, gens, out)
                    times[label] = time.perf_counter() - start
                    written[label] = out.tobytes(), k.states(gens)
                    steps = {"ridge": RIDGE_ROWS, "lil-long": LIL_LONG}.get(name, args.steps)
                    ns = times[label] / (args.reps * steps) * 1e9
                    per_step.setdefault((name, label), []).append(ns)
                if written["A"][0] != written["B"][0]:
                    raise SystemExit(f"{name}: the two builds wrote different bytes")
                if written["A"][1] != written["B"][1]:
                    raise SystemExit(f"{name}: the two builds left different generator states")
                ratios.setdefault(name, []).append(times["B"] / times["A"])
            times, calls = {}, max(1, SEEDS_PER_ROUND // args.reps)
            for label in ("AB" if r % 2 == 0 else "BA"):
                k = builds[label]
                start = time.perf_counter()
                for _ in range(calls):
                    gens = k.generators(seeds)
                times[label] = time.perf_counter() - start
                if k.states(gens) != want:
                    raise SystemExit(f"seed: build {label}'s generators are not numpy's")
                ns = times[label] / (calls * args.reps) * 1e9
                per_step.setdefault(("seed", label), []).append(ns)
            ratios.setdefault("seed", []).append(times["B"] / times["A"])

    isa = {label: lane_isa(k) for label, k in builds.items()}
    print(f"A = {args.rev} (lanes {isa['A']}), B = working tree (lanes {isa['B']}); "
          f"{args.reps} reps x {args.steps} steps, {args.rounds} rounds; medians")
    print(f"{'row':9} {'A ns':>10} {'B ns':>10} {'q1':>7} {'B/A':>7} {'q3':>7}  per")
    for name, ratio in ratios.items():
        a, b = (statistics.median(per_step[name, label]) for label in "AB")
        q1, med, q3 = statistics.quantiles(ratio, n=4)
        unit = "seed" if name == "seed" else "rep-step"
        print(f"{name:9} {a:10.2f} {b:10.2f} {q1:7.3f} {med:7.3f} {q3:7.3f}  {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
