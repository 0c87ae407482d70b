"""One measured run, in a fresh interpreter started by run.py.

    python3 perfbench/child.py sample --workload W --config CFG --out DIR --t0 NS [--trace]
    python3 perfbench/child.py sweep --seed N

`sample` imports the package from ./src, parses the generated config (the end
of set-up), runs the workload once and prints one JSON line with its wall
time, the reference kernel's time, exit code, verdict digest, rep-steps and
peak RSS.  With --trace it first wraps every layer's public functions and
also writes the spans to DIR/spans.json and adds the per-layer summary.
`sweep` times sgd_batch and pca_batch alone at three replication counts.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))


def _import_package():
    import anytime_iter
    import anytime_iter.cli

    src = (ROOT / "src").resolve()
    if Path(anytime_iter.__file__).resolve().parent.parent != src:
        raise SystemExit(f"anytime_iter was imported from {anytime_iter.__file__}, not {src}")
    return anytime_iter.cli


def _recursion_fidelity(config: dict, seed: int, out_dir: Path) -> int:
    """Criterion-3 shape: every path of five engines passes its recursion check."""
    import numpy as np
    from anytime_iter import algorithms as alg
    from anytime_iter import boundaries as bnd
    from anytime_iter import recursion as rec
    from anytime_iter import seeding

    n, horizon = config["n_paths"], config["horizon"]
    seeds = [seeding.rep_seed(seed, i) for i in range(n)]
    ok = []

    sgd = alg.SgdProblem(curvature=(1.0, 1.0), x_star=(0.0, 0.0), radius=0.5, b_noise=0.5)
    etas = bnd.StepSchedule.inverse_time(1.0 / sgd.lam, 32.0).etas(horizon)
    res = alg.sgd_batch(sgd, etas, np.array([0.5, 0.0]), seeds)
    params = alg.sgd_recursion_params(sgd)
    for i in range(n):
        tr = rec.Trace(losses=res["loss_sc"][i], steps=etas, noise=res["noise_sc"][i])
        ok.append(rec.check_recursion(tr, params, tol=1e-10).ok)

    pl = alg.SgdProblem(curvature=(1.0, 1.0), x_star=(0.0, 0.0), radius=4.0, b_noise=0.5)
    etas = bnd.StepSchedule.inverse_time(2.0 / pl.tau, 32.0).etas(horizon)
    res = alg.sgd_batch(pl, etas, np.array([1.0, 0.0]), seeds)
    params = alg.pl_recursion_params(pl)
    for i in range(n):
        tr = rec.Trace(losses=res["loss_pl"][i], steps=etas, noise=res["noise_pl"][i])
        ok.append(rec.check_recursion(tr, params, tol=1e-10).ok)

    pca = alg.PcaProblem(eigs=(2.0, 1.0))
    etas = bnd.StepSchedule.inverse_time(2.0 / pca.rho, 32.0).etas(horizon)
    v0 = np.random.default_rng(seed).standard_normal((n, 2))
    v0 /= np.linalg.norm(v0, axis=1, keepdims=True)
    for variant, normalize in (("krasulina", False), ("oja", True)):
        res = alg.pca_batch(pca, etas, v0, seeds, variant, normalize)
        for i in range(n):
            tr = rec.Trace(losses=res["loss"][i], steps=etas, noise=res["q"][i])
            ok.append(alg.check_pca_recursion(tr, pca.b, pca.rho, variant, tol=1e-10).ok)

    rm = alg.RmProblem(m_kind="linear", slope=1.0)
    etas = bnd.StepSchedule.inverse_time(0.5, 1.0).etas(horizon)
    res = alg.rm_batch(rm, etas, 1.0, seeds)
    params = alg.rm_recursion_params(rm)
    for i in range(n):
        tr = rec.Trace(losses=res["loss"][i], steps=etas, noise=res["noise"][i])
        ok.append(rec.check_recursion(tr, params, tol=1e-10).ok)

    with open(out_dir / "recursion_report.json", "w") as fh:
        json.dump({"report": {"ok": ok, "failures": ok.count(False)}}, fh)
    return 0 if all(ok) else 1


REF_REPEATS = 3


def reference_kernel() -> None:
    """Fixed work of the workloads' two kinds, in about equal time: a Python
    step loop over small numpy arrays with generator draws and a running
    maximum (the engines), and whole-path array expressions (the recursion
    checks).  Outside load slows the two kinds by different factors; their
    sum tracked all four workloads better than either alone.  It calls
    nothing in anytime_iter, so no change to the package moves its time."""
    import numpy as np

    rng = np.random.default_rng(0)
    x = np.ones((64, 2))
    top = np.full(64, -np.inf)
    for k in range(1, 1501):
        x = x - (1.0 / k) * (x - rng.standard_normal((64, 2)))
        np.maximum(top, (x * x).sum(axis=1), out=top)
    path = rng.standard_normal(5000)
    for _ in range(600):
        np.abs((1.0 - 0.3 * path) * path + 0.1 * np.sqrt(np.abs(path))) > path


def time_reference() -> list[float]:
    times = []
    for _ in range(REF_REPEATS):
        start = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - start)
    return times


def _provenance() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def sample(args) -> dict:
    from workloads import WORKLOADS, rep_steps, verdict_digest

    spec = WORKLOADS[args.workload]
    cli = _import_package()
    with open(args.config) as fh:
        config = json.load(fh)
    setup_s = (time.monotonic_ns() - args.t0) / 1e9
    out_dir = Path(args.out)
    # The host's speed swings with outside load; the reference kernel, timed
    # right before and after the workload, measures it (see run.py).
    reference_kernel()
    ref_times = time_reference()

    recorder = None
    if args.trace:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)

    start = time.perf_counter()
    if spec["command"] is None:
        seed = int(os.environ["ANYTIME_ITER_SEED"])
        rc = _recursion_fidelity(config, seed, out_dir)
    else:
        argv = [spec["command"], "--config", args.config, "--out-dir", str(out_dir)]
        # Serial: on a shared 2-core host the two-thread coverage run was
        # slower than the serial one (the engines hold the GIL), and its time
        # followed how much of the second core other tenants took.
        rc = cli.main(argv + ["--threads", "1"])
    wall_s = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    with open(out_dir / spec["report"]) as fh:
        report = json.load(fh)["report"]
    ref_times += time_reference()
    result = {
        "exit_code": rc,
        "digest": verdict_digest(args.workload, report),
        "wall_s": wall_s,
        "ref_s": statistics.median(ref_times),
        "setup_s": setup_s,
        "rep_steps": rep_steps(args.workload, config, report),
        "peak_rss_mb": peak_kb / 1024.0,
        "provenance": _provenance(),
    }
    if recorder is not None:
        layers = spans.summarize(recorder.spans)
        layers["cli.io_bytes"] = sum(p.stat().st_size for p in out_dir.iterdir())
        layers["trace.overhead_s"] = recorder.overhead_s
        result["layers"] = layers
        with open(out_dir / "spans.json", "w") as fh:
            json.dump(recorder.spans, fh)
    return result


def sweep(args) -> dict:
    """rep-steps/s of sgd_batch and pca_batch alone, record_channels=False,
    at n = 50, 500 and 5000 replications over the same 10^6 rep-steps."""
    _import_package()
    import numpy as np
    from anytime_iter import algorithms as alg
    from anytime_iter import boundaries as bnd
    from anytime_iter.seeding import rep_seed

    total = 10**6
    sgd = alg.SgdProblem(curvature=(1.0, 1.0), x_star=(0.0, 0.0), radius=0.5, b_noise=0.5)
    sgd_sched = bnd.sgd_boundary(sgd.b, sgd.lam, 0.05).schedule
    pca = alg.PcaProblem(eigs=(2.0, 1.0, 1.0, 1.0))
    pca_sched = bnd.oja_boundary(pca.b, pca.rho, 0.1)[0].schedule
    rng = np.random.default_rng(args.seed)
    out = {}
    for n in (50, 500, 5000):
        seeds = [rep_seed(args.seed, i) for i in range(n)]
        horizon = total // n
        etas = sgd_sched.etas(horizon)
        start = time.perf_counter()
        alg.sgd_batch(sgd, etas, np.array([0.5, 0.0]), seeds, record_channels=False)
        out[f"algorithms.sgd.rep_steps_per_s.n{n}"] = total / (time.perf_counter() - start)

        v0 = rng.standard_normal((n, pca.dim))
        v0 /= np.linalg.norm(v0, axis=1, keepdims=True)
        etas = pca_sched.etas(horizon)
        start = time.perf_counter()
        alg.pca_batch(pca, etas, v0, seeds, "krasulina", True, record_channels=False)
        out[f"algorithms.pca.rep_steps_per_s.n{n}"] = total / (time.perf_counter() - start)
    return {"layers": out}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("sample", "sweep"))
    parser.add_argument("--workload")
    parser.add_argument("--config")
    parser.add_argument("--out")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--t0", type=int)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    result = sample(args) if args.mode == "sample" else sweep(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
