"""anytime-iter benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each measured run is a fresh interpreter
(perfbench/child.py) started one at a time from this process, so the load
never exceeds the workload's own threads (at most nproc).  Runs repeat until
the next one would end after --seconds.  Every metric reports the median
over the runs; the human-readable lines before the result also give the
quartiles, and the raw wall time in seconds beside the reference-relative
one (see REFERENCE).

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1 runs
the isolated engine sweep once, then alternates traced and untraced runs and
reports the per-layer metrics, with the tracing overhead as the time the
wrappers spend on their own bookkeeping.  The traced minus the untraced wall
time is printed and recorded beside it.

Every run is gated: its exit code must be the expected one and its verdict
digest must equal the pinned one (default seed) or the first run's (other
seeds).  The last stdout line is the JSON result; a fuller record with
provenance goes to .perfbench/results/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    DEFAULT_SEED,
    EXPECTED_EXIT,
    NOT_MEASURED,
    PINNED,
    SEED_ENV,
    WORKLOADS,
    make_config,
)

MIN_RUNS = 3
MIN_TRACED_PAIRS = 2
CHILD_TIMEOUT_S = 150
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)


def _die(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, tmp: Path):
        self.root, self.workload, self.seed, self.tmp = root, workload, seed, tmp
        self.env = {**os.environ, SEED_ENV: str(seed)}
        self.env.pop("PYTHONPATH", None)
        self.config_path = tmp / "config.json"
        self.runs: list[dict] = []

    def child(self, *args: str) -> tuple[dict | None, float]:
        """Start one child, wait for it, return (its result or None, seconds)."""
        t0 = time.monotonic_ns()
        cmd = [sys.executable, str(HERE / "child.py"), *args, "--t0", str(t0)]
        try:
            proc = subprocess.run(
                cmd, cwd=self.root, env=self.env, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            print(f"perfbench: run timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return None, (time.monotonic_ns() - t0) / 1e9
        elapsed = (time.monotonic_ns() - t0) / 1e9
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: run exited {proc.returncode}: {proc.stderr[-2000:]}", file=sys.stderr)
            return None, elapsed
        return json.loads(lines[-1]), elapsed

    def sample(self, traced: bool) -> float:
        out = self.tmp / f"run{len(self.runs)}"
        out.mkdir()
        args = ["sample", "--workload", self.workload, "--config", str(self.config_path)]
        args += ["--out", str(out)] + (["--trace"] if traced else [])
        result, elapsed = self.child(*args)
        self.runs.append({"traced": traced, "result": result})
        shutil.rmtree(out)
        return elapsed

    def gate(self) -> int:
        """Mark each run ok or not; return the number of failed runs."""
        reference = PINNED.get(self.workload) if self.seed == DEFAULT_SEED else None
        failed = 0
        for run in self.runs:
            res = run["result"]
            if res is not None and reference is None:
                reference = res["digest"]
            run["ok"] = (
                res is not None
                and res["exit_code"] == EXPECTED_EXIT
                and res["digest"] == reference
            )
            failed += not run["ok"]
        self.digest = reference
        return failed


# REFERENCE.  On a shared 2-core host the same run takes 1.0x when the host
# is quiet and 1.5x to 1.8x during bursts of outside load that last seconds
# to minutes; CPU time grows with wall time, so the program is slowed, not
# kept waiting.  The reference kernel (child.reference_kernel: fixed work
# of the workloads' kinds that calls nothing in the package), timed right
# before and after each workload run, slows with it.  So the time metrics are the
# wall time in units of that kernel's time: wall_ref = wall_s / ref_s.  It
# still falls when the program gets faster, since the kernel does not
# change.  Raw seconds are printed and recorded beside it.


def _summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"value": med, "median": med, "q1": q1, "q3": q3, "n": len(values)}


def _provenance(root: Path, first_result: dict | None) -> dict:
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    prov = {
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }
    if first_result is not None:
        prov.update(first_result["provenance"])
    return prov


def _end_to_end(bench: Bench, traced: bool = False) -> dict:
    """Samples per end-to-end metric, and the raw seconds behind them."""
    results = [r["result"] for r in bench.runs if r["traced"] == traced and r["result"]]
    return {
        "wall_ref": [r["wall_s"] / r["ref_s"] for r in results],
        "rep_steps_per_ref": [r["rep_steps"] * r["ref_s"] / r["wall_s"] for r in results],
        "peak_rss_mb": [r["peak_rss_mb"] for r in results],
        "setup_s": [r["setup_s"] for r in results],
        "wall_s": [r["wall_s"] for r in results],
        "rep_steps_per_s": [r["rep_steps"] / r["wall_s"] for r in results],
        "ref_s": [r["ref_s"] for r in results],
    }


RAW = {"wall_s": "s", "rep_steps_per_s": "1/s", "ref_s": "s", "trace.wall_diff_s": "s"}


def measure(bench: Bench, seconds: float, traced: bool) -> tuple[dict, dict]:
    """Run until the next run would end after the deadline; return raw
    samples per metric and, in traced mode, the sweep result."""
    deadline = time.monotonic() + seconds
    sweep = None
    if traced:
        sweep, _ = bench.child("sweep", "--seed", str(bench.seed))
    last = {True: 0.0, False: 0.0}
    i = 0
    while True:
        kind = traced and i % 2 == 0
        done = sum(1 for r in bench.runs if r["traced"] == kind)
        enough = done >= (MIN_TRACED_PAIRS if traced else MIN_RUNS)
        if enough and time.monotonic() + last[kind] > deadline:
            break
        last[kind] = bench.sample(kind)
        i += 1
    return _end_to_end(bench), sweep


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    spec = WORKLOADS[args.workload]
    for needed in ["BENCHMARK.json", "src/anytime_iter/cli.py", spec["config"]]:
        if needed and not (root / needed).is_file():
            _die(f"{needed} not found under {root}; run from the root of a checkout")
    with open(root / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    seconds = declared["run_seconds"] if args.seconds is None else args.seconds
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    shipped = None
    if spec["config"]:
        with open(root / spec["config"]) as fh:
            shipped = json.load(fh)

    seed = args.seed % 2**32
    tmp = root / ".perfbench" / f"tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    bench = Bench(root, args.workload, seed, tmp)
    try:
        bench.config_path.write_text(json.dumps(make_config(args.workload, shipped)))
        samples, sweep = measure(bench, seconds, bool(args.trace))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed = bench.gate()
    attempted = len(bench.runs)
    if not samples["wall_s"]:
        _die(f"no run of {args.workload} completed")

    if args.trace:
        traced = [r["result"]["layers"] for r in bench.runs if r["traced"] and r["result"]]
        if not traced or sweep is None:
            _die(f"no traced run or sweep of {args.workload} completed")
        samples = {name: [t[name] for t in traced] for name in traced[0]}
        samples.update({name: [v] for name, v in sweep["layers"].items()})
        plain, with_trace = _end_to_end(bench), _end_to_end(bench, traced=True)
        samples["trace.wall_diff_s"] = [
            (statistics.median(with_trace["wall_ref"]) - statistics.median(plain["wall_ref"]))
            * statistics.median(plain["ref_s"] + with_trace["ref_s"])
        ]
        wanted = [m["name"] for m in declared["per_layer"]]
    else:
        wanted = [m["name"] for m in declared["end_to_end"]]

    missing = [name for name in wanted if name not in samples]
    if missing:
        _die(f"benchmark produced no value for {missing}")
    units.update(RAW)
    shown = wanted + [name for name in RAW if name in samples]
    stats = {name: _summary(samples[name]) for name in shown}
    metrics = {name: {"value": stats[name]["value"], "unit": units[name]} for name in wanted}
    not_measured = {
        name: why
        for name in wanted
        for prefix, why in NOT_MEASURED.get(args.workload, {}).items()
        if args.trace and name.startswith(prefix)
    }

    first = next((r["result"] for r in bench.runs if r["result"]), None)
    record = {
        "workload": args.workload,
        "seed": seed,
        "trace": args.trace,
        "seconds": seconds,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "verdict_digest": bench.digest,
        "metrics": {
            name: {**stats[name], "unit": units[name], "runs": samples[name]} for name in shown
        },
        "not_measured": not_measured,
        "provenance": _provenance(root, first),
    }
    results_dir = root / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )

    print(f"{args.workload} seed={seed} trace={args.trace}: {attempted} runs, "
          f"failed_frac = {failed / attempted:.4g} ratio ({failed}/{attempted}), "
          f"verdict {bench.digest}")
    for name in shown:
        s = stats[name]
        note = f"\n      not measured: {not_measured[name]}" if name in not_measured else ""
        print(f"  {name:38s} {s['value']:.6g} {units[name]}  [q1 {s['q1']:.6g}, "
              f"q3 {s['q3']:.6g}, n={s['n']}]{note}")
    print("provenance: " + json.dumps(record["provenance"], sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
