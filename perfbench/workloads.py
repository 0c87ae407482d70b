"""The benchmark's four workloads: what they run, how their inputs are made
from the seed, and which report fields form the verdict digest.

Three workloads run the `anytime-iter` CLI on a shipped config, scaled so one
run takes about a second on a 2-core host; the seed reaches the program
only through the ANYTIME_ITER_SEED override.  The fourth calls the engines
and the recursion checkers through the public API.
"""
from __future__ import annotations

import hashlib
import json

DEFAULT_SEED = 20260824
SEED_ENV = "ANYTIME_ITER_SEED"

# Verdict digests at DEFAULT_SEED.  At any other seed the benchmark requires
# every run to reproduce the digest of its first run instead.
PINNED = {
    "sgd-coverage": "d5864f6fc4c7cd7b6042da792605784aba0e3b4cffc094a6c430ccdf86c7e255",
    "pca-cold-start": "5ad8c849712194b5ed28c5b0dfcfdea420a5adc1dfba98d14a286602fe6776f9",
    "lil": "70930f30fed3b750aff0a175ac212359fb800a5e695d729fd23b42e7cb5de62b",
    "recursion-fidelity": "2df17a0fd2ee5c924ec0ed6be393ea0a671800a3e4260d06bdecc92f2f7375a8",
}

_COVERAGE_FIELDS = ("violations", "first_violation_times", "empirical_rate", "passed")

WORKLOADS = {
    "sgd-coverage": {
        "command": "coverage",
        "config": "configs/sgd_coverage.json",
        "overrides": {"horizon": 2000, "record_grid": [0, 10, 100, 1000]},
        "report": "coverage_report.json",
        "fields": _COVERAGE_FIELDS,
    },
    "pca-cold-start": {
        "command": "oja-cold-start",
        "config": "configs/oja_cold_start.json",
        "overrides": {"n_reps": 100, "horizon": 2000},
        "report": "cold_start_report.json",
        "fields": _COVERAGE_FIELDS + ("hit_rate", "hit_passed"),
    },
    "lil": {
        "command": "lil",
        "config": "configs/lil.json",
        "overrides": {"n_blocks": 15},
        "report": "lil_report.json",
        "fields": ("final_max", "fraction_at_or_above", "passed"),
    },
    "recursion-fidelity": {
        "command": None,
        "config": None,
        "overrides": {"n_paths": 100, "horizon": 5000},
        "report": "recursion_report.json",
        "fields": ("ok",),
    },
}
EXPECTED_EXIT = 0

# Metrics the traced run cannot observe on a workload, with the reason.
_LIL_DRAWS = (
    "harness._lil_batch draws its noise with Generator.uniform inside the private "
    "engine, where no outside wrapper reaches"
)
_LIL_ENGINE = (
    "the LIL engine is the private harness._lil_batch, not an algorithms engine; "
    "its time is in harness.self_s"
)
NOT_MEASURED = {
    "lil": {
        "streams.": _LIL_DRAWS,
        "algorithms.engine_calls": _LIL_ENGINE,
        "algorithms.engine_s": _LIL_ENGINE,
        "algorithms.step_s": _LIL_ENGINE,
        "algorithms.rep_steps": _LIL_ENGINE,
        "algorithms.out_bytes": _LIL_ENGINE,
    },
}


def make_config(name: str, shipped: dict | None) -> dict:
    """The generated config the program sees: the shipped one with the
    workload's overrides (the seed is not part of it)."""
    return {**(shipped or {}), **WORKLOADS[name]["overrides"]}


def rep_steps(name: str, config: dict, report: dict) -> int:
    """Replications x iterations the run advanced."""
    if name == "sgd-coverage":
        return config["n_reps"] * config["horizon"]
    if name == "pca-cold-start":
        return config["n_reps"] * (report["split_t"] + config["horizon"])
    if name == "lil":
        return config["n_seeds"] * 2 ** (config["n_blocks"] + 1)
    # sgd (sc, pl), pca (krasulina, oja) and rm: five engine runs
    return 5 * config["n_paths"] * config["horizon"]


def verdict_digest(name: str, report: dict) -> str:
    """sha256 over the workload's verdict fields only, so reports that gain
    new fields keep their digest."""
    fields = {k: report[k] for k in WORKLOADS[name]["fields"]}
    return hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()
