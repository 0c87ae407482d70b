"""Golden report payloads.

Each case runs one CLI experiment on a small config and pins the sha256 of
its deterministic report payload (the whole JSON document except the
`timing` object).  Unlike a verdict digest, the payload includes loss
quantiles, widths and first-violation times, so any drift in the simulated
losses changes the hash.  The hashes were computed before the engines and
the harness driver were restructured; a change that keeps them is
bit-identical to the code that produced them.
"""

import hashlib
import json

import pytest

from anytime_iter.cli import SEED_ENV, main

SGD = {
    "curvature": [1.0, 1.0],
    "x_star": [0.0, 0.0],
    "radius": 0.5,
    "b_noise": 0.5,
    "x0": [0.5, 0.0],
}

CASES = {
    # 600 reps cross a 512-rep block; from this start the shrunken boundary
    # is crossed by about a quarter of the paths, at several times.
    "sgd-falsification": (
        "coverage",
        {
            "algorithm": "sgd_sc",
            "problem": dict(SGD, x0=[0.375, 0.0]),
            "delta": 0.05,
            "n_reps": 600,
            "horizon": 400,
            "seed_base": 11,
            "record_grid": [0, 10, 100, 400],
            "boundary_scale": 1.0 / 1008.0,
        },
        "coverage_report.json",
        "4335a6602c5ff8532457e3010b42dcd8b5183d755c618f879418b326fd55d0fa",
    ),
    "krasulina-warm": (
        "coverage",
        {
            "algorithm": "krasulina",
            "problem": {"eigs": [2.0, 1.0], "v0": "warm"},
            "delta": 0.05,
            "n_reps": 40,
            "horizon": 2000,
            "seed_base": 7,
            "record_grid": [0, 500, 2000],
        },
        "coverage_report.json",
        "fc1d4ed274970dd71835a3f718ba9af4779bff43f7df801d38123c170d83bc6f",
    ),
    "oja": (
        "coverage",
        {
            "algorithm": "oja",
            "problem": {"eigs": [2.0, 1.0, 0.5], "v0": "warm"},
            "delta": 0.05,
            "n_reps": 40,
            "horizon": 2000,
            "seed_base": 8,
            "record_grid": [0, 500, 2000],
        },
        "coverage_report.json",
        "37245e94d3df435f2522b24950a6f3d43889ccef352ba48317ea785e5d74873a",
    ),
    "ridge": (
        "coverage",
        {
            "algorithm": "ridge",
            "problem": {
                "theta_star": [0.5, 0.5],
                "x_radius": 1.0,
                "noise_radius": 0.5,
                "diam": 2.0,
                "lambda_pen": 0.0,
                "theta0": [0.0, 0.0],
            },
            "delta": 0.05,
            "n_reps": 60,
            "horizon": 2500,
            "seed_base": 9,
            "record_grid": [0, 100, 2500],
        },
        "coverage_report.json",
        "4758cd001b95a0f83bed83a0c9d1b2b06bf46fb84156b1cc2cfed739d24409f5",
    ),
    "last-iterate": (
        "last-iterate",
        {
            "algorithm": "sgd_sc",
            "problem": SGD,
            "delta": 0.99,
            "n_reps": 300,
            "horizon": 300,
            "t_eval": 300,
            "seed_base": 12,
        },
        "last_iterate_report.json",
        "de4d98c679e3f17be704f8591bfd227c144110461b839c3c225b36008035cf73",
    ),
    "cold-start": (
        "oja-cold-start",
        {
            "eigs": [2.0, 1.0, 1.0, 1.0],
            "delta": 0.3,
            "c_explore": 0.05,
            "c_stable": 6.0,
            "horizon": 500,
            "n_reps": 60,
            "seed_base": 21,
        },
        "cold_start_report.json",
        "d64491be8fbdf51d69bd4257553806a4b0dd58b12836ba2f7a573b7dae5ebb9f",
    ),
    "lil": (
        "lil",
        {"l1": 1.0, "l2": 1.0, "n_blocks": 8, "n_seeds": 4, "seed_base": 3},
        "lil_report.json",
        "7246a3386aecfd6e74800fcea14948c37ada38ece238dd8cbea23ce69909d183",
    ),
}


def payload_sha256(command, cfg, report, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    main([command, "--config", str(path), "--out-dir", str(out)])
    doc = json.loads((out / report).read_text())
    doc.pop("timing")
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_payload_is_pinned(name, tmp_path, monkeypatch):
    monkeypatch.delenv(SEED_ENV, raising=False)
    command, cfg, report, expected = CASES[name]
    assert payload_sha256(command, cfg, report, tmp_path) == expected
