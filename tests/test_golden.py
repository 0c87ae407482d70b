"""Golden report payloads and engine outputs.

Each report case runs one CLI experiment on a small config and pins the
sha256 of its deterministic report payload (the whole JSON document except
the `timing` object).  Unlike a verdict digest, the payload includes loss
quantiles, widths and first-violation times, so any drift in the simulated
losses changes the hash.  The hashes were computed before the engines and
the harness driver were restructured; a change that keeps them is
bit-identical to the code that produced them.

The engine cases pin, per engine, the sha256 of every array the batched
engine returns (losses, every recorded noise channel and the final iterate)
and its projection count, at the default chunk length and at 7-step chunks.
The report payloads see losses only; these see the channels that the
recursion checks read.  The LIL case pins the dyadic block maxima.

A guard reruns the engine cases and a cubic LIL ensemble in a child process
on OpenBLAS's Prescott kernels with numpy's AVX-512 loops disabled, and
compares its digests with this process's: the pinned bytes must not depend
on the BLAS kernel or the SIMD loops numpy picks for the CPU.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from anytime_iter import _kernel, algorithms
from anytime_iter.algorithms import RmProblem, SgdProblem, ridge_batch, rm_batch, sgd_batch
from anytime_iter.boundaries import StepSchedule
from anytime_iter.cli import SEED_ENV, main
from anytime_iter.harness import _lil_batch
from anytime_iter.seeding import rep_seed
from anytime_iter.streams import LinearModelStream
from test_algorithms import ENGINES, ETAS, RIDGE

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


# ---------------------------------------------------------------------------
# Engine outputs
# ---------------------------------------------------------------------------


SGD_3D = SgdProblem(curvature=(0.5, 1.0, 2.0), x_star=(0.3, 0.0, 0.0), radius=0.5, b_noise=2.0)
PL = SgdProblem(curvature=(1.0, 1.0), x_star=(0.0, 0.0), radius=4.0, b_noise=0.5)
RM_LINEAR = RmProblem(m_kind="linear", slope=1.0)
LONG = 300

# name -> (values drawn per replication and step, run(seeds))
ENGINE_CASES = dict(ENGINES)
ENGINE_CASES.update(
    {
        # large noise on a small ball, so the projection is hit
        "sgd-projected-3d": (
            3,
            lambda seeds: sgd_batch(
                SGD_3D, StepSchedule.inverse_time(1.0, 4.0).etas(LONG), (0.0, 0.5, 0.0), seeds
            ),
        ),
        "sgd-pl": (
            2,
            lambda seeds: sgd_batch(
                PL, StepSchedule.inverse_time(1.0, 32.0).etas(LONG), np.array([1.0, 0.0]), seeds
            ),
        ),
        "rm-linear": (
            1,
            lambda seeds: rm_batch(
                RM_LINEAR, StepSchedule.inverse_time(0.5, 1.0).etas(LONG), 1.0, seeds
            ),
        ),
        "ridge-penalty-outside": (
            3,
            lambda seeds: ridge_batch(RIDGE, 2.0, 0.1, ETAS, (0.0, 0.0), seeds, False),
        ),
    }
)

ENGINE_DIGESTS = {
    "krasulina": {
        "final_v": "f2e8d188b21418df6f9e5e833ce984c12248dd78394f47629e68e91aa0f00aa0",
        "loss": "f4cb356ba8ae63e4435cc3369c55f2663801e963b03fa7ae0af7af6eed3af2c0",
        "norm_ratio": "9d882ea4fc4b7440c82c1854690f7f05f5fedbe886db7cba25e1de5c35dfd7bf",
        "q": "2b32b9a86edb60f46ce2a6e7f44b0c89152b862d41b2b1f292b079378319ba9e",
        "z_dot_v": "85c26e66f0229eba7673e32628daa679be076740e542a6306a46bdd351713a68",
        "znorm2": "993e3419c79c9c4e927f471dd82044420a44bdf4540166599e2b85d7fc30a780",
    },
    "krasulina-normalized-rotated": {
        "final_v": "2aadba7d8f6ecdbba4dc3e670f5edb25d35ac36ccb92bd7785d3c886d8a1ffe9",
        "loss": "99cf2af78b5cc6ccc4efd66eb8796c417ae740aa1445b2b2073d98657d72e81a",
        "norm_ratio": "e4d5a7b4c89633b24d5b143474e3d873833a55a85f2c88a0525b8e411ce3b1e1",
        "q": "1ce6a8d673a51d769d9657f342b6b20f43169e7d673fefbfa96b4e8c0066d5da",
        "z_dot_v": "d547e3596d2a1b0a025450f97c3be06dd00b9caf8af907fe8bd4a88b2d52ef78",
        "znorm2": "4714a5a7d133aece9d78b55f70364287621ae91e27fbd589e6473c53f97ba012",
    },
    "krasulina-rotated": {
        "final_v": "00eaabca2d222222bc519ae828b08001bcfb99948abb6c3b10cd9166d7605520",
        "loss": "7c1df38c057ce4498532defed7bd8db59e0ac79d97518dfac94e8d5453790c9c",
        "norm_ratio": "66b2c6b161b61cac1ce6562c675ad47ec1c59757250cac0b38278e9bcb3bc048",
        "q": "e22107172685e028287464a11859456a2c8b850df66121ca0922618d9b7bc661",
        "z_dot_v": "c2cdfdf2bf6a2947e13973d840fa40f9ea9fed0b3baa62d15b3779d556fcbc34",
        "znorm2": "f1fc68c2a2c3ffcb96e91aa1fd54b705ef4124c7b3fef419b0bd7e0e5583b48e",
    },
    "oja": {
        "final_v": "6d61b6aac36d82927aedf1ce13d0921ca1f66f10bf49ceb984fae0ed7814d2bf",
        "loss": "9da81151220cf9cf0ae93923ea78fa7924e480af06c472bb5e414d2f7e125f37",
        "norm_ratio": "79f79283810f07adc60829973eec8155ce74cb8b7653e728a547fb58d612e4ea",
        "q": "1ff7cdb01530dc17abb02362f2b19eeed69b2218ad13e9cc9b41d8e0485e04d0",
        "z_dot_v": "fda76fc96a004034aee0fc99554eb7e4fa7062b20cbb93489ed1b0c4802579d8",
        "znorm2": "15c8fd8e3b2046d20aab3f094828333e796d942d37f781eda74029437284e518",
    },
    "oja-rotated": {
        "final_v": "27ae7f1056ccc76a83977ef2916b4d9205254cc5b3aa12683424966762abcafc",
        "loss": "275a63edd89aa258662f6ef63542200040fbaa345634f6b40c8f6df42b75d585",
        "norm_ratio": "82d6ae15411a607468475cb6c41e0a7b7537d6c4effd338a18fcd12b8e37eb52",
        "q": "a290e07e0bc1949ba18590b9bb1cceeb41a510cad073015256ebb93819a1dd7c",
        "z_dot_v": "073ccf50b232fc54a068d085888e31b1a34f379f8a25ba565095b1154d272ffa",
        "znorm2": "addbbfacdb618a2fd792532cdef8d64942766c6ad561b7e683838e8ef2422fc8",
    },
    "ridge": {
        "final_theta": "5d9ce82b7a932ac584d0ae1607aea7b7f5c3a817590b30bd219fed0ae508b0a5",
        "loss": "248c49b12cadbf751de0b3a52d3303e9c77519a7b01659164253536802776e68",
    },
    "ridge-penalty-outside": {
        "final_theta": "6cc2b9d0c46ce84b1a4911baf98c34c70721f4bab09ecdf93cde2490124c2533",
        "loss": "919f905da0f3590500cd5f2dffc77ad91be509bc5d3be52a1eaeae265ab74f35",
    },
    "rm": {
        "final_x": "ce51fa6572ff6356c1581f90571466844983fda92b135d52de5eb1a9d9b0a97c",
        "loss": "0c3a04bd8aa2adce4cd7db1b0f63a83cb122f231bf373dcc6885348f41530391",
        "noise": "d1b2468cdb65582bd2fbe71f37374a20952d6dd87f08548235e235923e81725d",
        "q": "af1429df2c4926122049353b20678866cc62cfde5c9503e54d31b336708ae79e",
    },
    "rm-linear": {
        "final_x": "67daa0ee1fa460e0c748ae5e60b5fb26f9e9c971b17099af89e09148f135b80a",
        "loss": "6249acb660dab0e165281cc144df383751f6a5df9cfd97e610c47d5168a1e866",
        "noise": "cfaf8b665c2760065e6d7e9108d71165fa6e49e0183e58b1723dec771796e137",
        "q": "76f51f04be41d3cc828bc074753d76b8ef8da6d504a411f45d9f5ceca197cfdb",
    },
    "sgd": {
        "final_x": "523d2874112b2b31de831389106353468e2a276ae35c21172cff1a94d2ca1b96",
        "gnorm2": "46c0673becda82a327c85d9954fc7bbe2be6eb0733c1a65f379f71ef2c341016",
        "loss_pl": "0000eb2250b172bfa726ef5bef43706833d5cd452d3309ae2300657006b8cf78",
        "loss_sc": "b37209cdb20f0fd9815ced8fa7d6a6a89b15f0aa667170570612a2228d0d040a",
        "noise_pl": "72d6c2df73b67f238f9fbc02e09ecc383d6931baf24177cf11979582110f6fe7",
        "noise_sc": "dd53e61e2f66be42578051ca7848b4dfcedc2131d96b57e168434dedca213ac9",
        "proj_hits": 0,
        "y_pl": "23eea2f10e29f0a749bdf1654f80ce4a267d9283d25824c2e8c12cb033d9ada1",
        "y_sc": "23eea2f10e29f0a749bdf1654f80ce4a267d9283d25824c2e8c12cb033d9ada1",
    },
    "sgd-pl": {
        "final_x": "99d4bcb4c27d4f2ea745ba08a1d764dbf88379af27f18fc6e7003ef71a233fa9",
        "gnorm2": "15f8ae023adacc64742ceaf15b23be2d24bb2ef259682df536245be6277c62f6",
        "loss_pl": "d7a46360e5a7781a48e5232343fcdf6a6aaf5eb4f0f6a94cbf609dc0a2b460b5",
        "loss_sc": "7e16cf06674ffa95e18f07de0ad9f4af31a24098c08d6c1532bcd6e4f17faac1",
        "noise_pl": "a8d5d0b1de5390eb8691a946265a109ebf98c33aca672d901ff5bbe68e364753",
        "noise_sc": "64354302141cfdfc7448ef503f87a7cd1ae120520ce1eb566ac1511a17897b11",
        "proj_hits": 0,
        "y_pl": "f6080da905a001995a361944008211d3c90075ce86d63cb12355e9aaebec0f04",
        "y_sc": "f6080da905a001995a361944008211d3c90075ce86d63cb12355e9aaebec0f04",
    },
    "sgd-projected-3d": {
        "final_x": "59b61c74bc3d0dc6eb367e261bfe9bfa124b3536eef11e14bb964ef6f1660e5d",
        "gnorm2": "2c55333a8c7049c28d111e8a2826e6947ccbe0890afca98564bd3d557775e748",
        "loss_pl": "ffe7723e3a91fadba88dd35295f0d3ff889610b49f5d9a5b13ab147dbacf337b",
        "loss_sc": "dad072fe0a52b41b982b3286337480900eea87729ae72bb2cf9d116961e1dea6",
        "noise_pl": "a87f89e069f648b7146bb01b252bb13c90c579b9bde9975cee81058cf47d0aa6",
        "noise_sc": "8e98e2182d3b3cf3b54c3838f35cb231cf15b0f71a15ee5a29812cd42006bba8",
        "proj_hits": 15,
        "y_pl": "e9ec372465a90aec02cecad66319c7ee3794158a6d785ca48bca494761f59f13",
        "y_sc": "1b4ac5fbf386587be80df526d51535d368b0dbd6bfc5d205ec8f35f7b8246d8c",
    },
}
LIL_DIGEST = {
    "block_max": "1a030838a2a6b74e74540c5cd2f543eab312287ed9e2e080281e9246043f194c",
}


def engine_digests(res: dict) -> dict:
    """sha256 of the dtype, shape and bytes of every array in an engine
    result, and the value of every integer (proj_hits)."""
    out = {}
    for key, val in sorted(res.items()):
        if isinstance(val, np.ndarray):
            h = hashlib.sha256(f"{val.dtype}{val.shape}".encode())
            h.update(np.ascontiguousarray(val).tobytes())
            out[key] = h.hexdigest()
        elif val is not None:
            out[key] = int(val)
    return out


def run_engine(name, rows, monkeypatch):
    _, run = ENGINE_CASES[name]
    seeds = [rep_seed(17, i) for i in range(5)]
    if rows is not None:
        monkeypatch.setattr(algorithms, "MIN_ROWS", 1)
        monkeypatch.setattr(algorithms, "LOSS_BUDGET", rows * len(seeds))
    return engine_digests(run(seeds))


@pytest.mark.parametrize("rows", [None, 7])
@pytest.mark.parametrize("name", sorted(ENGINE_CASES))
def test_engine_outputs_are_pinned(name, rows, monkeypatch):
    assert run_engine(name, rows, monkeypatch) == ENGINE_DIGESTS[name]


def test_lil_block_maxima_are_pinned():
    problem = RmProblem(m_kind="cubic_plus_linear", theta=0.5, cub_a=0.3, cub_b=1.0)
    block_max, bounds = _lil_batch(problem, 1.0, 7, [rep_seed(5, i) for i in range(3)], 1.0)
    assert bounds == [(2**nb + 1, 2 ** (nb + 1)) for nb in range(1, 8)]
    assert engine_digests({"block_max": block_max}) == LIL_DIGEST


# an x86-64 CPU of another kind, as far as one process can tell: OpenBLAS's
# kernels for the oldest x86-64 it supports, and numpy's loops without
# AVX-512
OTHER_HOST = {
    "OPENBLAS_CORETYPE": "Prescott",
    "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
}
# and one without AVX2 either: numpy's loops and the compiled lane section
# (_kernel.lane_isa) at numpy's baseline, x86-64-v2 for numpy 2.4
NO_AVX2_HOST = dict(
    OTHER_HOST, NPY_DISABLE_CPU_FEATURES=OTHER_HOST["NPY_DISABLE_CPU_FEATURES"] + " X86_V3"
)


# a ridge problem whose responses x.theta*, formed with np.matmul, took
# their bytes from the BLAS kernel: OpenBLAS's Sandybridge and Haswell
# kernels gave other reports
RIDGE_BLAS = LinearModelStream(theta_star=(0.1, 0.2, 0.3), x_radius=1.0, noise_radius=0.5)


def host_digests() -> dict:
    """The digests of every engine case at both chunk lengths, of the
    block maxima of a 50-seed cubic LIL ensemble over 15 blocks, 2^16
    steps, from u = 1.3: while the cubic M was stepped with numpy's u**3,
    this ensemble's bytes followed the SIMD loops numpy picked; and of a
    RIDGE_BLAS run over two chunks, under the compiled kernels and the
    reference."""
    out = {}
    for name in sorted(ENGINE_CASES):
        for rows in (None, 7):
            with pytest.MonkeyPatch.context() as mp:
                out[f"{name}-{rows}"] = run_engine(name, rows, mp)
    problem = RmProblem(m_kind="cubic_plus_linear", theta=0.5, cub_a=0.3, cub_b=1.0)
    block_max, _ = _lil_batch(problem, 0.3, 15, [rep_seed(5, i) for i in range(50)], 1.3)
    out["lil-cubic"] = engine_digests({"block_max": block_max})
    etas = StepSchedule.inverse_time(2.0 / RIDGE_BLAS.lambda_min, 32.0).etas(3000)
    seeds = [rep_seed(19, i) for i in range(5)]
    for label, kernels in (("loaded", _kernel.load()), ("reference", _kernel.REFERENCE)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernel, "load", lambda: kernels)
            res = ridge_batch(RIDGE_BLAS, 2.0, 0.1, etas, (0.0, 0.0, 0.0), seeds)
        out[f"ridge-blas-{label}"] = engine_digests(res)
    return out


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"),
    reason="OPENBLAS_CORETYPE=Prescott and numpy's AVX-512 dispatch are x86-64 choices",
)
def test_pins_do_not_depend_on_blas_or_simd_dispatch():
    # each child reports the level its compiled lane section was built for,
    # the host's capped at x86-64-v3 and at v2, so that no child passes on
    # a library built for this process's level: the level is part of the
    # build's cache key
    tests = Path(__file__).parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    code = (
        "import json, test_golden; from anytime_iter import _kernel; "
        "isa = getattr(_kernel.load(), 'lane_isa', None); "
        "print(json.dumps([isa, test_golden.host_digests()]))"
    )
    children = [
        subprocess.Popen(
            [sys.executable, "-c", code], env=dict(os.environ, **host, PYTHONPATH=path),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for host in (OTHER_HOST, NO_AVX2_HOST)
    ]
    try:
        want = host_digests()
        isa = getattr(_kernel.load(), "lane_isa", None)
        for child, top in zip(children, (3, 2)):
            out, err = child.communicate(timeout=120)
            assert child.returncode == 0, err
            got_isa, digests = json.loads(out)
            assert got_isa == (None if isa is None else min(isa, top))
            assert digests == want
    finally:
        for child in children:
            child.kill()
