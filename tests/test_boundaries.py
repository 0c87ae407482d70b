"""Tests for the closed-form boundaries: frozen spot values, monotonicity,
the general-to-SGD specialization, the maximal-inequality constant, and the
stitched dyadic-epoch schedule."""

import json
import math

import numpy as np
import pytest

from anytime_iter import (
    RecursionParams,
    StepSchedule,
    boundary_catalog,
    conf_boundary,
    oja_boundary,
    pl_boundary,
    pl_last_iterate,
    rakhlin_fixed_horizon,
    ridge_boundary,
    sgd_boundary,
    sgd_last_iterate,
    stitch_schedule,
    two_phase_oja_schedule,
    write_catalog_json,
    write_width_csv,
)
from anytime_iter.boundaries import _k_const, maximal_inequality_m, maximal_threshold

E2 = math.exp(-2.0)
REL = 1e-12


def close(x, y, rel=REL):
    return math.isclose(x, y, rel_tol=rel, abs_tol=0.0)


# ---------------------------------------------------------------------------
# Step schedules
# ---------------------------------------------------------------------------


def test_inverse_time_schedule_values():
    sch = StepSchedule.inverse_time(2.0, 32.0)
    assert sch.eta(1) == 2.0 / 33.0
    assert np.allclose(sch.etas(3), [2 / 33, 2 / 34, 2 / 35])


def test_schedule_rejects_inadmissible_steps():
    with pytest.raises(ValueError):
        StepSchedule.inverse_time(2.0, 0.5).etas(3)  # eta_1 = 2/1.5 > 1


def test_piecewise_constant_schedule():
    sch = StepSchedule.piecewise_constant([(3, 0.5), (6, 0.25)])
    assert np.allclose(sch.etas(6), [0.5, 0.5, 0.5, 0.25, 0.25, 0.25])


def test_two_phase_schedule():
    sch = StepSchedule.two_phase(eta0=0.1, h0_end=4, c=1.0, beta=2.0)
    etas = sch.etas(6)
    assert np.allclose(etas[:4], 0.1)
    # decaying phase: c/(beta + t - h0_end)
    assert np.allclose(etas[4:], [1.0 / 3.0, 1.0 / 4.0])


# ---------------------------------------------------------------------------
# Frozen golden values (independently recomputed from the closed forms)
# ---------------------------------------------------------------------------


def test_sgd_boundary_golden():
    d = E2 - 1e-15
    assert close(float(sgd_boundary(1.0, 1.0, d).eval(0, d)), 112.59328551512884, rel=1e-10)
    assert close(float(sgd_boundary(2.0, 0.5, 0.01).eval(100, 0.01)), 940.3858107458325)


def test_sgd_boundary_scales_as_b2_over_lam2():
    d = 0.01
    w1 = float(sgd_boundary(1.0, 1.0, d).eval(17, d))
    w2 = float(sgd_boundary(3.0, 2.0, d).eval(17, d))
    assert close(w2, w1 * 9.0 / 4.0)


def test_last_iterate_golden():
    assert close(sgd_last_iterate(1.0, 1.0, math.exp(-1.0), 7), 2.1)
    assert close(pl_last_iterate(1.0, 1.0, 2.0, math.exp(-5.0), 7), 2.625)


def test_pl_last_iterate_domain():
    with pytest.raises(ValueError):
        pl_last_iterate(1.0, 1.0, 2.0, math.exp(-3.0), 7)  # needs delta < e^-4


def test_rakhlin_golden_and_domain():
    assert close(rakhlin_fixed_horizon(1.0, 1.0, math.exp(-1.0), 100, 100), 15.769600865041303)
    with pytest.raises(ValueError):
        rakhlin_fixed_horizon(1.0, 1.0, 0.01, 100, 101)  # beyond its horizon


def test_pl_boundary_golden_and_branch_switch():
    d = math.exp(-3.0)
    assert close(float(pl_boundary(1.0, 1.0, 2.0, d).eval(0, d)), 3073.99009098941)
    # the max switches branch once log(1/delta) crosses 64*tau/mu
    deep = math.exp(-200.0)
    assert close(float(pl_boundary(1.0, 1.0, 2.0, deep).eval(0, deep)), 3174.7966427575643)


def test_oja_boundary_golden():
    d = math.exp(-3.0)
    b, l_off = oja_boundary(1.0, 1.0, d)
    assert l_off == 1152
    assert close(float(b.eval(0, d)), 384.24876137367625)
    assert b.valid_from == 0 and close(b.confidence_cost, 2.0 * (math.e + 1.0))


def test_oja_offset_floor():
    # tiny log(1/delta)^2 factor would give l_off < 32; the floor applies
    b_small, l_off = oja_boundary(0.1, 5.0, E2 * 0.999)
    assert l_off == 32


def test_ridge_boundary_golden():
    d = math.exp(-3.0)
    assert close(float(ridge_boundary(1.0, 1.0, 1.0, 1.0, 1.0, d).eval(0, d)), 2306.4925682420576)


def test_ridge_bias_floor():
    # with lambda_pen > 0 the width approaches the bias term, not zero
    d = 0.01
    b = ridge_boundary(1.0, 1.0, 1.0, 1.0, 1.0, d)
    w = float(b.eval(10**9, d))
    assert close(w, 1.0, rel=1e-3)  # bias = lambda_pen^2*||theta*||^2/lambda_min^2 = 1


def test_k_const_golden():
    assert _k_const(32) == 32.0
    assert _k_const(40) == 38.0
    assert _k_const(10) == 1024.0


def test_conf_boundary_golden():
    d = math.exp(-3.0)
    p = RecursionParams(c1=1.0, c2=1.0, c3=1.0)
    assert close(float(conf_boundary(p, 1.0, 32, d).eval(0, d)), 1536.995045494705)
    assert close(float(conf_boundary(p, 1.0, 100, d).eval(5, d)), 4842.026691303636)


# Every width and its paired schedule, pinned byte for byte: eval(t, delta) on
# a time grid at two deltas, then schedule.etas(5), as float.hex strings.
PIN_TIMES = np.array([0, 1, 2, 10, 1000, 10**6, 10**9])
_P1 = RecursionParams(c1=1.3, c2=0.7, c3=0.9)
_P2 = RecursionParams(c1=0.6, c2=2.5, c3=3.1)
_E3 = math.exp(-3.0)
PIN_BOUNDARIES = {
    "sgd": (lambda: sgd_boundary(1.14, 0.7, 0.01), (0.01, 0.1)),
    "pl": (lambda: pl_boundary(1.3, 0.9, 1.7, _E3), (_E3, math.exp(-200.0))),
    "oja": (lambda: oja_boundary(1.1, 0.9, _E3)[0], (_E3, 0.01)),
    "oja-floor": (lambda: oja_boundary(0.1, 5.0, 0.1)[0], (0.1, 0.01)),
    "ridge": (lambda: ridge_boundary(1.2, 0.8, 0.0, 0.6, 0.5, 0.01), (0.01, 0.1)),
    "ridge-penalized": (lambda: ridge_boundary(1.5, 2.0, 0.3, 0.7, 1.2, 0.01), (0.01, 0.1)),
    "conf-32": (lambda: conf_boundary(_P1, 1.0, 32, _E3), (_E3, 0.01)),
    "conf-100": (lambda: conf_boundary(_P2, 0.1, 100, _E3), (_E3, 0.01)),
    "conf-10": (lambda: conf_boundary(_P1, 2.0, 10, 0.1), (0.1, 0.01)),
}
PIN_BYTES = {
    "sgd": (
        ['0x1.02234c7774b23p+9', '0x1.fc3853d93b09bp+8', '0x1.f3a699ab12749p+8', '0x1.ae9e711dea5ccp+8', '0x1.5f3329128af14p+4', '0x1.afbb5ffb3dce3p-6', '0x1.de7afe1c511dcp-16'],
        ['0x1.43e797749f382p+8', '0x1.41ada7bfbccf4p+8', '0x1.3e987a28eac37p+8', '0x1.1c0ce9e550538p+8', '0x1.ff851328c4595p+3', '0x1.4ae096436c2dbp-6', '0x1.7733b564699f9p-16'],
        ['0x1.62a1cd058a873p-5', '0x1.5833a15833a16p-5', '0x1.4e5e0a72f053ap-5', '0x1.4514514514514p-5', '0x1.3c4b1ea413c4bp-5'],
    ),
    "pl": (
        ['0x1.7dfd0caae71aap+12', '0x1.79ff98e4d9892p+12', '0x1.75419563008bap+12', '0x1.484979db09d8cp+12', '0x1.1c8807b4940cep+8', '0x1.69408ebfdf03ep-2', '0x1.964a1e1ee7557p-12'],
        ['0x1.a1b8d170e5af8p+12', '0x1.95407f724b410p+12', '0x1.897db0fd3124bp+12', '0x1.3f304e72be059p+12', '0x1.a3332263f49b5p+7', '0x1.bdfd451748223p-3', '0x1.ca8318189e6c7p-13'],
        ['0x1.240cc6f581241p-5', '0x1.1b75d02a84df4p-5', '0x1.135c81135c811p-5', '0x1.0bb6610bb6611p-5', '0x1.047a193bd40b6p-5'],
    ),
    "oja": (
        ['0x1.803faed34c729p+8', '0x1.87ede640d2b9dp+8', '0x1.8e8c7694256f7p+8', '0x1.af5afde974910p+8', '0x1.85c749fd132fcp+8', '0x1.70d7f3e6e0276p+0', '0x1.9fad60deab8dep-10'],
        ['0x1.52270120a5962p+8', '0x1.571d170791748p+8', '0x1.5b62384d84879p+8', '0x1.706b8194707acp+8', '0x1.394394f74083dp+8', '0x1.1f057e908e54bp+0', '0x1.3ec09536d0c36p-10'],
        ['0x1.1787e39c32e22p-10', '0x1.1765915c27902p-10', '0x1.17434788a8a61p-10', '0x1.1721061e9c8bfp-10', '0x1.16fecd1aeb2f3p-10'],
    ),
    "oja-floor": (
        ['0x1.a84e02414b2c3p+8', '0x1.a5636912c15ccp+8', '0x1.a1599cc881ee1p+8', '0x1.7418d3d707bd5p+8', '0x1.4f098bf011d80p+4', '0x1.b1704ba7bd20ep-6', '0x1.eb80a94cf8093p-16'],
        ['0x1.52270120a5961p+8', '0x1.4ce0402c49689p+8', '0x1.474364fad78dap+8', '0x1.1a0c69eb83deap+8', '0x1.cc0f8007e2374p+3', '0x1.1ac70a53f4956p-6', '0x1.3965a36443c8ep-16'],
        ['0x1.8d3018d3018d3p-7', '0x1.8181818181818p-7', '0x1.767dce434a9b1p-7', '0x1.6c16c16c16c17p-7', '0x1.623fa77016240p-7'],
    ),
    "ridge": (
        ['0x1.c61807185021bp+11', '0x1.bf0224ee52e6ep+11', '0x1.b778a2f55285bp+11', '0x1.7ac0f83dff10bp+11', '0x1.34e67400d25e2p+7', '0x1.7bbb95a23c5fdp-3', '0x1.a4d9c8ab9d09cp-13'],
        ['0x1.1ce47d53ff020p+11', '0x1.1aef32bb97a16p+11', '0x1.1839123c8db33p+11', '0x1.f3ad4f50d7d8ep+10', '0x1.c1e925c1d33f8p+6', '0x1.23067e8c7c066p-3', '0x1.4a02eea0d238bp-13'],
        ['0x1.9dbcc48676f31p-4', '0x1.9191919191919p-4', '0x1.8618618618619p-4', '0x1.7b425ed097b43p-4', '0x1.71024e6a17103p-4'],
    ),
    "ridge-penalized": (
        ['0x1.70fb809625c59p+14', '0x1.6b399d2dd1867p+14', '0x1.6519c62a19177p+14', '0x1.33c39e85fd771p+14', '0x1.f621c21d22aa7p+9', '0x1.7843cdd29392dp+0', '0x1.102c611bafc43p-2'],
        ['0x1.cefe18c5d2a9cp+13', '0x1.cbcf7045d87fdp+13', '0x1.c767664e1ac43p+13', '0x1.96068bfadbc89p+13', '0x1.6db62523d8cd8p+9', '0x1.302f50e88787dp+0', '0x1.0fe291280cee0p-2'],
        ['0x1.62a1cd058a873p-4', '0x1.5833a15833a16p-4', '0x1.4e5e0a72f053ap-4', '0x1.4514514514514p-4', '0x1.3c4b1ea413c4bp-4'],
    ),
    "conf-32": (
        ['0x1.803faed34c729p+10', '0x1.7c3c2fc35d185p+10', '0x1.7776fd46ce8f7p+10', '0x1.4a3ac349664eap+10', '0x1.1e3709440990cp+6', '0x1.6b63c7a439b52p-4', '0x1.98b18fe88dd09p-14'],
        ['0x1.52270120a5961p+10', '0x1.4ce0402c49689p+10', '0x1.474364fad78dap+10', '0x1.1a0c69eb83deap+10', '0x1.cc0f8007e2374p+5', '0x1.1ac70a53f4956p-4', '0x1.3965a36443c8ep-14'],
        ['0x1.7de952f2466a3p-5', '0x1.72adc172adc17p-5', '0x1.6816816816816p-5', '0x1.5e15e15e15e15p-5', '0x1.549faad81549fp-5'],
    ),
    "conf-100": (
        ['0x1.d731eecdded53p+11', '0x1.dc1559cbb1492p+11', '0x1.df9b9903a5e57p+11', '0x1.e32e9ae3d6954p+11', '0x1.0140582309c07p+9', '0x1.5c1d2c39c7effp-1', '0x1.878a3a4b99743p-11'],
        ['0x1.3e4501c4660b3p+12', '0x1.3fe52bc11defep+12', '0x1.40dadbb0473fdp+12', '0x1.3cbf56de2896cp+12', '0x1.3d605facd463cp+9', '0x1.9fd5056970654p-1', '0x1.cce3e8eda5db8p-11'],
        ['0x1.0e5ceff27b5a7p-5', '0x1.0bb6610bb6611p-5', '0x1.091cff2be8cd8p-5', '0x1.0690690690691p-5', '0x1.0410410410410p-5'],
    ),
    "conf-10": (
        ['0x1.a84e02414b2c2p+16', '0x1.8b0d32819546fp+16', '0x1.71875826ddb57p+16', '0x1.e860960a3a286p+15', '0x1.abeb3e236a6f1p+10', '0x1.0ee7b5dc60dcep+1', '0x1.33306a417d19bp-9'],
        ['0x1.52270120a5961p+16', '0x1.38123c2984d1fp+16', '0x1.21c3ac136edabp+16', '0x1.72304b051d142p+15', '0x1.25cd1120ea71dp+10', '0x1.617aca89ab0c5p+0', '0x1.87bf0ccdec8dfp-10'],
        ['0x1.1e6efe35b4cfap-3', '0x1.0690690690690p-3', '0x1.e4bbd595f6e94p-4', '0x1.c21c21c21c21bp-4', '0x1.a41a41a41a41ap-4'],
    ),
}


def _hex_bytes(values):
    return np.array([float.fromhex(v) for v in values]).tobytes()


@pytest.mark.parametrize("name", sorted(PIN_BOUNDARIES))
def test_boundary_bytes_pinned(name):
    make, deltas = PIN_BOUNDARIES[name]
    boundary = make()
    *widths, etas = PIN_BYTES[name]
    for delta, pinned in zip(deltas, widths, strict=True):
        assert np.asarray(boundary.eval(PIN_TIMES, delta)).tobytes() == _hex_bytes(pinned)
    assert boundary.schedule.etas(5).tobytes() == _hex_bytes(etas)


def test_delta_domain_enforced():
    for make in (
        lambda d: sgd_boundary(1.0, 1.0, d),
        lambda d: oja_boundary(1.0, 1.0, d),
        lambda d: ridge_boundary(1.0, 1.0, 0.0, 1.0, 1.0, d),
    ):
        with pytest.raises(ValueError):
            make(0.5)


# ---------------------------------------------------------------------------
# Monotonicity and shape
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "boundary,t_start",
    [
        (sgd_boundary(1.0, 1.0, 0.01), 0),
        (pl_boundary(1.0, 1.0, 2.0, 0.01), 0),
        # the streaming-PCA boundary rises slightly while t is small compared
        # to its offset (the exploration region); it decays from the offset on
        (oja_boundary(1.0, 1.0, 0.01)[0], oja_boundary(1.0, 1.0, 0.01)[1]),
        (ridge_boundary(1.0, 1.0, 0.0, 1.0, 1.0, 0.01), 0),
    ],
)
def test_width_nonincreasing_in_t(boundary, t_start):
    t = np.unique(np.round(np.logspace(math.log10(t_start + 1), 8, 200)).astype(int))
    w = np.asarray(boundary.eval(t, 0.01))
    assert np.all(np.diff(w) <= 1e-15)


def test_width_nonincreasing_in_delta():
    # larger delta -> smaller log(1/delta) -> narrower boundary
    b = sgd_boundary(1.0, 1.0, 0.001)
    assert float(b.eval(100, 0.001)) > float(b.eval(100, 0.01))


# ---------------------------------------------------------------------------
# Specialization of the general boundary to SGD
# ---------------------------------------------------------------------------


def test_conf_specializes_to_sgd():
    # with (C1, C2, C3, a) = (2*lam, B^2, 2*B, B^2/lam^2) and offset 32 the
    # general boundary collapses to the SGD formula once log(1/delta) >= 32
    b_const, lam = 2.0, 0.5
    d = math.exp(-33.0)
    p = RecursionParams(c1=2 * lam, c2=b_const**2, c3=2 * b_const)
    cb = conf_boundary(p, b_const**2 / lam**2, 32, d)
    sb = sgd_boundary(b_const, lam, d)
    t = np.arange(0, 10**4)
    assert np.max(np.abs(np.asarray(cb.eval(t, d)) / np.asarray(sb.eval(t, d)) - 1.0)) <= 1e-12


# ---------------------------------------------------------------------------
# Maximal inequality
# ---------------------------------------------------------------------------


def test_maximal_inequality_golden():
    m = maximal_inequality_m(1.0, 1.0, 1.0, 1.0, 32, 0, 100, math.exp(-4.0))
    assert close(m, 75.67875)


def test_maximal_threshold_formula():
    thr = maximal_threshold(2.0, 0, 100, math.exp(-1.0), 7)
    assert close(float(thr), 2.0 * 100 * 1.0 / 100.0)


def test_maximal_inequality_validation():
    with pytest.raises(ValueError):
        maximal_inequality_m(1.0, 1.0, 1.0, 1.0, 32, 10, 10, 0.01)
    with pytest.raises(ValueError):
        maximal_inequality_m(1.0, 1.0, 1.0, 1.0, 2, 0, 10, 0.01)


# ---------------------------------------------------------------------------
# Stitched schedule
# ---------------------------------------------------------------------------


def test_stitch_kappa_golden():
    p = RecursionParams(c1=1.0, c2=1.0, c3=1.0)
    ss = stitch_schedule(p, 0.01, 10**5)
    # D = max{c2/c1, c3/sqrt(c1)} = 1, denom = 2*128 = 256, kappa = 2^-17
    assert ss.kappa == 2.0**-17
    assert ss.d_const == 1.0


def test_stitch_epoch_contraction_window():
    p = RecursionParams(c1=1.0, c2=1.0, c3=1.0)
    ss = stitch_schedule(p, 0.01, 10**5)
    for i, eta in enumerate(ss.etas):
        n_i = ss.epochs[i + 1] - ss.epochs[i]
        factor = (1.0 - p.c1 * eta) ** n_i
        assert 1.0 / 16.0 <= factor <= 1.0 / 8.0
        # n_i is minimal: one fewer step stays above 1/8
        assert (1.0 - p.c1 * eta) ** (n_i - 1) > 1.0 / 8.0


def test_stitch_targets_and_confidences():
    p = RecursionParams(c1=2.0, c2=0.5, c3=1.0)
    ss = stitch_schedule(p, 0.01, 10**4)
    for i in range(1, len(ss.h)):
        assert close(ss.h[i], ss.h0 * 2.0**-i)
        assert close(ss.deltas[i - 1], 0.01 / (i + 10.0) ** 2)
        assert close(ss.etas[i - 1], ss.kappa * ss.h[i - 1] / math.log(1.0 / ss.deltas[i - 1]))


def test_stitch_widths_start_at_h0_and_decay():
    p = RecursionParams(c1=1.0, c2=1.0, c3=1.0)
    ss = stitch_schedule(p, 0.01, 10**4)
    assert float(ss.widths(0)) == ss.h0
    t = np.arange(0, ss.epochs[-1] + 1)
    w = ss.widths(t)
    assert w[-1] < ss.h0
    assert np.all(w > 0)


def test_stitch_with_superlinear_terms():
    # extra terms with exponent sums above one are admitted and shrink h0
    p_extra = RecursionParams(
        c1=1.0,
        c2=1.0,
        c3=1.0,
        terms_mean=((0.5, 1.0, 1.0),),
        terms_mag=((0.5, 0.5, 2.0),),
    )
    ss = stitch_schedule(p_extra, 0.01, 10**4)
    base = stitch_schedule(RecursionParams(c1=1.0, c2=1.0, c3=1.0), 0.01, 10**4)
    assert ss.h0 <= base.h0
    assert ss.kappa <= base.kappa


def test_stitch_rejects_linear_terms():
    p = RecursionParams(c1=1.0, c2=1.0, c3=1.0, terms_mean=((1.0, 0.0, 1.0),))
    with pytest.raises(ValueError):
        stitch_schedule(p, 0.01, 100)


def test_stitch_step_schedule_round_trip():
    p = RecursionParams(c1=1.0, c2=1.0, c3=1.0)
    ss = stitch_schedule(p, 0.01, 10**4)
    sch = ss.to_step_schedule()
    etas = sch.etas(ss.epochs[-1])
    for i, eta in enumerate(ss.etas):
        assert np.all(etas[ss.epochs[i] : ss.epochs[i + 1]] == eta)


def test_two_phase_oja_schedule_split():
    sch = two_phase_oja_schedule(1.0, 1.0, 0.3, c_explore=0.5, c_stable=2.0)
    h0 = math.ceil(0.5 * 1.0 / (0.3**6 * 1.0))
    assert sch.h0_end == h0
    etas = sch.etas(h0 + 2)
    assert np.allclose(etas[:h0], 2.0 / h0)
    assert etas[h0] < etas[h0 - 1] + 1e-15


# ---------------------------------------------------------------------------
# Catalog / exports
# ---------------------------------------------------------------------------


def test_catalog_json(tmp_path):
    bounds = [sgd_boundary(1.0, 1.0, 0.01), ridge_boundary(1.0, 1.0, 0.0, 1.0, 1.0, 0.01)]
    entries = boundary_catalog(bounds)
    assert {e["label"] for e in entries} == {"sgd", "ridge"}
    for e in entries:
        assert set(e) == {"label", "params", "formula", "confidence_cost", "valid_from"}
    path = tmp_path / "catalog.json"
    write_catalog_json(bounds, path)
    assert json.loads(path.read_text()) == json.loads(json.dumps(entries))


def test_width_csv(tmp_path):
    b = sgd_boundary(1.0, 1.0, 0.01)
    path = tmp_path / "w.csv"
    write_width_csv(b, 0.01, [0, 10, 100], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,width"
    assert len(lines) == 4
    t0, w0 = lines[1].split(",")
    assert float(w0) == float(b.eval(0, 0.01))
