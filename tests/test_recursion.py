"""Tests for the contraction-recursion core: parameter containers, the
per-trajectory checker, synthetic processes, and CSV round trips."""

import math

import numpy as np
import pytest

from anytime_iter import (
    CheckReport,
    RecursionParams,
    StepSchedule,
    Trace,
    check_pca_recursion,
    check_recursion,
    counterexample_process,
    simulate_saturating,
    trace_from_csv,
    trace_to_csv,
)


# ---------------------------------------------------------------------------
# RecursionParams
# ---------------------------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        RecursionParams(c1=0.0)
    with pytest.raises(ValueError):
        RecursionParams(c1=1.0, c2=-1.0)
    with pytest.raises(ValueError):
        RecursionParams(c1=1.0, terms_mag=((-1.0, 1.0, 1.0),))
    with pytest.raises(ValueError):
        RecursionParams(c1=1.0, terms_mean=((1.0, -0.5, 1.0),))


def test_params_m_counts_longest_term_list():
    p = RecursionParams(
        c1=1.0,
        terms_mean=((1.0, 1.0, 2.0),),
        terms_mag=((1.0, 0.5, 1.0), (2.0, 1.5, 2.0)),
    )
    assert p.m == 2


def test_master_applicable_requires_superlinear_exponent_sums():
    ok = RecursionParams(c1=1.0, terms_mag=((1.0, 0.5, 2.0),))
    assert ok.master_applicable
    # a zero mean-exponent pair summing to <= 1 blocks the stitched schedule
    bad = RecursionParams(c1=1.0, terms_mean=((1.0, 0.0, 1.0),))
    assert not bad.master_applicable
    assert RecursionParams(c1=1.0).master_applicable  # vacuous


# ---------------------------------------------------------------------------
# Trace
# ---------------------------------------------------------------------------


def test_trace_validation():
    with pytest.raises(ValueError):
        Trace(losses=np.array([1.0, -0.5]), steps=np.array([0.1]))
    with pytest.raises(ValueError):
        Trace(losses=np.array([1.0, 0.5]), steps=np.array([0.1, 0.2]))
    with pytest.raises(ValueError):
        Trace(losses=np.array([1.0, 0.5]), steps=np.array([1.5]))
    with pytest.raises(ValueError):
        Trace(losses=np.array([1.0, 0.5]), steps=np.array([0.1]), noise=np.array([0.1, 0.2]))
    # a nan step is refused, also beside a negative one, where np.min(steps)
    # is nan, which compares False with 0
    for steps in ([math.nan, -1.0], [math.nan]):
        with pytest.raises(ValueError, match="steps"):
            Trace(losses=np.ones(len(steps) + 1), steps=steps, noise=np.zeros(len(steps)))
    tr = Trace(losses=np.array([1.0, 0.5]), steps=np.array([1.0]))  # eta = 1 allowed
    assert tr.horizon == 1
    assert Trace(losses=np.array([math.nan, 0.5]), steps=np.array([0.5])).horizon == 1


def test_trace_aux_length_mismatch():
    with pytest.raises(ValueError):
        Trace(
            losses=np.array([1.0, 0.5]),
            steps=np.array([0.1]),
            aux={"y": np.array([1.0, 2.0])},
        )


# ---------------------------------------------------------------------------
# check_recursion
# ---------------------------------------------------------------------------


def _manual_trace(losses, steps, noise):
    return Trace(losses=np.array(losses), steps=np.array(steps), noise=np.array(noise))


def test_check_passes_exact_recursion():
    # L_t = (1 - eta)L + U with U within the envelope c3*eta*sqrt(L)
    p = RecursionParams(c1=1.0, c3=1.0)
    losses = [1.0]
    steps = [0.5, 0.25]
    noise = []
    for eta in steps:
        u = 0.5 * eta * math.sqrt(losses[-1])
        losses.append((1 - eta) * losses[-1] + u)
        noise.append(u)
    rep = check_recursion(_manual_trace(losses, steps, noise), p, tol=0.0)
    assert rep.ok and rep.first_violation is None


def test_check_flags_recursion_violation():
    p = RecursionParams(c1=1.0, c3=1.0)
    # second step jumps above the contracted value plus the recorded noise
    tr = _manual_trace([1.0, 0.9, 2.0], [0.1, 0.1], [0.0, 0.0])
    rep = check_recursion(tr, p, tol=0.0)
    assert not rep.ok
    v = rep.first_violation
    assert v.kind == "recursion" and v.t == 2 and v.lhs == 2.0


def test_check_flags_magnitude_violation():
    p = RecursionParams(c1=1.0, c3=1.0)
    # noise consistent with the recursion but larger than the envelope
    eta, l0 = 0.1, 1.0
    u = 5.0 * eta  # > c3*eta*sqrt(l0) + 0
    tr = _manual_trace([l0, (1 - eta) * l0 + u], [eta], [u])
    rep = check_recursion(tr, p, tol=0.0)
    assert not rep.ok and rep.first_violation.kind == "magnitude"
    assert rep.first_violation.t == 1


def test_check_earliest_violation_wins():
    p = RecursionParams(c1=1.0, c3=1.0)
    # t=1: magnitude violation; t=2: recursion violation -> report t=1
    eta = 0.1
    u1 = 5.0 * eta
    l1 = (1 - eta) * 1.0 + u1
    tr = _manual_trace([1.0, l1, 10.0], [eta, eta], [u1, 0.0])
    rep = check_recursion(tr, p, tol=0.0)
    assert rep.first_violation.t == 1 and rep.first_violation.kind == "magnitude"


def test_check_flags_the_first_nan_step():
    # NaN compares False with everything, so "lhs > rhs" alone let a NaN
    # step, or a trace of NaN, pass both checkers
    p = RecursionParams(c1=1.0, c3=1.0)
    losses, steps = [1.0, 0.9, 0.81, 0.729], [0.1, 0.1, 0.1]
    ok = _manual_trace(losses, steps, [0.0, 0.0, 0.0])
    assert check_recursion(ok, p, tol=0.0).ok
    bad = _manual_trace(losses[:2] + [math.nan] + losses[3:], steps, [0.0, 0.0, 0.0])
    rep = check_recursion(bad, p, tol=0.0)
    assert not rep.ok
    assert rep.first_violation.t == 2 and rep.first_violation.kind == "recursion"
    nan = _manual_trace([math.nan] * 4, steps, [math.nan] * 3)
    assert check_recursion(nan, p).first_violation.t == 1
    for variant in ("krasulina", "oja"):
        assert check_pca_recursion(bad, 1.0, 0.5, variant).first_violation.t == 2
        assert check_pca_recursion(nan, 1.0, 0.5, variant).first_violation.t == 1


def test_check_tolerance_scales_with_loss():
    p = RecursionParams(c1=1.0)
    # violation of size 1e-8 on a loss of scale 1e4 is within tol=1e-10 slack
    l0 = 1e4
    eta = 0.1
    tr = _manual_trace([l0, (1 - eta) * l0 + 1e-8], [eta], [0.0])
    assert check_recursion(tr, p, tol=1e-10).ok
    assert not check_recursion(tr, p, tol=0.0).ok


def test_check_requires_noise_channel():
    tr = Trace(losses=np.array([1.0, 0.5]), steps=np.array([0.1]))
    with pytest.raises(ValueError):
        check_recursion(tr, RecursionParams(c1=1.0))


def test_check_report_consistency_invariant():
    with pytest.raises(ValueError):
        CheckReport(ok=True, first_violation=None) and None
        # constructing an inconsistent report must fail
        CheckReport(ok=False, first_violation=None)
    with pytest.raises(ValueError):
        CheckReport(ok=False, first_violation=None)


# ---------------------------------------------------------------------------
# simulate_saturating
# ---------------------------------------------------------------------------


def test_saturating_self_consistent_zero_tolerance():
    p = RecursionParams(c1=1.0, c2=1.0, c3=1.0)
    sch = StepSchedule.inverse_time(2.0, 2.0)
    tr = simulate_saturating(p, sch, l0=1.0, horizon=500, seed=0)
    assert check_recursion(tr, p, tol=0.0).ok
    assert tr.horizon == 500 and tr.losses[0] == 1.0


def test_saturating_clamp_keeps_losses_nonnegative():
    # large c3 relative to l0 forces the clamp at zero to trigger
    p = RecursionParams(c1=1.0, c2=0.0, c3=5.0)
    sch = StepSchedule.inverse_time(1.0, 1.0)
    tr = simulate_saturating(p, sch, l0=1e-6, horizon=300, seed=1)
    assert np.all(tr.losses >= 0.0)
    assert check_recursion(tr, p, tol=0.0).ok


def test_saturating_deterministic_in_seed():
    p = RecursionParams(c1=1.0, c2=1.0, c3=1.0)
    sch = StepSchedule.inverse_time(2.0, 2.0)
    a = simulate_saturating(p, sch, 1.0, 100, seed=42)
    b = simulate_saturating(p, sch, 1.0, 100, seed=42)
    c = simulate_saturating(p, sch, 1.0, 100, seed=43)
    assert np.array_equal(a.losses, b.losses)
    assert not np.array_equal(a.losses, c.losses)


# ---------------------------------------------------------------------------
# counterexample_process
# ---------------------------------------------------------------------------


def test_counterexample_is_constant_bernoulli():
    tr = counterexample_process(1.0, 50, seed=0)
    assert np.all(tr.losses == 1.0)
    tr0 = counterexample_process(0.0, 50, seed=0)
    assert np.all(tr0.losses == 0.0)


def test_counterexample_satisfies_quadratic_recursion():
    # L <= (1 - eta)L + 2*eta*L^2 + eta^2 holds path-wise for the stuck process
    p = RecursionParams(c1=1.0, c2=1.0, terms_mag=((2.0, 0.5, 2.0),))
    for seed in range(5):
        tr = counterexample_process(0.5, 100, seed=seed)
        assert check_recursion(tr, p, tol=0.0).ok


def test_counterexample_limit_frequency():
    n = 2000
    zeros = sum(counterexample_process(0.1, 3, seed=s).losses[-1] == 0.0 for s in range(n))
    assert abs(zeros / n - 0.9) < 0.03


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------


def test_trace_csv_round_trip_exact(tmp_path):
    p = RecursionParams(c1=1.0, c2=1.0, c3=1.0)
    sch = StepSchedule.inverse_time(2.0, 2.0)
    tr = simulate_saturating(p, sch, 1.0 / 3.0, 50, seed=9)
    path = tmp_path / "trace.csv"
    trace_to_csv(tr, path)
    back = trace_from_csv(path)
    # 17 significant digits round-trip float64 exactly
    assert np.array_equal(tr.losses, back.losses)
    assert np.array_equal(tr.steps, back.steps)
    assert np.array_equal(tr.noise, back.noise)


def test_trace_csv_header_and_aux(tmp_path):
    tr = Trace(
        losses=np.array([1.0, 0.5]),
        steps=np.array([0.1]),
        noise=np.array([0.01]),
        aux={"y": np.array([0.5])},
    )
    path = tmp_path / "trace.csv"
    trace_to_csv(tr, path)
    lines = path.read_text().splitlines()
    assert lines[0].split(",")[:4] == ["t", "loss", "step", "noise"]
    back = trace_from_csv(path)
    assert np.array_equal(back.aux["aux1"], tr.aux["y"])
