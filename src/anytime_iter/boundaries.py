"""Anytime boundary functions with exact constants, and step-size schedules.

Every boundary here is a deterministic width rule r(t, delta) such that the
instrumented loss of the paired algorithm stays below r(t, delta)
simultaneously for all t with probability at least 1 - confidence_cost*delta.
All of them share the one form of the quantitative Robbins-Siegmund lemma,

    r(t, delta) = bias + lead(delta) * (log(1/delta) + 2*log log(t+9)) / (t + L),

valid under its paired schedule eta_t = step/(t + L) with the same offset L.
`Boundary` holds (step, L, lead, bias) and derives both the width and the
schedule from them, so each constructor states its offset once; the widths
decay at the optimal log log(t)/t rate.  The harness enforces the pairing.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence, Tuple

import numpy as np

from .recursion import RecursionParams

__all__ = [
    "StepSchedule",
    "Boundary",
    "StitchSchedule",
    "conf_boundary",
    "sgd_boundary",
    "sgd_last_iterate",
    "rakhlin_fixed_horizon",
    "pl_boundary",
    "pl_last_iterate",
    "oja_boundary",
    "ridge_boundary",
    "maximal_inequality_m",
    "maximal_threshold",
    "stitch_schedule",
    "two_phase_oja_schedule",
    "boundary_catalog",
    "write_catalog_json",
    "write_width_csv",
]

E_NEG2 = math.exp(-2.0)


def _check_delta(delta: float, upper: float = E_NEG2) -> None:
    if not 0.0 < delta < upper:
        raise ValueError(f"delta must lie in (0, {upper:.6g}); got {delta!r}")


def _log_inv(delta: float) -> float:
    return math.log(1.0 / delta)


def lil_factor(t, delta: float):
    """The time-uniform width factor log(1/delta) + 2*log log(t+9)."""
    t = np.asarray(t, dtype=float)
    return _log_inv(delta) + 2.0 * np.log(np.log(t + 9.0))


# ---------------------------------------------------------------------------
# Step-size schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepSchedule:
    """Deterministic step-size rule t -> eta_t for t >= 1.

    Kinds:
      inverse_time:        eta_t = c / (t + offset)
      piecewise_constant:  eta_t = eta_i for t in (t_{i-1}, t_i]
      two_phase:           eta_t = eta0 for t <= h0_end,
                           else c / (beta + t - h0_end)
    """

    kind: str
    c: float = 0.0
    offset: float = 0.0
    epochs: Tuple[Tuple[int, float], ...] = ()
    eta0: float = 0.0
    h0_end: int = 0
    beta: float = 0.0

    def __post_init__(self):
        if self.kind not in ("inverse_time", "piecewise_constant", "two_phase"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.kind == "inverse_time":
            if self.c <= 0 or self.offset < 0:
                raise ValueError("inverse_time needs c > 0 and offset >= 0")
        elif self.kind == "piecewise_constant":
            if not self.epochs:
                raise ValueError("piecewise_constant needs at least one epoch")
            ends = [t for t, _ in self.epochs]
            if any(b <= a for a, b in zip(ends, ends[1:])) or ends[0] < 1:
                raise ValueError("epoch end times must be strictly increasing")
            if any(not 0 < eta <= 1 for _, eta in self.epochs):
                raise ValueError("epoch step sizes must lie in (0, 1]")
        else:
            if self.eta0 <= 0 or self.c <= 0 or self.beta <= 0 or self.h0_end < 1:
                raise ValueError("two_phase needs positive eta0, c, beta, h0_end")

    @staticmethod
    def inverse_time(c: float, offset: float) -> "StepSchedule":
        return StepSchedule(kind="inverse_time", c=c, offset=offset)

    @staticmethod
    def piecewise_constant(epochs: Sequence[Tuple[int, float]]) -> "StepSchedule":
        return StepSchedule(kind="piecewise_constant", epochs=tuple(epochs))

    @staticmethod
    def two_phase(eta0: float, h0_end: int, c: float, beta: float) -> "StepSchedule":
        return StepSchedule(kind="two_phase", eta0=eta0, h0_end=h0_end, c=c, beta=beta)

    def eta(self, t):
        """Step size at iteration t (scalar or array), t >= 1."""
        t = np.asarray(t, dtype=float)
        if np.any(t < 1):
            raise ValueError("step sizes are defined for t >= 1")
        if self.kind == "inverse_time":
            out = self.c / (t + self.offset)
        elif self.kind == "two_phase":
            # the decaying branch is evaluated everywhere; silence the
            # divide warning for the region the constant branch covers
            with np.errstate(divide="ignore"):
                out = np.where(t <= self.h0_end, self.eta0, self.c / (self.beta + t - self.h0_end))
        else:
            ends = np.array([e for e, _ in self.epochs], dtype=float)
            vals = np.array([v for _, v in self.epochs])
            idx = np.searchsorted(ends, t, side="left")
            if np.any(idx >= len(vals)):
                raise ValueError("t beyond the last epoch of the schedule")
            out = vals[idx]
        return out if out.ndim else float(out)

    def etas(self, horizon: int) -> np.ndarray:
        """Vector (eta_1, ..., eta_horizon); validates the (0, 1] range."""
        if horizon < 1:
            raise ValueError("horizon must be at least 1")
        out = np.asarray(self.eta(np.arange(1, horizon + 1)))
        if np.min(out) <= 0 or np.max(out) > 1:
            raise ValueError("schedule emits step sizes outside (0, 1]")
        return out


# ---------------------------------------------------------------------------
# Boundaries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Boundary:
    """The anytime width rule r(t, delta) = bias + lead(delta)*lil_factor(t,
    delta)/(t + l_off), paired with the schedule eta_t = step/(t + l_off).

    confidence_cost is the factor multiplying delta in the guarantee
    P(exists t >= valid_from: L_t > r(t, delta)) <= confidence_cost * delta,
    stored exactly as printed in the source statements.
    """

    label: str
    params: Mapping[str, float]
    formula: str
    confidence_cost: float
    step: float
    l_off: int
    lead: Callable[[float], float] = field(repr=False, compare=False)
    bias: float = 0.0
    valid_from: int = 0

    @property
    def schedule(self) -> StepSchedule:
        return StepSchedule.inverse_time(self.step, float(self.l_off))

    def eval(self, t, delta: float):
        """Width at iterate(s) t for confidence parameter delta."""
        _check_delta(delta, 1.0)
        t = np.asarray(t, dtype=float)
        if np.any(t < 0):
            raise ValueError("t must be nonnegative")
        out = np.asarray(self.bias + self.lead(delta) * lil_factor(t, delta) / (t + self.l_off))
        return out if out.ndim else float(out)


def _k_const(l_off: int) -> float:
    return max(l_off - 2, 32) * (1.0 if l_off >= 32 else 32.0)


def conf_boundary(params: RecursionParams, a: float, l_off: int, delta: float) -> Boundary:
    """Generic anytime boundary for any process meeting the recursion contract.

    Requires P(L_0 <= a) >= 1 - delta and the paired schedule
    eta_t = 2/(c1*(t + l_off)).  Valid for delta < e^-2 (the width is then
    nonincreasing in t).
    """
    _check_delta(delta)
    if a < 0:
        raise ValueError("a must be nonnegative")
    if l_off < 3:
        raise ValueError("l_off must be at least 3")
    c1, c2, c3 = params.c1, params.c2, params.c3
    k = _k_const(l_off)
    return Boundary(
        label="conf",
        params={"c1": c1, "c2": c2, "c3": c3, "a": a, "l_off": l_off, "delta": delta},
        formula=(
            "31.5*K*max{a*L/log(1/delta); c2/c1^2; c3^2/c1^2}"
            "*(log(1/delta)+2*loglog(t+9))/(t+L),  K=max{L-2,32}*(1 if L>=32 else 32)"
        ),
        confidence_cost=2.0,
        step=2.0 / c1,
        l_off=l_off,
        lead=lambda d: 31.5 * k * max(a * l_off / _log_inv(d), c2 / c1**2, c3**2 / c1**2),
    )


def sgd_boundary(b: float, lam: float, delta: float) -> Boundary:
    """Anytime boundary for ||x_t - x*||^2 of projected SGD on a strongly
    convex objective, under eta_t = 1/(lambda*(t+32))."""
    _check_delta(delta)
    if b <= 0 or lam <= 0:
        raise ValueError("b and lam must be positive")
    return Boundary(
        label="sgd",
        params={"b": b, "lam": lam, "delta": delta},
        formula="1008*(B^2/lambda^2)*(log(1/delta)+2*loglog(t+9))/(t+32)",
        confidence_cost=1.0,
        step=1.0 / lam,
        l_off=32,
        lead=lambda d: 1008.0 * (b * b) / (lam * lam),
    )


def sgd_last_iterate(b: float, lam: float, delta: float, t: int) -> float:
    """Fixed-t bound for the last SGD iterate under eta_t = 1/(lambda*(t+3))."""
    if t < 1:
        raise ValueError("t must be at least 1")
    _check_delta(delta, 1.0)
    return 21.0 * b * b / (lam * lam) * _log_inv(delta) / (t + 3.0)


def rakhlin_fixed_horizon(b: float, lam: float, delta: float, t_horizon: int, t: int) -> float:
    """Fixed-horizon baseline width 624*(B^2/lambda^2)*(log(1/d)+loglog T)/t.

    Only valid for t <= t_horizon; the comparison shows what the anytime
    property costs relative to committing to a terminal time in advance.
    """
    if t_horizon < 3:
        raise ValueError("t_horizon must be at least 3")
    if not 1 <= t <= t_horizon:
        raise ValueError("need 1 <= t <= t_horizon (the baseline is not anytime-valid)")
    _check_delta(delta, 1.0)
    factor = _log_inv(delta) + math.log(math.log(t_horizon))
    return 624.0 * b * b / (lam * lam) * factor / t


def pl_boundary(b: float, mu: float, tau: float, delta: float) -> Boundary:
    """Anytime boundary for F(x_t) - F(x*) under smoothness and the PL
    condition, with eta_t = 2/(tau*(t+32))."""
    _check_delta(delta)
    if b <= 0 or mu <= 0 or tau <= 0:
        raise ValueError("b, mu, tau must be positive")
    return Boundary(
        label="pl",
        params={"b": b, "mu": mu, "tau": tau, "delta": delta},
        formula=(
            "1008*max{128B^2/(tau*log(1/delta)); 2B^2*mu/tau^2}"
            "*(log(1/delta)+2*loglog(t+9))/(t+32)"
        ),
        confidence_cost=1.0,
        step=2.0 / tau,
        l_off=32,
        lead=lambda d: 1008.0 * max(
            128.0 * b * b / (tau * _log_inv(d)), 2.0 * b * b * mu / (tau * tau)
        ),
    )


def pl_last_iterate(b: float, mu: float, tau: float, delta: float, t: int) -> float:
    """Fixed-t PL bound (21*mu*B^2/tau^2)*log(1/delta)/(t+3).

    Requires delta < e^-4 and t >= 3/log(1/delta); schedule
    eta_t = 2/(tau*(t+3)).
    """
    _check_delta(delta, upper=math.exp(-4.0))
    if t < 3.0 / _log_inv(delta):
        raise ValueError("t must be at least 3/log(1/delta)")
    return 21.0 * mu * b * b / (tau * tau) * _log_inv(delta) / (t + 3.0)


def oja_boundary(b: float, rho: float, delta: float) -> Tuple[Boundary, int]:
    """Anytime boundary for the sin^2 loss of streaming PCA iterations.

    Requires a warm start with P(sin^2(v_0, v1) <= 1/4) >= 1 - delta^3 and the
    paired schedule eta_t = 2/(rho*(t + l_off)).  Returns (boundary, l_off);
    l_off is frozen at the construction delta.
    """
    _check_delta(delta)
    if b <= 0 or rho <= 0:
        raise ValueError("b and rho must be positive")
    l_off = max(math.ceil(128.0 * b**4 * _log_inv(delta) ** 2 / rho**2), 32)
    boundary = Boundary(
        label="oja",
        params={"b": b, "rho": rho, "delta": delta, "l_off": l_off},
        formula=(
            "max{252*L/log(1/delta); 1008*B^4/rho^2}"
            "*(log(1/delta)+2*loglog(t+9))/(t+L),  L=max{ceil(128*B^4*log(1/delta)^2/rho^2),32}"
        ),
        confidence_cost=2.0 * (math.e + 1.0),
        step=2.0 / rho,
        l_off=l_off,
        lead=lambda d: max(252.0 * l_off / _log_inv(d), 1008.0 * b**4 / rho**2),
    )
    return boundary, l_off


def ridge_boundary(
    b: float,
    diam: float,
    lambda_pen: float,
    lambda_min: float,
    theta_norm: float,
    delta: float,
) -> Boundary:
    """Anytime boundary for ||theta_t - theta*||^2 of sequential ridge SGD.

    The constant bias floor lambda_pen^2*||theta*||^2/lambda_min^2 vanishes
    for the unpenalized estimator; the fluctuation term uses
    B1 = B^2*D + B^2 + lambda*D + lambda*||theta*||.
    """
    _check_delta(delta)
    if b <= 0 or diam <= 0 or lambda_min <= 0:
        raise ValueError("b, diam, lambda_min must be positive")
    if lambda_pen < 0 or theta_norm < 0:
        raise ValueError("lambda_pen and theta_norm must be nonnegative")
    b1 = b * b * diam + b * b + lambda_pen * diam + lambda_pen * theta_norm
    return Boundary(
        label="ridge",
        params={
            "b": b,
            "diam": diam,
            "lambda_pen": lambda_pen,
            "lambda_min": lambda_min,
            "theta_norm": theta_norm,
            "b1": b1,
            "delta": delta,
        },
        formula=(
            "lambda^2*||theta*||^2/lambda_min^2 + 1008*(B1^2/lambda_min^2)"
            "*(log(1/delta)+2*loglog(t+9))/(t+32),  B1=B^2*D+B^2+lambda*D+lambda*||theta*||"
        ),
        confidence_cost=1.0,
        step=2.0 / lambda_min,
        l_off=32,
        lead=lambda d: 1008.0 * b1 * b1 / lambda_min**2,
        bias=lambda_pen**2 * theta_norm**2 / lambda_min**2,
    )


def maximal_inequality_m(
    c1: float,
    c2: float,
    c3: float,
    a: float,
    l_off: int,
    t0: int,
    t1: int,
    delta: float,
) -> float:
    """Leading constant M of the short-interval maximal inequality on [t0, t1].

    Under eta_t = 2/(c1*(t + l_off)) and L_{t0} <= a, the loss stays below
    M*(t1-t0)*log(1/delta)/(t+3)^2 on the interval except with probability
    delta (conditionally on the start event).
    """
    if t1 <= t0 or t0 < 0:
        raise ValueError("need t1 > t0 >= 0")
    _check_delta(delta, 1.0)
    if l_off < 3:
        raise ValueError("l_off must be at least 3")
    log_inv = _log_inv(delta)
    inner = max(
        a * l_off * (l_off - 1) / (log_inv * (t1 - t0)),
        c2 / (c1**2 * log_inv),
        c2 / (c1**2 * math.sqrt(log_inv)),
        c3**2 / c1**2,
    )
    return 31.5 * (l_off - 1) / l_off * inner


def maximal_threshold(m: float, t0: int, t1: int, delta: float, t) -> np.ndarray:
    """Crossing threshold M*(t1-t0)*log(1/delta)/(t+3)^2 for t in [t0+1, t1]."""
    t = np.asarray(t, dtype=float)
    return m * (t1 - t0) * _log_inv(delta) / (t + 3.0) ** 2


# ---------------------------------------------------------------------------
# Stitched dyadic-epoch schedule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StitchSchedule:
    """Dyadic-epoch schedule with per-epoch constant steps and target levels.

    Epoch i runs on (t_{i-1}, t_i] with constant step eta_i and loss target
    h_i = h0*2^-i at confidence delta_i = delta/(i+10)^2; epoch lengths are
    the minimal n with (1 - c1*eta_i)^n <= 1/8 (and then necessarily >= 1/16).
    The width envelope is r*_0 = h0 and
    r*_t = 4*(1 - c1*eta_i)^(t - t_{i-1})*h_i on epoch i.
    """

    c1: float
    delta: float
    h: Tuple[float, ...]
    deltas: Tuple[float, ...]
    etas: Tuple[float, ...]
    epochs: Tuple[int, ...]  # t_0 = 0, t_1, ..., t_n (>= horizon)
    kappa: float
    h0: float
    d_const: float

    def widths(self, t) -> np.ndarray:
        """Width envelope r*_t for integer t in [0, epochs[-1]]."""
        t = np.asarray(t, dtype=float)
        if np.any(t < 0) or np.any(t > self.epochs[-1]):
            raise ValueError("t outside the emitted schedule range")
        ends = np.asarray(self.epochs[1:], dtype=float)
        starts = np.asarray(self.epochs[:-1], dtype=float)
        idx = np.searchsorted(ends, np.maximum(t, 1.0), side="left")
        eta_i = np.asarray(self.etas)[idx]
        h_i = np.asarray(self.h)[idx + 1]
        out = 4.0 * (1.0 - self.c1 * eta_i) ** (t - starts[idx]) * h_i
        return np.where(t == 0, self.h0, out)

    def to_step_schedule(self) -> StepSchedule:
        return StepSchedule.piecewise_constant(
            [(t_end, eta) for t_end, eta in zip(self.epochs[1:], self.etas)]
        )

    def envelope_constants(self) -> Tuple[float, float]:
        """(c_low, m_high) with c_low/(t+10) <= r*_t and
        r*_t <= m_high*(log(1/delta) + loglog(t+10))/(t+10) for all emitted t."""
        t = np.arange(0, self.epochs[-1] + 1)
        w = self.widths(t)
        denom = (_log_inv(self.delta) + np.log(np.log(t + 10.0))) / (t + 10.0)
        return float(np.min(w * (t + 10.0))), float(np.max(w / denom))


def _d_const(params: RecursionParams) -> float:
    c1, c2, c3 = params.c1, params.c2, params.c3
    root = math.sqrt(params.m + 1.0)
    cands = [c2 / c1, c3 * root / math.sqrt(c1)]
    cands += [a_i / c1 for a_i, _, _ in params.terms_mean]
    cands += [b_i * root / math.sqrt(c1) for b_i, _, _ in params.terms_mag]
    return max(cands)


def _a_k(delta: float, denom: float, ck: float, dk: float, i_max: int = 10**6) -> float:
    """log of (1/denom)*2^(-ck-dk)*min_{i>=1} 2^((i-1)(ck+dk-1))/sqrt(log(1/delta_i))."""
    i = np.arange(1, i_max + 1, dtype=float)
    logv = (i - 1.0) * (ck + dk - 1.0) * math.log(2.0) - 0.5 * np.log(
        np.log((i + 10.0) ** 2 / delta)
    )
    j = int(np.argmin(logv))
    if j >= i_max - 1:
        raise RuntimeError("interior minimum not found; the sequence should be eventually increasing")
    return -math.log(denom) - (ck + dk) * math.log(2.0) + float(logv[j])


def stitch_schedule(params: RecursionParams, delta: float, horizon: int) -> StitchSchedule:
    """Construct the dyadic stitched schedule for an abstract recursion.

    Applicable when every extra term has total exponent above one; the noise
    scale constant D aggregates all coefficients, kappa shrinks the constant
    steps so that each epoch's fluctuation stays below its target, and h0 is
    the largest initial level the construction tolerates.
    """
    _check_delta(delta)
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if not params.master_applicable:
        raise ValueError(
            "stitched schedule requires every extra term exponent sum "
            "(a_i+b_i, c_i+d_i) to exceed 1"
        )
    c1 = params.c1
    d_const = _d_const(params)
    if d_const <= 0:
        raise ValueError("noise scale D is zero; the stitched schedule is degenerate")
    denom = (2.0 * params.m + 2.0) * 128.0 * d_const
    kappa = min(1.0, 0.5 * (1.0 / denom) ** 2, 1.0 / denom)

    h0_cands = [_log_inv(delta) / (16.0 * c1 * kappa)]
    for b_i, a_i, bexp in params.terms_mean:
        if b_i > 0:
            bk = -math.log(denom) - (a_i + bexp) * math.log(2.0)
            h0_cands.append(math.exp(bk / (a_i + bexp - 1.0)))
    for b_i, c_i, d_i in params.terms_mag:
        if b_i > 0:
            ak = _a_k(delta, denom, c_i, d_i)
            h0_cands.append(math.exp(ak / (c_i + d_i - 1.0)))
    h0 = min(h0_cands)

    h = [h0]
    deltas: list[float] = []
    etas: list[float] = []
    epochs = [0]
    i = 1
    while epochs[-1] < horizon:
        h_i = h0 * 2.0**-i
        delta_i = delta / (i + 10.0) ** 2
        eta_i = kappa * h[-1] / _log_inv(delta_i)
        if eta_i > 1.0 / (16.0 * c1):
            raise RuntimeError("constant step exceeds the admissible cap 1/(16*c1)")
        n_i = math.ceil(math.log(1.0 / 8.0) / math.log(1.0 - c1 * eta_i))
        factor = (1.0 - c1 * eta_i) ** n_i
        if not (1.0 / 16.0 <= factor <= 1.0 / 8.0):
            raise RuntimeError("epoch length violates the dyadic contraction window")
        h.append(h_i)
        deltas.append(delta_i)
        etas.append(eta_i)
        epochs.append(epochs[-1] + n_i)
        i += 1
        if i > 200:
            raise RuntimeError("too many epochs; horizon unreachable")
    return StitchSchedule(
        c1=c1,
        delta=delta,
        h=tuple(h),
        deltas=tuple(deltas),
        etas=tuple(etas),
        epochs=tuple(epochs),
        kappa=kappa,
        h0=h0,
        d_const=d_const,
    )


def two_phase_oja_schedule(
    b: float,
    rho: float,
    delta: float,
    c_explore: float = 1.0,
    c_stable: float = 1.0,
) -> StepSchedule:
    """Cold-start schedule for streaming PCA: constant steps during the
    exploration phase of length H0 = ceil(c_explore*B^4/(delta^6*rho^2)),
    then c_stable/(rho*t) afterwards."""
    if b <= 0 or rho <= 0 or c_explore <= 0 or c_stable <= 0:
        raise ValueError("b, rho, c_explore, c_stable must be positive")
    _check_delta(delta, 1.0)
    h0 = math.ceil(c_explore * b**4 / (delta**6 * rho**2))
    return StepSchedule.two_phase(
        eta0=c_stable / (rho * h0), h0_end=h0, c=c_stable / rho, beta=float(h0)
    )


# ---------------------------------------------------------------------------
# Catalog / export
# ---------------------------------------------------------------------------


def boundary_catalog(boundaries: Sequence[Boundary]) -> list[dict]:
    """Serializable summary of a set of boundaries."""
    out = []
    for b in boundaries:
        out.append(
            {
                "label": b.label,
                "params": {k: v for k, v in sorted(b.params.items())},
                "formula": b.formula,
                "confidence_cost": b.confidence_cost,
                "valid_from": b.valid_from,
            }
        )
    return out


def write_catalog_json(boundaries: Sequence[Boundary], path) -> None:
    with open(path, "w") as fh:
        json.dump(boundary_catalog(boundaries), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_width_csv(boundary: Boundary, delta: float, grid: Sequence[int], path) -> None:
    """Sample a boundary on a grid of iterates and write CSV `t,width`."""
    widths = boundary.eval(np.asarray(grid), delta)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "width"])
        for t, w in zip(grid, np.atleast_1d(widths)):
            writer.writerow([int(t), f"{w:.17g}"])
