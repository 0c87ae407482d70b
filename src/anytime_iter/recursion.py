"""Almost-supermartingale recursion core.

A nonnegative process L_0, L_1, ... driven by step sizes eta_t satisfies the
contraction recursion when

    L_t <= (1 - c1*eta_t) * L_{t-1} + U_t                               (i)

with noise increments U_t whose magnitude is polynomially controlled:

    |U_t| <= c3*eta_t*sqrt(L_{t-1}) + c2*eta_t^2
             + sum_i B_i * eta_t^(1/2 + c_i) * L_{t-1}^(d_i)            (ii)

This module holds the parameter container, a per-trajectory checker for (i)
and (ii), a synthetic process that saturates the noise envelope (useful for
stress-testing boundaries), and a Bernoulli process showing why global
convergence requires a small-initialization condition when super-linear
mean terms are present.

The conditional-mean condition on U_t (|E[U_t | F_{t-1}]| small) is not a
per-path statement and cannot be verified from a single trajectory; the
harness validates it statistically across replications instead.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import _kernel, _reference
from .seeding import SeedLike, make_generator

__all__ = [
    "RecursionParams",
    "Trace",
    "CheckReport",
    "Violation",
    "check_recursion",
    "simulate_saturating",
    "counterexample_process",
    "trace_to_csv",
    "trace_from_csv",
]

Term = Tuple[float, float, float]


def _as_terms(terms: Iterable[Sequence[float]]) -> Tuple[Term, ...]:
    return tuple((float(a), float(b), float(c)) for a, b, c in terms)


@dataclass(frozen=True)
class RecursionParams:
    """Constants of the noise-controlled contraction recursion.

    terms_mean holds triples (A_i, a_i, b_i) bounding the conditional mean of
    U_t by A_i * eta^(1 + a_i) * L^(b_i); terms_mag holds triples
    (B_i, c_i, d_i) bounding |U_t| by B_i * eta^(1/2 + c_i) * L^(d_i).
    Exponents may be zero (the canonical Bernoulli counterexample uses a = 0),
    but coefficients must be nonnegative and c1 strictly positive.
    """

    c1: float
    c2: float = 0.0
    c3: float = 0.0
    terms_mean: Tuple[Term, ...] = ()
    terms_mag: Tuple[Term, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "terms_mean", _as_terms(self.terms_mean))
        object.__setattr__(self, "terms_mag", _as_terms(self.terms_mag))
        if not self.c1 > 0:
            raise ValueError("c1 must be positive")
        if self.c2 < 0 or self.c3 < 0:
            raise ValueError("c2 and c3 must be nonnegative")
        for coef, e1, e2 in self.terms_mean + self.terms_mag:
            if coef < 0:
                raise ValueError("term coefficients must be nonnegative")
            if e1 < 0 or e2 < 0:
                raise ValueError("term exponents must be nonnegative")

    @property
    def m(self) -> int:
        return max(len(self.terms_mean), len(self.terms_mag))

    @property
    def master_applicable(self) -> bool:
        """True when every extra term has total exponent a_i+b_i (c_i+d_i) > 1.

        This is the hypothesis required for the stitched dyadic-epoch
        construction; without it the super-linear terms cannot be absorbed.
        """
        sums = [a + b for _, a, b in self.terms_mean]
        sums += [c + d for _, c, d in self.terms_mag]
        return all(s > 1.0 for s in sums)


@dataclass(frozen=True)
class Trace:
    """One trajectory: losses L_0..L_T, steps eta_1..eta_T, optional noise U_t.

    aux carries named per-step side channels (e.g. the recorded martingale
    part of the noise) of the same length as steps.
    """

    losses: np.ndarray
    steps: np.ndarray
    noise: Optional[np.ndarray] = None
    aux: Mapping[str, np.ndarray] = field(default_factory=dict)
    meta: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        losses = np.asarray(self.losses, dtype=float)
        steps = np.asarray(self.steps, dtype=float)
        object.__setattr__(self, "losses", losses)
        object.__setattr__(self, "steps", steps)
        if self.noise is not None:
            object.__setattr__(self, "noise", np.asarray(self.noise, dtype=float))
        if losses.ndim != 1 or steps.ndim != 1:
            raise ValueError("losses and steps must be one-dimensional")
        if len(steps) != len(losses) - 1:
            raise ValueError("need len(steps) == len(losses) - 1")
        if self.noise is not None and len(self.noise) != len(steps):
            raise ValueError("noise must have the same length as steps")
        for name, chan in self.aux.items():
            if len(chan) != len(steps):
                raise ValueError(f"aux channel {name!r} length mismatch")
        if (losses < 0).any():
            raise ValueError("losses must be nonnegative")
        # written so that a NaN step, which compares False, is refused too
        if len(steps) and not (steps.min() > 0 and steps.max() <= 1):
            raise ValueError("steps must lie in (0, 1]")

    @property
    def horizon(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class Violation:
    t: int
    lhs: float
    rhs: float
    kind: str  # "recursion" | "magnitude"


@dataclass(frozen=True)
class CheckReport:
    ok: bool
    first_violation: Optional[Violation] = None

    def __post_init__(self):
        if self.ok != (self.first_violation is None):
            raise ValueError("ok must be true iff no violation is recorded")


def check_recursion(trace: Trace, params: RecursionParams, tol: float = 1e-10) -> CheckReport:
    """Verify inequalities (i) and (ii) at every step of a trace.

    The tolerance is relative to the scale of the loss: each inequality gets
    additive slack tol * max(1, L_{t-1}), absorbing floating-point round-off
    without masking real violations.  A step where either side is not a
    number violates too: the tests are written as not (lhs <= rhs), which
    NaN fails.

    The process's kernels (_kernel.load()) find the first failing step: the
    compiled ones in one C pass over the path that builds no array but the
    numpy-formed terms_mag rows, the reference in numpy.  A failing path's
    report is then built from the reference's numpy sides
    (_reference.recursion_sides), so both kernels give the same bytes.
    """
    if trace.noise is None:
        raise ValueError("trace.noise is required for recursion checking")
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    path = (trace.losses, trace.steps, trace.noise, tol, params)
    t = _kernel.load().recursion_failure(*path)
    return _report(t, _reference.recursion_sides, path)


def _report(t: int, sides, path: tuple) -> CheckReport:
    """The report of a path whose first failing step is t, or -1 when none
    fails, with the violation's sides from sides(*path), the reference's
    numpy code: a recursion violation wins a tie with a magnitude one."""
    if t < 0:
        return CheckReport(ok=True)
    lc, rec_rhs, mag_lhs, mag_rhs, slack = sides(*path)
    if lc[t] <= rec_rhs[t] + slack[t]:
        violation = Violation(t + 1, float(mag_lhs[t]), float(mag_rhs[t]), "magnitude")
    else:
        violation = Violation(t + 1, float(lc[t]), float(rec_rhs[t]), "recursion")
    return CheckReport(ok=False, first_violation=violation)


def simulate_saturating(
    params: RecursionParams,
    schedule,
    l0: float,
    horizon: int,
    seed: SeedLike,
) -> Trace:
    """Synthetic process that rides the noise envelope of the recursion.

    L_t = max(0, (1 - c1*eta_t)*L_{t-1} + V_t) with
    V_t = c3*eta_t*sqrt(L_{t-1})*xi_t + c2*eta_t^2*zeta_t, xi symmetric +-1,
    zeta uniform on [0,1].  The recorded noise is the realized increment
    U_t = L_t - (1 - c1*eta_t)*L_{t-1}; when the clamp at zero is active this
    differs from V_t but is smaller in magnitude, so the trace passes
    check_recursion with tol = 0 by construction.
    """
    if l0 < 0:
        raise ValueError("l0 must be nonnegative")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    etas = schedule.etas(horizon)
    rng = make_generator(seed)
    xi = rng.integers(0, 2, size=horizon) * 2 - 1
    zeta = rng.random(horizon)

    losses = np.empty(horizon + 1)
    noise = np.empty(horizon)
    losses[0] = l0
    l_prev = float(l0)
    c1, c2, c3 = params.c1, params.c2, params.c3
    for t in range(horizon):
        eta = etas[t]
        contracted = (1.0 - c1 * eta) * l_prev
        v = c3 * eta * math.sqrt(l_prev) * xi[t] + c2 * eta * eta * zeta[t]
        l_new = max(0.0, contracted + v)
        noise[t] = l_new - contracted
        losses[t + 1] = l_new
        l_prev = l_new
    return Trace(
        losses=losses,
        steps=etas,
        noise=noise,
        meta={"algorithm": "saturating", "seed": str(seed), "l0": repr(l0)},
    )


def counterexample_process(p_one: float, horizon: int, seed: SeedLike) -> Trace:
    """Bernoulli process that never moves: L_t = Y with Y ~ Bernoulli(p_one).

    The process satisfies L_t <= (1 - eta_t)L_{t-1} + 2*eta_t*L_{t-1}^2 + eta_t^2
    for any admissible steps, yet converges to zero only on {Y = 0}, i.e. with
    probability 1 - p_one.  It shows that with super-linear mean terms a
    small-initialization condition is genuinely required for convergence.
    """
    if not 0.0 <= p_one <= 1.0:
        raise ValueError("p_one must lie in [0, 1]")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    rng = make_generator(seed)
    y = float(rng.random() < p_one)
    t = np.arange(1, horizon + 1, dtype=float)
    steps = 1.0 / (t + 1.0)
    losses = np.full(horizon + 1, y)
    noise = steps * y  # realized increment: L_t - (1 - eta_t) L_{t-1}
    return Trace(
        losses=losses,
        steps=steps,
        noise=noise,
        meta={"algorithm": "counterexample", "seed": str(seed), "p_one": repr(p_one)},
    )


def trace_to_csv(trace: Trace, path) -> None:
    """Write a trace as CSV with header t,loss,step,noise[,aux...]."""
    aux_names = sorted(trace.aux)
    header = ["t", "loss", "step"]
    if trace.noise is not None:
        header.append("noise")
    header += [f"aux{i+1}" for i in range(len(aux_names))]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        if aux_names:
            writer.writerow(["# aux columns: " + ", ".join(aux_names), "", ""])
        for t in range(len(trace.losses)):
            row = [str(t), f"{trace.losses[t]:.17g}"]
            if t == 0:
                row += [""] * (len(header) - 2)
            else:
                row.append(f"{trace.steps[t-1]:.17g}")
                if trace.noise is not None:
                    row.append(f"{trace.noise[t-1]:.17g}")
                row += [f"{trace.aux[name][t-1]:.17g}" for name in aux_names]
            writer.writerow(row)


def trace_from_csv(path) -> Trace:
    """Read a trace written by trace_to_csv (aux channel names are not kept)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    body = [r for r in rows[1:] if r and not r[0].startswith("#")]
    has_noise = "noise" in header
    n_aux = sum(1 for h in header if h.startswith("aux"))
    losses = np.array([float(r[1]) for r in body])
    steps = np.array([float(r[2]) for r in body[1:]])
    noise = np.array([float(r[3]) for r in body[1:]]) if has_noise else None
    aux = {}
    base = 4 if has_noise else 3
    for i in range(n_aux):
        aux[f"aux{i+1}"] = np.array([float(r[base + i]) for r in body[1:]])
    return Trace(losses=losses, steps=steps, noise=noise, aux=aux)
