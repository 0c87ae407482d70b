"""The numpy kernels of the batched engines: Reference.

Reference holds the chunk methods the engines call (sgd_chunk, pca_chunk,
rm_chunk and ridge_chunk), the LIL statistic's lil_chunk the harness
calls, the generators they draw from (numpy's default_rng of each seed)
and the per-generator draws the chunks make, in the order of operations
their outputs are pinned to.  Each chunk method draws, steps and then
passes over its chunk in slices of at most PASS_BUDGET values of a
trajectory buffer, in the elementwise order of the per-step formulas, and
a slice's pass arrays go before the next slice steps.  Draws come out the
same however a stream is cut (ridge's uniforms come from a copy of each
generator advanced past the chunk's signs), so the slicing changes no
bit, and a chunk's transient memory is bounded by PASS_BUDGET whatever its
length.  rm_chunk and lil_chunk share one step loop (_rm_slices);
lil_chunk folds each slice's deviations into the LIL statistic's block
maxima (_lil_fold).  _kernel.StepKernels overrides every public method
with the same arguments and one C call, and _kernel.load chooses between
the two; the draw and chunk contracts are in the class docstring.

The numpy code of the path-wise recursion checks lives here once as well:
recursion_sides and pca_sides compute both sides of every inequality of
recursion.check_recursion and algorithms.check_pca_recursion, the check
methods recursion_failure and pca_failure find the first failing step
from them, and the checkers build a failing path's report from them
whichever kernels found the step.
"""
from __future__ import annotations

import copy
import math

import numpy as np

from .seeding import make_generator

PASS_BUDGET = 2**14  # values per slice of a chunk's draw, step loop and loss and channel pass


def _sum_last(a: np.ndarray, out=None, squares: bool = False) -> np.ndarray:
    """np.sum(a, axis=-1, out=out), bit for bit.

    numpy adds fewer than 8 terms left to right, starting from +0.0, so
    adding the strided slices a[..., j] gives the same bits and, for a few
    terms, runs several times faster than a reduction along the short last
    axis.  A closing +0.0 turns an all -0.0 sum into +0.0, as numpy does,
    and changes nothing else; squares, which are never -0.0, skip it.
    """
    d = a.shape[-1]
    if not 2 <= d < 8:
        return np.sum(a, axis=-1, out=out)
    if out is None:
        # an array even for 0-d sums, where np.add without out returns a scalar
        out = np.empty(a.shape[:-1], dtype=a.dtype)
    np.add(a[..., 0], a[..., 1], out=out)
    for j in range(2, d):
        np.add(out, a[..., j], out=out)
    return out if squares else np.add(out, 0.0, out=out)


def _onto_sphere(g: np.ndarray, radius: float) -> np.ndarray:
    g *= radius / np.sqrt(_sum_last(g * g, squares=True))[..., None]
    return g


def _projector(n: int, d: int, radius: float):
    """Return project(w), which pulls the rows of the (n, d) array w outside
    the ball of the given radius back onto its sphere, in place, and returns
    how many moved."""
    sq = np.empty((n, d))
    r2 = np.empty(n)
    outside = np.empty(n, dtype=bool)
    rr = radius * radius

    def project(w: np.ndarray) -> int:
        np.multiply(w, w, out=sq)
        _sum_last(sq, r2, squares=True)
        np.greater(r2, rr, out=outside)
        if not outside.any():
            return 0
        w[outside] *= (radius / np.sqrt(r2[outside]))[:, None]
        return int(np.count_nonzero(outside))

    return project


def _slice_rows(width: int) -> int:
    """Steps per slice when a step carries width values."""
    return max(1, PASS_BUDGET // width)


def _trajectory(state: np.ndarray, m: int) -> np.ndarray:
    """Buffer of one slice's iterates for a chunk of m steps: row 0 holds
    state, and step k of the slice writes row k+1."""
    rows = min(_slice_rows(state.size), m)
    traj = np.empty((rows + 1,) + state.shape)
    traj[0] = state
    return traj


def _slices(m: int, *trajs):
    """Yield the slices of a chunk of m steps, as many steps as the buffers
    trajs hold past row 0; after each, the last row of each buffer the slice
    wrote moves to row 0."""
    rows = len(trajs[0]) - 1
    for lo in range(0, m, rows):
        hi = min(lo + rows, m)
        yield slice(lo, hi)
        for traj in trajs:
            traj[0] = traj[hi - lo]


def magnitude_terms(losses, steps, terms_mag) -> np.ndarray:
    """(k, T): row i holds B_i * eta^(1/2 + c_i) * L_{t-1}^(d_i) for the
    i-th of the k triples (B_i, c_i, d_i) in terms_mag, with numpy's
    powers, which need not round as libm's pow does, so both kernels
    take them from here."""
    lp, eta = losses[:-1], steps
    terms = np.empty((len(terms_mag), len(eta)))
    for row, (coef, ci, di) in zip(terms, terms_mag):
        row[...] = coef * eta ** (0.5 + ci) * lp**di
    return terms


def recursion_sides(losses, steps, noise, tol: float, params) -> tuple:
    """lc, rec_rhs, |u|, mag_rhs and slack of recursion.check_recursion at
    every step: L_t, (1 - c1*eta)*L_{t-1} + U_t, |U_t|, the magnitude
    bound of the RecursionParams params, and tol * max(1, L_{t-1})."""
    lp, lc, eta, u = losses[:-1], losses[1:], steps, noise
    slack = tol * np.maximum(1.0, lp)
    rec_rhs = (1.0 - params.c1 * eta) * lp + u
    mag_rhs = params.c3 * eta * np.sqrt(lp) + params.c2 * eta**2
    for term in magnitude_terms(losses, steps, params.terms_mag):
        mag_rhs = mag_rhs + term
    return lc, rec_rhs, np.abs(u), mag_rhs, slack


def pca_sides(losses, steps, noise, tol: float, b: float, rho: float, krasulina: bool) -> tuple:
    """lc, rec_rhs, |Q_t|, mag_rhs and slack of
    algorithms.check_pca_recursion at every step, the sides of its
    inequalities (i) and (ii) as recursion_sides gives them."""
    lp, lc, eta, q = losses[:-1], losses[1:], steps, noise
    slack = tol * np.maximum(1.0, lp)
    coef = 4.0 * b**4 if krasulina else 5.0 * b**4 + 2.0 * eta * b**6
    rec_rhs = (1.0 - 2.0 * rho * eta) * lp + 2.0 * rho * eta * lp**2 + q + coef * eta**2
    mag_rhs = 8.0 * b**2 * eta * np.sqrt(lp)
    return lc, rec_rhs, np.abs(q), mag_rhs, slack


def _first_failure(lc, rec_rhs, mag_lhs, mag_rhs, slack) -> int:
    """The first step where not (lc <= rec_rhs + slack) or not (mag_lhs <=
    mag_rhs + slack), so that a NaN on either side fails, or -1."""
    bad = ~((lc <= rec_rhs + slack) & (mag_lhs <= mag_rhs + slack))
    return int(np.argmax(bad)) if bad.any() else -1


def _lil_fold(dev, t0: int, block_max) -> None:
    """Fold the LIL statistics (t*dev)*dev/log log t of dev, the (n, m)
    deviations at the times t0..t0+m-1, into block_max (Reference.lil_chunk)."""
    # the blocks start at t = 3, where log log t > 0; math.log, not
    # np.log, whose SIMD loops need not round as libm does
    t1 = t0 + dev.shape[1] - 1
    loglog = np.ones(t1 - t0 + 1)
    t3 = max(3, t0)
    loglog[t3 - t0 :] = np.fromiter(
        map(math.log, map(math.log, range(t3, t1 + 1))), float, max(0, t1 + 1 - t3)
    )
    stat = np.arange(t0, t1 + 1, dtype=float) * dev
    stat *= dev
    stat /= loglog
    for i in range(block_max.shape[0]):
        a, b = max(2 ** (i + 1) + 1, t0), min(2 ** (i + 2), t1)
        if a <= b:
            top = stat[:, a - t0 : b - t0 + 1].max(axis=1)
            np.maximum(block_max[i], top, out=block_max[i])


def _uniform(out, gens, low: float, high: float) -> None:
    """out[:, j], (rows, n), receives what gens[j].uniform(low, high) draws."""
    for j, g in enumerate(gens):
        out[:, j] = g.uniform(low, high, size=out.shape[0])


class Reference:
    """The engines' kernels in numpy.

    Each chunk method advances the replications of an engine by m =
    len(etas) steps from their state (iterates, and for PCA the squared
    norms the next step divides by), in place: it draws the chunk from
    gens, what generators returned for the batch's seeds, writes the losses
    at the m steps into the (n, m) array loss and, when channels are given,
    the recorded channels into those (n, m) arrays.  Each draw method fills
    a chunk for the generators gens, column j with what generator j alone
    draws, and advances them.  The draw and chunk methods of each kernels
    object take what its own generators method returns.
    """

    def generators(self, seeds):
        """The generators the draw and chunk methods take: default_rng of
        each seed, an int, a sequence of ints or a SeedSequence."""
        return [make_generator(s) for s in seeds]

    def states(self, gens):
        """Each generator's bit_generator.state."""
        return [g.bit_generator.state for g in gens]

    def normals(self, out, gens) -> None:
        """out, (rows, n, width), receives standard normals as
        Generator.standard_normal((rows, width)) draws them."""
        rows, _, width = out.shape
        for j, g in enumerate(gens):
            out[:, j, :] = g.standard_normal((rows, width))

    def signs(self, out, gens, scale=None) -> None:
        """out, (rows, n, width), receives signs as Generator.integers(0, 2)
        draws them, times scale (a (width,) array) when it is given."""
        rows, _, width = out.shape
        for j, g in enumerate(gens):
            out[:, j, :] = g.integers(0, 2, size=(rows, width))
        out *= 2.0
        out -= 1.0
        if scale is not None:
            out *= scale

    def sgd_chunk(
        self, state, gens, etas, a, xs, radius: float, b_noise: float, half_mu: float, loss,
        *channels,
    ) -> int:
        """Projected-SGD steps of the (n, d) iterates state, with noise uniform
        on the sphere of radius b_noise; returns how many iterates were
        projected.  loss receives ||x - x*||^2 and channels, when given, are
        loss_pl, noise_sc, noise_pl, y_sc, y_pl and gnorm2."""
        m = len(etas)
        n, d = state.shape
        # whole (n, d) operands: broadcasting a (d,) vector costs more per step
        a_n, xs_n = np.tile(a, (n, 1)), np.tile(xs, (n, 1))
        diff, g = np.empty((n, d)), np.empty((n, d))
        project = _projector(n, d, radius)
        traj = _trajectory(state, m)
        noise = np.zeros(traj[1:].shape)
        hits = 0

        def pass_over(t, e, eta_t):
            dev = traj[: len(eta_t) + 1] - xs
            loss[:, t] = _sum_last(dev[1:] * dev[1:], squares=True).T
            if not channels:
                return
            loss_pl, noise_sc, noise_pl, y_sc, y_pl, gnorm2 = (c[:, t] for c in channels)
            eta = eta_t[:, None]
            gradf = a * dev[:-1]
            gvec = gradf + e
            gn2 = _sum_last(gvec * gvec, squares=True)
            y1 = -_sum_last(e * dev[:-1])
            y2 = -_sum_last(gradf * e)
            y_sc[...] = y1.T
            y_pl[...] = y2.T
            gnorm2[...] = gn2.T
            noise_sc[...] = (2.0 * eta * y1 + eta * eta * gn2).T
            noise_pl[...] = (eta * y2 + half_mu * eta * eta * gn2).T
            loss_pl[...] = (0.5 * _sum_last(a * dev[1:] * dev[1:])).T

        for t in _slices(m, traj):
            e, eta_t = noise[: t.stop - t.start], etas[t]
            if b_noise != 0.0:  # radius 0 draws nothing: the noise stays zero
                self.normals(e, gens)
                _onto_sphere(e, b_noise)
            for k, eta in enumerate(eta_t.tolist()):
                # w = x - eta*(a*(x - x*) + e), projected onto the ball
                x, w = traj[k], traj[k + 1]
                np.subtract(x, xs_n, out=diff)
                np.multiply(a_n, diff, out=g)
                np.add(g, e[k], out=g)
                np.multiply(g, eta, out=g)
                np.subtract(x, g, out=w)
                hits += project(w)
            pass_over(t, e, eta_t)
        state[...] = traj[0]
        return hits

    def pca_chunk(
        self, state, norms, gens, etas, scale, eigs, krasulina: bool, normalize: bool, loss,
        *channels,
    ) -> None:
        """Krasulina or Oja steps of the (n, p) iterates state on signs times
        scale; norms, (n,), holds the squared norm the next step divides by:
        ||v||^2, or 1 after a normalised step.  loss receives sin^2 and
        channels, when given, are q, z_dot_v, znorm2 and norm_ratio."""
        m = len(etas)
        n, p = state.shape
        traj = _trajectory(state, m)
        data = np.empty(traj[1:].shape)
        vn2 = np.ones(traj.shape[:2])
        vn2[0] = norms
        # grown[k] is ||v||^2 right after step k's update, before normalising;
        # without normalising it is the norm the next step divides by
        grown = np.empty_like(vn2[1:]) if normalize else vn2[1:]
        y, c = np.empty(n), np.empty(n)
        tmp, z = np.empty((n, p)), np.empty((n, p))
        y_col, c_col = y[:, None], c[:, None]

        def pass_over(t, xt, eta_t):
            k = len(eta_t)
            u = traj[1 : k + 1, :, 0]
            loss[:, t] = np.maximum(0.0, 1.0 - u**2 / vn2[1 : k + 1]).T
            if not channels:
                return
            q, z_dot_v, znorm2, norm_ratio = (ch[:, t] for ch in channels)
            eta = eta_t[:, None]
            vp, vn2p = traj[:k], vn2[:k]
            yp = _sum_last(xt * vp)
            zp = yp[..., None] * xt - (yp * yp / vn2p)[..., None] * vp
            v1 = vp[..., 0]
            sv = vp * eigs
            m_t = 2.0 * eta * v1 * (sv[..., 0] - v1 * _sum_last(sv * vp) / vn2p) / vn2p
            q[...] = (m_t - 2.0 * eta * v1 * zp[..., 0] / vn2p).T
            z_dot_v[...] = _sum_last(zp * vp).T
            znorm2[...] = _sum_last(zp * zp, squares=True).T
            norm_ratio[...] = (grown[:k] / vn2p).T

        for t in _slices(m, traj, vn2):
            xt, eta_t = data[: t.stop - t.start], etas[t]
            self.signs(xt, gens, scale)
            for k, eta in enumerate(eta_t.tolist()):
                v, w, xk = traj[k], traj[k + 1], xt[k]
                np.multiply(xk, v, out=tmp)
                _sum_last(tmp, y)
                if krasulina:
                    # z = y*X - (y^2/||v||^2)*v; w = v + eta*z
                    np.multiply(y, y, out=c)
                    np.divide(c, vn2[k], out=c)
                    np.multiply(y_col, xk, out=z)
                    np.multiply(c_col, v, out=tmp)
                    np.subtract(z, tmp, out=z)
                    np.multiply(z, eta, out=z)
                else:
                    # w = v + (eta*y)*X
                    np.multiply(y, eta, out=y)
                    np.multiply(y_col, xk, out=z)
                np.add(v, z, out=w)
                np.multiply(w, w, out=tmp)
                _sum_last(tmp, grown[k], squares=True)
                if normalize:
                    np.sqrt(grown[k], out=c)
                    np.divide(w, c_col, out=w)
            pass_over(t, xt, eta_t)
        state[...] = traj[0]
        norms[...] = vn2[0]

    def rm_chunk(self, state, gens, etas, problem, radius: float, loss, *channels) -> None:
        """Root-finding steps x <- x - eta*(M(x) + xi) of the (n,) iterates
        state for the RmProblem's M, with noise xi uniform on [-radius,
        radius].  loss receives (x - theta)^2 and channels, when given, are
        q and noise."""

        def on_slice(t, dev, xt, eta_t):
            loss[:, t] = (dev[1:] ** 2).T
            if not channels:
                return
            q_chan, noise = (c[:, t] for c in channels)
            eta = eta_t[:, None]
            q = -2.0 * eta * dev[:-1] * xt
            q_chan[...] = q.T
            envelope = problem.poly_sq(dev[:-1] ** 2) + problem.r1**2
            noise[...] = (q + 2.0 * eta * eta * envelope).T

        self._rm_slices(state, gens, etas, problem, radius, on_slice)

    def _rm_slices(self, state, gens, etas, problem, radius: float, on_slice) -> None:
        """Step state as rm_chunk does, calling on_slice(t, dev, xt, eta_t)
        after each slice with its steps t, the deviations x - theta of its
        iterates from the one before its first step on, (k + 1, n), and its
        noise and steps."""
        m = len(etas)
        traj = _trajectory(state, m)
        xi = np.empty(traj[1:].shape)
        for t in _slices(m, traj):
            xt, eta_t = xi[: t.stop - t.start], etas[t]
            _uniform(xt, gens, -radius, radius)
            for k, eta in enumerate(eta_t.tolist()):
                x = traj[k]
                y_val = problem.m_func(x)
                np.add(y_val, xt[k], out=y_val)
                np.multiply(y_val, eta, out=y_val)
                np.subtract(x, y_val, out=traj[k + 1])
            on_slice(t, traj[: len(eta_t) + 1] - problem.theta, xt, eta_t)
        state[...] = traj[0]

    def ridge_chunk(
        self, state, gens, etas, stream, lambda_pen, penalty_in_gradient, radius, loss
    ) -> None:
        """Ridge-SGD steps of the (n, d) iterates state on the LinearModelStream
        stream's draws, each followed by the projection onto the ball; loss
        receives ||theta - theta*||^2.  Generator j draws as stream.draw(gens[j],
        m) does, m*d signs, then m uniforms, from a copy of its PCG64 advanced
        past the signs' outputs, half an output each after any spare half word;
        it ends in the copy's state with its own spare."""
        m = len(etas)
        n, d = state.shape
        theta_star = np.asarray(stream.theta_star)
        scale = np.full(d, stream.x_radius / math.sqrt(d))
        cursors = [copy.deepcopy(gen) for gen in gens]
        for bits in (c.bit_generator for c in cursors):
            bits.advance(max(0, -(-(m * d - bits.state["has_uint32"]) // 2)))
        g, pen = np.empty((n, d)), np.empty((n, d))
        resid = np.empty(n)
        resid_col = resid[:, None]
        project = _projector(n, d, radius)
        traj = _trajectory(state, m)
        xs, ys = np.empty(traj[1:].shape), np.empty(traj[1:, :, 0].shape)
        for t in _slices(m, traj):
            xt, yt, eta_t = xs[: t.stop - t.start], ys[: t.stop - t.start], etas[t]
            self.signs(xt, gens, scale)
            _uniform(yt, cursors, -stream.noise_radius, stream.noise_radius)
            np.add(_sum_last(xt * theta_star), yt, out=yt)
            for k, eta in enumerate(eta_t.tolist()):
                theta, w, xk = traj[k], traj[k + 1], xt[k]
                np.multiply(xk, theta, out=g)
                _sum_last(g, resid)
                np.subtract(resid, yt[k], out=resid)
                np.multiply(theta, lambda_pen, out=pen)
                if penalty_in_gradient:
                    # w = theta - eta*(resid*x + lambda*theta)
                    np.multiply(resid_col, xk, out=g)
                    np.add(g, pen, out=g)
                    np.multiply(g, eta, out=g)
                    np.subtract(theta, g, out=w)
                else:
                    # verbatim variant: the penalty enters without a step factor
                    np.multiply(resid, eta, out=resid)
                    np.multiply(resid_col, xk, out=g)
                    np.subtract(theta, g, out=w)
                    np.add(w, pen, out=w)
                project(w)
            loss[:, t] = _sum_last((traj[1 : len(eta_t) + 1] - theta_star) ** 2, squares=True).T
        for gen, cursor in zip(gens, cursors):
            spare = {k: gen.bit_generator.state[k] for k in ("has_uint32", "uinteger")}
            gen.bit_generator.state = {**cursor.bit_generator.state, **spare}
        state[...] = traj[0]

    def lil_chunk(
        self, state, gens, t0: int, m: int, l1: float, problem, radius: float, block_max
    ) -> None:
        """The root-finding steps of rm_chunk at the times t = t0..t0+m-1,
        with eta_t = l1/t, folding the LIL statistics (t*dev)*dev/log log t
        of the deviations dev = x_t - theta into block_max, (n_blocks, n),
        whose row b holds each replication's maximum over the dyadic block
        t = 2^(b+1)+1..2^(b+2) so far; a nan or +inf, once there, stays.
        Times outside the blocks fold nothing.  The steps draw, run and fold
        one slice at a time, so the call's memory does not grow with m."""
        rows = _slice_rows(len(state))
        for lo in range(t0, t0 + m, rows):
            etas = np.divide(l1, np.arange(lo, min(lo + rows, t0 + m), dtype=float))
            self._rm_slices(
                state, gens, etas, problem, radius,
                lambda t, dev, _xt, _eta: _lil_fold(dev[1:].T, lo + t.start, block_max),
            )

    def recursion_failure(self, losses, steps, noise, tol: float, params) -> int:
        """The first step t, counted from 0, at which the path of losses
        L_0..L_T, steps and noise fails an inequality of
        recursion.check_recursion for the RecursionParams params, up to
        tol's slack, or -1 when it fails none."""
        return _first_failure(*recursion_sides(losses, steps, noise, tol, params))

    def pca_failure(
        self, losses, steps, noise, tol: float, b: float, rho: float, krasulina: bool
    ) -> int:
        """The first step t, counted from 0, at which the path fails an
        inequality of algorithms.check_pca_recursion for the Krasulina
        variant or, if not krasulina, Oja's, or -1 when it fails none."""
        return _first_failure(*pca_sides(losses, steps, noise, tol, b, rho, krasulina))


REFERENCE = Reference()
