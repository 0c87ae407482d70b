/* Chunk functions, ridge step loop and draw loops of the batched engines
 * in anytime_iter.algorithms, and the LIL reducer of anytime_iter.harness.
 *
 * sgd_chunk, pca_chunk and rm_chunk (linear M) each run one engine chunk in
 * one call, replication-major: the outer loop runs over blocks of a few
 * replications and the inner loop over the chunk's m steps.  For each
 * replication the call draws the values from its own bit generator,
 * advances the iterate in locals and writes its losses, and its noise
 * channels when the engine records them, into row i of row-strided (n, m)
 * outputs.  No draw chunk and no trajectory buffer is built.
 *
 * ridge_steps advances m ridge steps of n replications in a trajectory
 * buffer traj of shape (m+1, n, d), whose row 0 holds the iterates before
 * the first step and step k writes row k+1, from (m, n, d) covariates and
 * (m, n) responses drawn in numpy.  Inputs are C-contiguous float64; the
 * Python loader checks dtypes, strides and shapes before calling.
 *
 * Every function performs the IEEE operations of the numpy code it
 * replaces, one by one and in the same order, so its results are bit for bit
 * those of numpy.  It must be compiled without floating-point contraction
 * (-ffp-contract=off) and without -ffast-math, so that no multiply-add is
 * fused and no sum is reassociated.  Coordinate sums run left to right like
 * _sum_last in _reference.py, which equals np.sum over fewer than 8 terms: a
 * sum of general terms ends with +0.0, which turns an all -0.0 sum into +0.0
 * as numpy does, and a sum of squares does not.  Widths of 8 or more, where
 * np.sum adds pairwise, stay in numpy.
 *
 * The draw loops fill the (rows, n, width) chunks the streams samplers
 * return, through numpy's own distribution functions and the row helpers
 * the chunk functions share.  lil_max folds the LIL statistic of each chunk
 * of deviations the root-finding engine streams into the harness's dyadic
 * block maxima, with libm's log log t.
 */
#include <math.h>
#include <stdbool.h>
#include <stdint.h>
#include <string.h>

/* the chunk functions keep a few coordinate vectors on the stack; wider
 * problems stay in numpy, whose np.sum adds 8 or more terms pairwise */
#define MAX_WIDTH 7

#define INLINE static inline __attribute__((always_inline))

/* sum_j x[j]*v[j], closed with +0.0 (also for d = 1, where np.sum adds it) */
static double dot(const double *x, const double *v, long d)
{
    double s = x[0] * v[0];
    for (long j = 1; j < d; j++)
        s += x[j] * v[j];
    return s + 0.0;
}

/* sum_j a[j]^2; squares are never -0.0, so a closing +0.0 would change nothing */
static double sum_sq(const double *a, long d)
{
    double s = a[0] * a[0];
    for (long j = 1; j < d; j++)
        s += a[j] * a[j];
    return s;
}

/* Pull w back onto the sphere of the given radius when |w|^2 > rr;
 * returns 1 if it moved. */
static long project(double *w, long d, double radius, double rr)
{
    double r2 = sum_sq(w, d);
    if (!(r2 > rr))
        return 0;
    double scale = radius / sqrt(r2);
    for (long j = 0; j < d; j++)
        w[j] *= scale;
    return 1;
}

/* Ridge SGD with resid = <x, theta> - y.  With the penalty in the gradient
 * w = theta - eta*(resid*x + lambda*theta); without it
 * w = (theta - (eta*resid)*x) + lambda*theta.  Then w is projected. */
void ridge_steps(double *traj, const double *xs, const double *ys, const double *etas,
                 long m, long n, long d, double lambda_pen, int penalty_in_gradient,
                 double radius, double rr)
{
    for (long k = 0; k < m; k++) {
        const double eta = etas[k];
        const double *th = traj + k * n * d;
        double *w = traj + (k + 1) * n * d;
        const double *x = xs + k * n * d;
        const double *y = ys + k * n;
        for (long i = 0; i < n; i++) {
            double resid = dot(x, th, d) - y[i];
            if (penalty_in_gradient) {
                for (long j = 0; j < d; j++) {
                    double g = resid * x[j];
                    g = g + th[j] * lambda_pen;
                    g = g * eta;
                    w[j] = th[j] - g;
                }
            } else {
                double re = resid * eta;
                for (long j = 0; j < d; j++) {
                    double g = re * x[j];
                    w[j] = th[j] - g;
                    w[j] = w[j] + th[j] * lambda_pen;
                }
            }
            project(w, d, radius, rr);
            th += d;
            w += d;
            x += d;
        }
    }
}

/* Draws.  gens holds the n bit generators' bitgen_t pointers, which C
 * only passes on, and normal, fill and uniform are numpy's exported
 * random_standard_normal, random_bounded_uint64_fill and random_uniform, the
 * functions behind Generator.standard_normal, Generator.integers and
 * Generator.uniform.  Each generator gets the calls its Generator method
 * makes for a chunk, in the same order, so every value is the one numpy
 * draws, computed by the same machine code, and the generator ends in the
 * same state.  The row helpers below serve both the chunk functions and the
 * draw loops the streams samplers call; in the draw loops out is
 * (rows, n, width), and row r of generator j starts at out + (r*n + j)*width. */
typedef double (*normal_fn)(void *bitgen);
typedef void (*fill_fn)(void *bitgen, uint64_t off, uint64_t rng, intptr_t cnt, bool use_masked,
                        uint64_t *out);
typedef double (*uniform_fn)(void *bitgen, double lower, double range);

/* One row uniform on the sphere of the given radius: width normals, then
 * o = o*(radius/sqrt(|o|^2)), as _reference._onto_sphere computes it.
 * Radius 0 draws nothing and writes zeros, as Reference.sphere does. */
INLINE void sphere_row(double *o, void *bitgen, long width, double radius, normal_fn normal)
{
    if (radius == 0.0) {
        for (long w = 0; w < width; w++)
            o[w] = 0.0;
        return;
    }
    for (long w = 0; w < width; w++)
        o[w] = normal(bitgen);
    double f = radius / sqrt(sum_sq(o, width));
    for (long w = 0; w < width; w++)
        o[w] = o[w] * f;
}

/* One row of signs u*2 - 1 from width values u of a fill (off 0, range 1,
 * Lemire's rejection: use_masked false), as integers(0, 2) draws them for its
 * default int64 dtype.  scale, when not NULL, multiplies coordinate w by
 * scale[w] last, as the PCA draws *= sqrt(eigs) does.  Each generator gets
 * one fill per chunk, the one call integers makes for it. */
INLINE void sign_row(double *o, const uint64_t *u, const double *scale, long width)
{
    for (long w = 0; w < width; w++) {
        double s = (double)u[w] * 2.0;
        s = s - 1.0;
        o[w] = scale ? s * scale[w] : s;
    }
}

void sphere_draw(double *out, void *const *gens, long rows, long n, long width, double radius,
                 normal_fn normal)
{
    for (long r = 0; r < rows; r++)
        for (long j = 0; j < n; j++)
            sphere_row(out + (r * n + j) * width, gens[j], width, radius, normal);
}

/* tmp holds rows*width values, one generator's fill. */
void sign_draw(double *out, void *const *gens, uint64_t *tmp, const double *scale, long rows,
               long n, long width, fill_fn fill)
{
    for (long j = 0; j < n; j++) {
        fill(gens[j], 0, 1, rows * width, false, tmp);
        for (long r = 0; r < rows; r++)
            sign_row(out + (r * n + j) * width, tmp + r * width, scale, width);
    }
}

/* rows uniforms per generator on [low, low + range), as
 * Generator.uniform(low, high) with range = high - low; out is (rows, n). */
void uniform_draw(double *out, void *const *gens, long rows, long n, double low, double range,
                  uniform_fn uniform)
{
    for (long r = 0; r < rows; r++)
        for (long j = 0; j < n; j++)
            out[r * n + j] = uniform(gens[j], low, range);
}

/* Chunks.  Each function advances the n replications of an engine by the m
 * steps of one chunk, replication-major: the outer loop runs over blocks of
 * up to LANES replications and the inner loop over the steps.  Replication
 * i draws its chunk's values from gens[i], steps its iterate, held in
 * locals, m times from state row i, writes its m losses into row i of loss
 * (row i starts at loss + i*ld_loss) and, when the channel pointers are not
 * NULL, its recorded channels into row i of each channel array (at i*ld, or
 * i*ld_pl for SGD's loss_pl), and leaves its last iterate in state row i.
 * The outputs are row-strided column slices of the engine's (N, T) results,
 * or of a chunk buffer.  Each step of a replication depends on the one
 * before, through divisions and square roots, so each step runs over the
 * block's lanes operation by operation, and the independent chains overlap.
 *
 * Each value is the numpy expression of the reference step or pass
 * (_reference.Reference's sgd/sgd_pass, pca/pca_pass and rm/rm_pass),
 * evaluated left to right with its parentheses; constants formed in Python
 * (rr, half_mu, s2, r1sq, range) come in as arguments, since Python's **
 * calls libm's pow.  Replications are independent and each generator gets
 * the calls the reference's chunk draw makes, in the same order, so the
 * results are the reference's, with no draw chunk and no trajectory buffer
 * in memory. */
#define LANES 8

/* Runs CALL(w), which returns, with w the constant 1 .. MAX_WIDTH equal to
 * d, so that the compiler builds one copy of an inlined chunk body per
 * width, with its coordinate loops unrolled; d is checked in Python. */
#define BY_WIDTH(d, CALL) \
    switch (d) {          \
    case 1: CALL(1);      \
    case 2: CALL(2);      \
    case 3: CALL(3);      \
    case 4: CALL(4);      \
    case 5: CALL(5);      \
    case 6: CALL(6);      \
    default: CALL(7);     \
    }

/* Projected SGD with sphere noise e of radius b_noise:
 * w = x - eta*(a*(x - x*) + e), projected onto the ball; returns the number
 * of projections.  With dev = x - x* before a step and dn after it: loss
 * |dn|^2, loss_pl 0.5*(sum (a*dn)*dn), y_sc -<e, dev>, y_pl -<a*dev, e>,
 * gnorm2 |a*dev + e|^2, noise_sc (2*eta)*y_sc + (eta*eta)*gnorm2 and
 * noise_pl eta*y_pl + ((half_mu*eta)*eta)*gnorm2. */
INLINE long sgd_rows(double *state, void *const *gens, const double *etas, const double *a,
                     const double *xs, long m, long n, long d, double radius, double rr,
                     double b_noise, double half_mu, double *loss, long ld_loss,
                     double *loss_pl, long ld_pl, double *noise_sc, double *noise_pl,
                     double *y_sc, double *y_pl, double *gnorm2, long ld, normal_fn normal)
{
    double x[LANES][MAX_WIDTH], w[LANES][MAX_WIDTH], e[LANES][MAX_WIDTH];
    double dev[MAX_WIDTH], dn[MAX_WIDTH], gradf[MAX_WIDTH], gv[MAX_WIDTH], adn[MAX_WIDTH];
    long hits = 0;
    for (long i0 = 0; i0 < n; i0 += LANES) {
        const long lanes = n - i0 < LANES ? n - i0 : LANES;
        for (long l = 0; l < lanes; l++)
            memcpy(x[l], state + (i0 + l) * d, sizeof(double) * d);
        for (long k = 0; k < m; k++) {
            const double eta = etas[k];
            for (long l = 0; l < lanes; l++)
                sphere_row(e[l], gens[i0 + l], d, b_noise, normal);
            for (long l = 0; l < lanes; l++) {
                for (long j = 0; j < d; j++) {
                    double g = a[j] * (x[l][j] - xs[j]);
                    g = g + e[l][j];
                    g = g * eta;
                    w[l][j] = x[l][j] - g;
                }
            }
            for (long l = 0; l < lanes; l++)
                hits += project(w[l], d, radius, rr);
            for (long l = 0; l < lanes; l++) {
                const long i = i0 + l;
                for (long j = 0; j < d; j++)
                    dn[j] = w[l][j] - xs[j];
                loss[i * ld_loss + k] = sum_sq(dn, d);
                if (loss_pl) {
                    for (long j = 0; j < d; j++) {
                        dev[j] = x[l][j] - xs[j];
                        gradf[j] = a[j] * dev[j];
                        gv[j] = gradf[j] + e[l][j];
                        adn[j] = a[j] * dn[j];
                    }
                    double gn2 = sum_sq(gv, d);
                    double y1 = -dot(e[l], dev, d);
                    double y2 = -dot(gradf, e[l], d);
                    y_sc[i * ld + k] = y1;
                    y_pl[i * ld + k] = y2;
                    gnorm2[i * ld + k] = gn2;
                    noise_sc[i * ld + k] = (2.0 * eta) * y1 + (eta * eta) * gn2;
                    noise_pl[i * ld + k] = eta * y2 + ((half_mu * eta) * eta) * gn2;
                    loss_pl[i * ld_pl + k] = 0.5 * dot(adn, dn, d);
                }
                memcpy(x[l], w[l], sizeof(double) * d);
            }
        }
        for (long l = 0; l < lanes; l++)
            memcpy(state + (i0 + l) * d, x[l], sizeof(double) * d);
    }
    return hits;
}

long sgd_chunk(double *state, void *const *gens, const double *etas, const double *a,
               const double *xs, long m, long n, long d, double radius, double rr,
               double b_noise, double half_mu, double *loss, long ld_loss, double *loss_pl,
               long ld_pl, double *noise_sc, double *noise_pl, double *y_sc, double *y_pl,
               double *gnorm2, long ld, normal_fn normal)
{
#define SGD(D)                                                                              \
    return sgd_rows(state, gens, etas, a, xs, m, n, D, radius, rr, b_noise, half_mu, loss, \
                    ld_loss, loss_pl, ld_pl, noise_sc, noise_pl, y_sc, y_pl, gnorm2, ld,    \
                    normal)
    BY_WIDTH(d, SGD)
#undef SGD
}

/* Streaming PCA on sign data x, scaled by scale, from one fill of m*p values
 * per generator into tmp, which holds min(n, LANES)*m*p values.  vn2 is the
 * squared norm a step divides by, kept per replication in norms.
 * y = <x, v>; Krasulina: w = v + eta*(y*x - (y^2/vn2)*v), Oja:
 * w = v + (eta*y)*x.  grown = |w|^2 and, with normalize, w is divided by its
 * norm and the next vn2 is 1, else it is grown.  With u the first
 * coordinate after a step and the next vn2: loss max(0, 1 - (u*u)/vn2'), and
 * with v before it, z = y*x - ((y*y)/vn2)*v, sv = v*eigs, tv = (2*eta)*v1,
 * m = (tv*(sv1 - (v1*<sv, v>)/vn2))/vn2, q = m - (tv*z1)/vn2,
 * z_dot_v = <z, v>, znorm2 = |z|^2 and ratio = grown/vn2.
 * (0.0 >= r) ? 0.0 : r keeps a NaN r, as np.maximum(0.0, r) does and fmax
 * does not. */
INLINE void pca_rows(double *state, double *norms, void *const *gens, uint64_t *tmp,
                     const double *scale, const double *etas, const double *eigs, long m,
                     long n, long p, int krasulina, int normalize, double *loss, long ld_loss,
                     double *q, double *z_dot_v, double *znorm2, double *ratio, long ld,
                     fill_fn fill)
{
    double v[LANES][MAX_WIDTH], w[LANES][MAX_WIDTH], x[LANES][MAX_WIDTH];
    double vn2[LANES], y[LANES], grown[LANES], next[LANES];
    double z[MAX_WIDTH], sv[MAX_WIDTH];
    for (long i0 = 0; i0 < n; i0 += LANES) {
        const long lanes = n - i0 < LANES ? n - i0 : LANES;
        for (long l = 0; l < lanes; l++) {
            fill(gens[i0 + l], 0, 1, m * p, false, tmp + l * m * p);
            memcpy(v[l], state + (i0 + l) * p, sizeof(double) * p);
            vn2[l] = norms[i0 + l];
        }
        for (long k = 0; k < m; k++) {
            const double eta = etas[k];
            for (long l = 0; l < lanes; l++) {
                sign_row(x[l], tmp + (l * m + k) * p, scale, p);
                y[l] = dot(x[l], v[l], p);
            }
            if (krasulina) {
                for (long l = 0; l < lanes; l++) {
                    double c = y[l] * y[l];
                    c = c / vn2[l];
                    for (long j = 0; j < p; j++) {
                        double zj = y[l] * x[l][j];
                        zj = zj - c * v[l][j];
                        zj = zj * eta;
                        w[l][j] = v[l][j] + zj;
                    }
                }
            } else {
                for (long l = 0; l < lanes; l++) {
                    double ye = y[l] * eta;
                    for (long j = 0; j < p; j++)
                        w[l][j] = v[l][j] + ye * x[l][j];
                }
            }
            for (long l = 0; l < lanes; l++)
                grown[l] = next[l] = sum_sq(w[l], p);
            if (normalize) {
                for (long l = 0; l < lanes; l++) {
                    double c = sqrt(grown[l]);
                    for (long j = 0; j < p; j++)
                        w[l][j] = w[l][j] / c;
                    next[l] = 1.0;
                }
            }
            for (long l = 0; l < lanes; l++) {
                const long i = i0 + l;
                double r = 1.0 - (w[l][0] * w[l][0]) / next[l];
                loss[i * ld_loss + k] = (0.0 >= r) ? 0.0 : r;
                if (q) {
                    double c = (y[l] * y[l]) / vn2[l];
                    for (long j = 0; j < p; j++) {
                        z[j] = y[l] * x[l][j] - c * v[l][j];
                        sv[j] = v[l][j] * eigs[j];
                    }
                    double v1 = v[l][0];
                    double tv = (2.0 * eta) * v1;
                    double m_t = (tv * (sv[0] - (v1 * dot(sv, v[l], p)) / vn2[l])) / vn2[l];
                    q[i * ld + k] = m_t - (tv * z[0]) / vn2[l];
                    z_dot_v[i * ld + k] = dot(z, v[l], p);
                    znorm2[i * ld + k] = sum_sq(z, p);
                    ratio[i * ld + k] = grown[l] / vn2[l];
                }
                memcpy(v[l], w[l], sizeof(double) * p);
                vn2[l] = next[l];
            }
        }
        for (long l = 0; l < lanes; l++) {
            memcpy(state + (i0 + l) * p, v[l], sizeof(double) * p);
            norms[i0 + l] = vn2[l];
        }
    }
}

void pca_chunk(double *state, double *norms, void *const *gens, uint64_t *tmp,
               const double *scale, const double *etas, const double *eigs, long m, long n,
               long p, int krasulina, int normalize, double *loss, long ld_loss, double *q,
               double *z_dot_v, double *znorm2, double *ratio, long ld, fill_fn fill)
{
#define PCA(D)                                                                        \
    {                                                                                 \
        pca_rows(state, norms, gens, tmp, scale, etas, eigs, m, n, D, krasulina,      \
                 normalize, loss, ld_loss, q, z_dot_v, znorm2, ratio, ld, fill);      \
        return;                                                                       \
    }
    BY_WIDTH(p, PCA)
#undef PCA
}

/* Robbins-Monro with linear M and uniform noise xi on [low, low + range):
 * x <- x - eta*(slope*(x - theta) + xi).  With dev = x - theta before a
 * step and dn after it: loss dn (signed_dev) or dn*dn, q
 * ((-2*eta)*dev)*xi and noise q + ((2*eta)*eta)*(s2*(dev*dev) + r1sq). */
void rm_chunk(double *state, void *const *gens, const double *etas, long m, long n,
              double theta, double slope, double low, double range, double s2, double r1sq,
              int signed_dev, double *loss, long ld_loss, double *q, double *noise, long ld,
              uniform_fn uniform)
{
    double x[LANES], xi[LANES];
    for (long i0 = 0; i0 < n; i0 += LANES) {
        const long lanes = n - i0 < LANES ? n - i0 : LANES;
        memcpy(x, state + i0, sizeof(double) * lanes);
        for (long k = 0; k < m; k++) {
            const double eta = etas[k];
            for (long l = 0; l < lanes; l++)
                xi[l] = uniform(gens[i0 + l], low, range);
            for (long l = 0; l < lanes; l++) {
                const long i = i0 + l;
                double y = slope * (x[l] - theta);
                y = y + xi[l];
                y = y * eta;
                const double w = x[l] - y;
                const double dn = w - theta;
                loss[i * ld_loss + k] = signed_dev ? dn : dn * dn;
                if (q) {
                    double dev = x[l] - theta;
                    double qk = ((-2.0 * eta) * dev) * xi[l];
                    q[i * ld + k] = qk;
                    noise[i * ld + k] = qk + ((2.0 * eta) * eta) * (s2 * (dev * dev) + r1sq);
                }
                x[l] = w;
            }
        }
        memcpy(state + i0, x, sizeof(double) * lanes);
    }
}

/* The LIL statistic's dyadic block maxima.  dev is the (n, m) chunk of
 * signed deviations x_t - theta at the times t = t0 .. t0+m-1, row i at
 * dev + i*ld; block b covers t = 2^(b+1)+1 .. 2^(b+2), and block_max,
 * (n_blocks, n), holds each replication's maximum over each block so far.
 * Times outside the blocks, t < 3 or t > 2^(n_blocks+1), fold nothing.
 * Each statistic is ((t*dev)*dev)/log(log(t)), as
 * _reference.Reference.lil_max computes it, with log log t from libm's log,
 * the function math.log calls, into ll_buf, m values of scratch. */

/* log(log(t)) for the m times t0, t0+1, ... */
void lil_loglog(double *out, long t0, long m)
{
    for (long k = 0; k < m; k++)
        out[k] = log(log((double)(t0 + k)));
}

/* np.maximum(a, b): a NaN wins, the first one first, and a tie gives b.
 * Ties only tell -0.0 from +0.0, and no statistic is -0.0: (t*dev)*dev
 * multiplies two values of one sign. */
static double nan_max(double a, double b)
{
    return (a > b || isnan(a)) ? a : b;
}

void lil_max(const double *dev, long ld, long n, long m, long t0, double *block_max,
             long n_blocks, double *ll_buf)
{
    long lo = t0 > 3 ? t0 : 3;
    long hi = t0 + m - 1;
    if (hi > (2L << n_blocks))
        hi = 2L << n_blocks;
    if (lo > hi)
        return;
    lil_loglog(ll_buf + (lo - t0), lo, hi - lo + 1);
    for (long b = 0; b < n_blocks; b++) {
        long a = (2L << b) + 1, z = 4L << b;
        if (a < lo)
            a = lo;
        if (z > hi)
            z = hi;
        if (a > z)
            continue;
        /* four running maxima per row, so that the divisions overlap */
        const long len = z - a + 1;
        const double *ll = ll_buf + (a - t0);
        for (long i = 0; i < n; i++) {
            const double *x = dev + i * ld + (a - t0);
            double m0 = -INFINITY, m1 = -INFINITY, m2 = -INFINITY, m3 = -INFINITY;
            long k = 0;
            for (; k + 4 <= len; k += 4) {
                m0 = nan_max(m0, (((double)(a + k) * x[k]) * x[k]) / ll[k]);
                m1 = nan_max(m1, (((double)(a + k + 1) * x[k + 1]) * x[k + 1]) / ll[k + 1]);
                m2 = nan_max(m2, (((double)(a + k + 2) * x[k + 2]) * x[k + 2]) / ll[k + 2]);
                m3 = nan_max(m3, (((double)(a + k + 3) * x[k + 3]) * x[k + 3]) / ll[k + 3]);
            }
            for (; k < len; k++)
                m0 = nan_max(m0, (((double)(a + k) * x[k]) * x[k]) / ll[k]);
            double *out = block_max + b * n + i;
            *out = nan_max(*out, nan_max(nan_max(m0, m1), nan_max(m2, m3)));
        }
    }
}
