/* Step loops, recording passes and draw loops of the batched engines in
 * anytime_iter.algorithms.
 *
 * Each step function advances m steps of n replications held in a
 * trajectory buffer traj of shape (m+1, n, d): row 0 holds the iterates
 * before the first step and step k writes row k+1.  Draws are (m, n, d) or
 * (m, n) and etas holds the m step sizes.  Inputs are C-contiguous float64;
 * the passes write into row-strided (n, m) views.  The Python loader checks
 * dtypes, strides and shapes before calling.
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
 * The passes compute the losses and noise channels of a slice when the
 * engine records its channels.  The plain loss pass, which every coverage
 * and LIL run takes, stays in numpy: it is one array expression and a
 * transposed copy, already at memory speed, and a C version measured slower.
 *
 * The draw loops fill the (rows, n, width) draw chunks the step loops read,
 * through numpy's own distribution functions.  lil_max, last, folds the
 * LIL statistic of each chunk of deviations the root-finding engine streams
 * into the harness's dyadic block maxima, with libm's log log t.
 */
#include <math.h>
#include <stdbool.h>
#include <stdint.h>
#include <string.h>

/* the passes keep a few coordinate vectors on the stack; wider problems
 * stay in numpy, whose np.sum adds 8 or more terms pairwise */
#define MAX_WIDTH 7

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

/* Projected SGD: w = x - eta*(a*(x - x*) + e), projected onto the ball.
 * Returns the number of projections. */
long sgd_steps(double *traj, const double *noise, const double *etas, const double *a,
               const double *xs, long m, long n, long d, double radius, double rr)
{
    long hits = 0;
    for (long k = 0; k < m; k++) {
        const double eta = etas[k];
        const double *x = traj + k * n * d;
        double *w = traj + (k + 1) * n * d;
        const double *e = noise + k * n * d;
        for (long i = 0; i < n; i++) {
            for (long j = 0; j < d; j++) {
                double g = a[j] * (x[j] - xs[j]);
                g = g + e[j];
                g = g * eta;
                w[j] = x[j] - g;
            }
            hits += project(w, d, radius, rr);
            x += d;
            w += d;
            e += d;
        }
    }
    return hits;
}

/* Streaming PCA.  y = <X, v>; Krasulina: w = v + eta*(y*X - (y^2/nv)*v),
 * Oja: w = v + (eta*y)*X.  grown[k] receives |w|^2 and, with normalize,
 * w is divided by its norm.  norms[k] is the squared norm step k divides
 * by; grown may alias norms + n, as it does without normalisation. */
void pca_steps(double *traj, const double *norms, double *grown, const double *data,
               const double *etas, long m, long n, long p, int krasulina, int normalize)
{
    for (long k = 0; k < m; k++) {
        const double eta = etas[k];
        const double *v = traj + k * n * p;
        double *w = traj + (k + 1) * n * p;
        const double *x = data + k * n * p;
        for (long i = 0; i < n; i++) {
            double y = dot(x, v, p);
            if (krasulina) {
                double c = y * y;
                c = c / norms[k * n + i];
                for (long j = 0; j < p; j++) {
                    double z = y * x[j];
                    z = z - c * v[j];
                    z = z * eta;
                    w[j] = v[j] + z;
                }
            } else {
                double ye = y * eta;
                for (long j = 0; j < p; j++)
                    w[j] = v[j] + ye * x[j];
            }
            double g = sum_sq(w, p);
            grown[k * n + i] = g;
            if (normalize) {
                double c = sqrt(g);
                for (long j = 0; j < p; j++)
                    w[j] = w[j] / c;
            }
            v += p;
            w += p;
            x += p;
        }
    }
}

/* Robbins-Monro with linear M: x <- x - eta*(slope*(x - theta) + xi). */
void rm_linear_steps(double *traj, const double *xi, const double *etas, long m, long n,
                     double theta, double slope)
{
    for (long k = 0; k < m; k++) {
        const double eta = etas[k];
        const double *x = traj + k * n;
        double *w = traj + (k + 1) * n;
        const double *u = xi + k * n;
        for (long i = 0; i < n; i++) {
            double y = slope * (x[i] - theta);
            y = y + u[i];
            y = y * eta;
            w[i] = x[i] - y;
        }
    }
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

/* Passes with recording.  Each reads a slice as its step loop left it (traj,
 * the draws, etas and, for PCA, norms and grown) and writes the losses at
 * the slice's m steps and every recorded channel straight into the engine's
 * (N, T) result arrays: row i of an output starts at out + i*ld, where the
 * channel arrays share the row stride ld and the losses have their own
 * (ld_loss, as they may be a reused chunk buffer, and ld_pl for SGD's
 * loss_pl).  Replications run outside and steps inside, so each
 * output row is written in order.  Each value is the numpy expression of the
 * reference pass, evaluated left to right with its parentheses; constants
 * formed in Python (half_mu, s2, r1sq) come in as arguments, since Python's
 * ** calls libm's pow.  The step loops stay separate calls: each
 * replication's steps form a serial chain, which a loop with replications
 * outside would run one step at a time. */

/* Projected SGD, dev = x - x* before a step and dn after it:
 * loss |dn|^2, loss_pl 0.5*(sum (a*dn)*dn), y_sc -<e, dev>, y_pl -<a*dev, e>,
 * gnorm2 |a*dev + e|^2, noise_sc (2*eta)*y_sc + (eta*eta)*gnorm2 and
 * noise_pl eta*y_pl + ((half_mu*eta)*eta)*gnorm2. */
void sgd_pass(const double *traj, const double *noise, const double *etas, const double *a,
              const double *xs, long m, long n, long d, double half_mu, double *loss,
              long ld_loss, double *loss_pl, long ld_pl, double *noise_sc, double *noise_pl,
              double *y_sc, double *y_pl, double *gnorm2, long ld)
{
    double dev[MAX_WIDTH], dn[MAX_WIDTH], gradf[MAX_WIDTH], gv[MAX_WIDTH], adn[MAX_WIDTH];
    for (long i = 0; i < n; i++) {
        for (long k = 0; k < m; k++) {
            const double eta = etas[k];
            const double *x = traj + (k * n + i) * d;
            const double *w = x + n * d;
            const double *e = noise + (k * n + i) * d;
            for (long j = 0; j < d; j++) {
                dev[j] = x[j] - xs[j];
                dn[j] = w[j] - xs[j];
                gradf[j] = a[j] * dev[j];
                gv[j] = gradf[j] + e[j];
                adn[j] = a[j] * dn[j];
            }
            double gn2 = sum_sq(gv, d);
            double y1 = -dot(e, dev, d);
            double y2 = -dot(gradf, e, d);
            loss[i * ld_loss + k] = sum_sq(dn, d);
            y_sc[i * ld + k] = y1;
            y_pl[i * ld + k] = y2;
            gnorm2[i * ld + k] = gn2;
            noise_sc[i * ld + k] = (2.0 * eta) * y1 + (eta * eta) * gn2;
            noise_pl[i * ld + k] = eta * y2 + ((half_mu * eta) * eta) * gn2;
            loss_pl[i * ld_pl + k] = 0.5 * dot(adn, dn, d);
        }
    }
}

/* Streaming PCA, v before a step, x its data and vn2 = norms[k]:
 * loss max(0, 1 - (u*u)/norms[k+1]) with u the first coordinate after it,
 * y = <x, v>, z = y*x - ((y*y)/vn2)*v, sv = v*eigs, tv = (2*eta)*v1,
 * m = (tv*(sv1 - (v1*<sv, v>)/vn2))/vn2, q = m - (tv*z1)/vn2,
 * z_dot_v = <z, v>, znorm2 = |z|^2 and ratio = grown[k]/vn2.
 * (0.0 >= r) ? 0.0 : r keeps a NaN r, as np.maximum(0.0, r) does and fmax
 * does not. */
void pca_pass(const double *traj, const double *norms, const double *grown, const double *data,
              const double *etas, const double *eigs, long m, long n, long p, double *loss,
              long ld_loss, double *q, double *z_dot_v, double *znorm2, double *ratio, long ld)
{
    double z[MAX_WIDTH], sv[MAX_WIDTH];
    for (long i = 0; i < n; i++) {
        for (long k = 0; k < m; k++) {
            const double eta = etas[k];
            const double *v = traj + (k * n + i) * p;
            const double *x = data + (k * n + i) * p;
            const double vn2 = norms[k * n + i];
            double u = v[n * p];
            double r = 1.0 - (u * u) / norms[(k + 1) * n + i];
            loss[i * ld_loss + k] = (0.0 >= r) ? 0.0 : r;
            double y = dot(x, v, p);
            double c = (y * y) / vn2;
            for (long j = 0; j < p; j++) {
                z[j] = y * x[j] - c * v[j];
                sv[j] = v[j] * eigs[j];
            }
            double v1 = v[0];
            double tv = (2.0 * eta) * v1;
            double m_t = (tv * (sv[0] - (v1 * dot(sv, v, p)) / vn2)) / vn2;
            q[i * ld + k] = m_t - (tv * z[0]) / vn2;
            z_dot_v[i * ld + k] = dot(z, v, p);
            znorm2[i * ld + k] = sum_sq(z, p);
            ratio[i * ld + k] = grown[k * n + i] / vn2;
        }
    }
}

/* Robbins-Monro with linear M, dev = x - theta before a step and dn after
 * it: loss dn (signed_dev) or dn*dn, q ((-2*eta)*dev)*xi and
 * noise q + ((2*eta)*eta)*(s2*(dev*dev) + r1sq). */
void rm_pass(const double *traj, const double *xi, const double *etas, long m, long n,
             double theta, double s2, double r1sq, int signed_dev, double *loss, long ld_loss,
             double *q, double *noise, long ld)
{
    for (long i = 0; i < n; i++) {
        for (long k = 0; k < m; k++) {
            const double eta = etas[k];
            double dev = traj[k * n + i] - theta;
            double dn = traj[(k + 1) * n + i] - theta;
            loss[i * ld_loss + k] = signed_dev ? dn : dn * dn;
            double qk = ((-2.0 * eta) * dev) * xi[k * n + i];
            q[i * ld + k] = qk;
            noise[i * ld + k] = qk + ((2.0 * eta) * eta) * (s2 * (dev * dev) + r1sq);
        }
    }
}

/* Draw loops.  gens holds the n bit generators' bitgen_t pointers, which C
 * only passes on, and normal, fill and uniform are numpy's exported
 * random_standard_normal, random_bounded_uint64_fill and random_uniform, the
 * functions behind Generator.standard_normal, Generator.integers and
 * Generator.uniform.  Each generator gets the calls its Generator method
 * makes for a chunk, in the same order, so every value is the one numpy
 * draws, computed by the same machine code, and the generator ends in the
 * same state.  out is (rows, n, width): row r of generator j starts at
 * out + (r*n + j)*width. */
typedef double (*normal_fn)(void *bitgen);
typedef void (*fill_fn)(void *bitgen, uint64_t off, uint64_t rng, intptr_t cnt, bool use_masked,
                        uint64_t *out);
typedef double (*uniform_fn)(void *bitgen, double lower, double range);

/* Rows uniform on the sphere of the given radius: width normals per row,
 * then o = o*(radius/sqrt(|o|^2)), as _reference._onto_sphere computes it.
 * Radius 0 draws nothing and writes zeros, as sphere_noise_batch does. */
void sphere_draw(double *out, void *const *gens, long rows, long n, long width, double radius,
                 normal_fn normal)
{
    if (radius == 0.0) {
        memset(out, 0, sizeof(double) * rows * n * width);
        return;
    }
    for (long r = 0; r < rows; r++) {
        for (long j = 0; j < n; j++) {
            double *o = out + (r * n + j) * width;
            for (long w = 0; w < width; w++)
                o[w] = normal(gens[j]);
            double f = radius / sqrt(sum_sq(o, width));
            for (long w = 0; w < width; w++)
                o[w] = o[w] * f;
        }
    }
}

/* Signs u*2 - 1 from one integers(0, 2) call per generator: a single fill
 * of rows*width values with off 0, range 1 and Lemire's rejection
 * (use_masked false), as integers does for its default int64 dtype.  tmp
 * holds rows*width values.  scale, when not NULL, multiplies coordinate w by
 * scale[w] last, as pca_batch's draws *= sqrt(eigs) does. */
void sign_draw(double *out, void *const *gens, uint64_t *tmp, const double *scale, long rows,
               long n, long width, fill_fn fill)
{
    for (long j = 0; j < n; j++) {
        fill(gens[j], 0, 1, rows * width, false, tmp);
        for (long r = 0; r < rows; r++) {
            double *o = out + (r * n + j) * width;
            const uint64_t *u = tmp + r * width;
            for (long w = 0; w < width; w++) {
                double s = (double)u[w] * 2.0;
                s = s - 1.0;
                o[w] = scale ? s * scale[w] : s;
            }
        }
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

/* The LIL statistic's dyadic block maxima, appended last so that the
 * functions above keep their layout (the PLT entry of libm's log moves them
 * all by 16 bytes).  dev is the (n, m) chunk of signed deviations
 * x_t - theta at the times t = t0 .. t0+m-1, row i at dev + i*ld; block b
 * covers t = 2^(b+1)+1 .. 2^(b+2), and block_max, (n_blocks, n), holds each
 * replication's maximum over each block so far.  Times outside the blocks,
 * t < 3 or t > 2^(n_blocks+1), fold nothing.  Each statistic is
 * ((t*dev)*dev)/log(log(t)), as _reference.Reference.lil_max computes it,
 * with log log t from libm's log, the function math.log calls, into ll_buf,
 * m values of scratch. */

/* log(log(t)) for the m times t0, t0+1, ...; lil_max calls the static
 * copy, as a call to an exported function would go through the PLT and
 * grow it, moving every function above */
static void loglog(double *out, long t0, long m)
{
    for (long k = 0; k < m; k++)
        out[k] = log(log((double)(t0 + k)));
}

void lil_loglog(double *out, long t0, long m)
{
    loglog(out, t0, m);
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
    loglog(ll_buf + (lo - t0), lo, hi - lo + 1);
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
