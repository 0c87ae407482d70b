/* Step loops of the batched engines in anytime_iter.algorithms.
 *
 * Each function advances m steps of n replications held in a trajectory
 * buffer traj of shape (m+1, n, d): row 0 holds the iterates before the
 * first step and step k writes row k+1.  Draws are (m, n, d) or (m, n) and
 * etas holds the m step sizes.  All arrays are C-contiguous float64; the
 * Python loader checks dtypes, contiguity and shapes before calling.
 *
 * Every function performs the IEEE operations of the numpy step loop it
 * replaces, one by one and in the same order, so its results are bit for bit
 * those of the loop.  It must be compiled without floating-point
 * contraction (-ffp-contract=off) and without -ffast-math, so that no
 * multiply-add is fused and no sum is reassociated.  Coordinate sums run
 * left to right like _sum_last in streams.py, which equals np.sum over fewer
 * than 8 terms: a sum of general terms ends with +0.0, which turns an
 * all -0.0 sum into +0.0 as numpy does, and a sum of squares does not.
 * Widths of 8 or more, where np.sum adds pairwise, stay in numpy.
 *
 * The draw loops at the end fill the (rows, n, width) draw chunks the step
 * loops read, through numpy's own distribution functions.
 */
#include <math.h>
#include <stdbool.h>
#include <stdint.h>
#include <string.h>

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
 * then o = o*(radius/sqrt(|o|^2)), as streams._onto_sphere computes it.
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
