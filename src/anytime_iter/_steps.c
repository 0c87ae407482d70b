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
 */
#include <math.h>

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
