/* Euler-Maruyama steppers for the double-well and four-well diffusions.
 *
 * lagtime.datasets compiles this file on first use and calls it through
 * ctypes. Every expression keeps the operation order of the NumPy reference
 * path (euler_maruyama with the systems' drift functions), and the build
 * turns off contraction into fused multiply-adds, so both paths produce
 * bit-identical frames from the same noise.
 *
 * Each stepper takes n_frames * n_substeps steps of
 *
 *     x <- x + drift(x) * h + s * noise[row]
 *
 * with noise holding one row of standard normals per step. It writes the
 * state after every n_substeps steps to the next row of out and leaves the
 * final state in x. It returns -1, or the row of the first step whose state
 * is not finite; it then stops and leaves x and out partly written.
 */
#include <math.h>

long double_well_steps(double *x, const double *noise, double h, double s,
                       long n_substeps, long n_frames, double *out)
{
    double x0 = x[0], x1 = x[1];
    long row = 0;
    for (long f = 0; f < n_frames; f++) {
        for (long k = 0; k < n_substeps; k++, row++) {
            double f0 = -4.0 * x0 * (x0 * x0 - 1.0);
            double f1 = -2.0 * x1;
            x0 = x0 + f0 * h + s * noise[2 * row];
            x1 = x1 + f1 * h + s * noise[2 * row + 1];
            if (!(isfinite(x0) && isfinite(x1)))
                return row;
        }
        out[2 * f] = x0;
        out[2 * f + 1] = x1;
    }
    x[0] = x0;
    x[1] = x1;
    return -1;
}

/* The minima and the amplitude are QUADWELL_MINIMA and _QUADWELL_AMP of
 * datasets.py: the drift is -2 * 0.25 * p * p' with p the product of the
 * distances to the four minima. */
long quadwell_steps(double *x, const double *noise, double h, double s,
                    long n_substeps, long n_frames, double *out)
{
    const double m1 = -2.0, m2 = -0.7, m3 = 0.8, m4 = 2.1;
    double x0 = x[0];
    long row = 0;
    for (long f = 0; f < n_frames; f++) {
        for (long k = 0; k < n_substeps; k++, row++) {
            double d1 = x0 - m1, d2 = x0 - m2, d3 = x0 - m3, d4 = x0 - m4;
            double p = d1 * d2 * d3 * d4;
            double dp = d2 * d3 * d4 + d1 * d3 * d4 + d1 * d2 * d4 + d1 * d2 * d3;
            double f0 = (-2.0 * 0.25) * (p * dp);
            x0 = x0 + f0 * h + s * noise[row];
            if (!isfinite(x0))
                return row;
        }
        out[f] = x0;
    }
    x[0] = x0;
    return -1;
}
