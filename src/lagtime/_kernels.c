/* Compiled inner loops of lagtime, called through ctypes.
 *
 * lagtime._native compiles this file on first use and loads it. It holds
 *
 * - the Euler-Maruyama steppers of the double-well and four-well diffusions
 *   (datasets.py),
 * - the scaled forward and backward recursions and the Viterbi recursion of
 *   a hidden Markov model (hmm.py),
 * - the per-step loop of the Markov-chain sampler (markov.py).
 *
 * Each loop has a pure-Python reference next to its caller. Without a C
 * compiler the reference runs instead, and the tests compare the two: the
 * steppers, the Viterbi paths and the chain states agree bit for bit, the
 * forward-backward sums to rounding, since NumPy may add in another order.
 *
 * Matrices are row-major. Scratch buffers come from the caller, so no size
 * is fixed here.
 */
#include <math.h>
#include <stdint.h>

/* Every expression of the steppers keeps the operation order of the NumPy
 * reference path (euler_maruyama with the systems' drift functions), and the
 * build turns off contraction into fused multiply-adds, so both paths
 * produce bit-identical frames from the same noise.
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

/* Scaled forward recursion over T frames of an n-state model:
 *
 *     alpha_0 = pi * b_0,   alpha_t = (alpha_{t-1} P) * b_t,
 *
 * each divided by its sum c_t, which goes to scales[t]. b holds the shifted
 * emission likelihoods, shape (T, n). Returns -1, or the first frame whose
 * scale is not positive and finite; it then stops there. */
long hmm_forward(const double *pi, const double *P, const double *b,
                 long T, long n, double *alphas, double *scales)
{
    for (long t = 0; t < T; t++) {
        double *alpha = alphas + t * n;
        if (t == 0) {
            for (long j = 0; j < n; j++)
                alpha[j] = pi[j];
        } else {
            const double *prev = alpha - n;
            for (long j = 0; j < n; j++)
                alpha[j] = 0.0;
            for (long i = 0; i < n; i++)
                for (long j = 0; j < n; j++)
                    alpha[j] += prev[i] * P[i * n + j];
        }
        double s = 0.0;
        for (long j = 0; j < n; j++) {
            alpha[j] *= b[t * n + j];
            s += alpha[j];
        }
        if (!(s > 0.0 && isfinite(s)))
            return t;
        scales[t] = s;
        for (long j = 0; j < n; j++)
            alpha[j] /= s;
    }
    return -1;
}

/* Scaled backward recursion: beta_{T-1} = 1 and
 *
 *     beta_t = P (b_{t+1} * beta_{t+1}) / c_{t+1},
 *
 * with the scales c from hmm_forward. w is scratch of length n. */
void hmm_backward(const double *P, const double *b, const double *scales,
                  long T, long n, double *betas, double *w)
{
    for (long j = 0; j < n; j++)
        betas[(T - 1) * n + j] = 1.0;
    for (long t = T - 2; t >= 0; t--) {
        const double *next = betas + (t + 1) * n;
        double *beta = betas + t * n;
        for (long j = 0; j < n; j++)
            w[j] = b[(t + 1) * n + j] * next[j];
        for (long i = 0; i < n; i++) {
            double s = 0.0;
            for (long j = 0; j < n; j++)
                s += P[i * n + j] * w[j];
            beta[i] = s / scales[t + 1];
        }
    }
}

/* Log-space Viterbi recursion and backtrace over T frames of an n-state
 * model: delta_0 = logpi + logb_0 and
 *
 *     delta_t[j] = max_i (delta_{t-1}[i] + logP[i, j]) + logb_t[j].
 *
 * The maximum is taken with a strict >, so ties go to the lower index, as
 * np.argmax breaks them. The caller rejects frames that are impossible under
 * every state, so no NaN reaches a comparison. back (T, n) and delta (2 n)
 * are scratch; the most probable path goes to path. */
void hmm_viterbi(const double *logpi, const double *logP, const double *logb,
                 long T, long n, int64_t *back, double *delta, int64_t *path)
{
    double *cur = delta, *next = delta + n;
    for (long j = 0; j < n; j++)
        cur[j] = logpi[j] + logb[j];
    for (long t = 1; t < T; t++) {
        for (long j = 0; j < n; j++) {
            long best = 0;
            double top = cur[0] + logP[j];
            for (long i = 1; i < n; i++) {
                double c = cur[i] + logP[i * n + j];
                if (c > top) {
                    top = c;
                    best = i;
                }
            }
            back[t * n + j] = best;
            next[j] = top + logb[t * n + j];
        }
        double *swap = cur;
        cur = next;
        next = swap;
    }
    long best = 0;
    for (long j = 1; j < n; j++)
        if (cur[j] > cur[best])
            best = j;
    path[T - 1] = best;
    for (long t = T - 1; t > 0; t--)
        path[t - 1] = back[t * n + path[t]];
}

/* Markov-chain steps: given states[0], state t is the number of entries of
 * row states[t-1] of cdf (n, n) that are <= u[t-1], which is where
 * np.searchsorted(row, u, side="right") puts u in a sorted row. The caller
 * sets the last entry of each row to 1, above every u in [0, 1), so every
 * state stays below n. */
void markov_chain_steps(const double *cdf, long n, const double *u,
                        long length, int64_t *states)
{
    for (long t = 1; t < length; t++) {
        const double *row = cdf + states[t - 1] * n;
        long k = 0;
        for (long j = 0; j < n; j++)
            k += row[j] <= u[t - 1];
        states[t] = k;
    }
}
