/* Compiled inner loops of lagtime, called through ctypes.
 *
 * lagtime._native compiles this file on first use and loads it. It holds
 *
 * - the Euler-Maruyama steppers of the double-well and four-well diffusions
 *   (datasets.py),
 * - the scaled forward and backward recursions and the Viterbi recursion of
 *   a hidden Markov model (hmm.py),
 * - the per-step loop of the Markov-chain sampler (markov.py),
 * - the Runge-Kutta steps of the Roessler attractor and of the one fixed,
 *   periodically perturbed Bickley jet (datasets.py), whose constants are
 *   copied here,
 * - the Lloyd iterations of k-means (clustering.py).
 *
 * Each loop has a pure-Python reference next to its caller. Without a C
 * compiler the reference runs instead, and the tests compare the two: the
 * steppers, the Roessler frames, the Viterbi paths and the chain states
 * agree bit for bit, the forward-backward sums to rounding, since NumPy may
 * add in another order. The jet kernel agrees with its reference to a
 * tolerance, not bit for bit: its sin, cos and tanh are libm's, not NumPy's.
 * The Lloyd loop gives the reference's labels, centres and iteration counts
 * wherever no point lies within rounding of two centres: its distances are
 * direct sums of squared differences, not NumPy's product expansion.
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

/* Classical Runge-Kutta steps of the Roessler attractor
 *
 *     (x1', x2', x3') = (-x2 - x3, x1 + a x2, b + x3 (x1 - c)),
 *
 * with a, b and c the constants datasets._ROSSLER_A, _ROSSLER_B and
 * _ROSSLER_C, in the operation order of datasets._rossler_steps, so both
 * paths produce bit-identical frames. frames is (n_steps + 1, 3) with the
 * start in row 0; step k writes row k. Returns -1, or the first step whose
 * state is not finite; it then stops and leaves that row unwritten. */
#define ROSSLER_A 0.1
#define ROSSLER_B 0.1
#define ROSSLER_C 14.0

long rossler_steps(double *frames, long n_steps, double dt)
{
    const double a = ROSSLER_A, b = ROSSLER_B, c = ROSSLER_C;
    double x1 = frames[0], x2 = frames[1], x3 = frames[2];
    const double half = 0.5 * dt, sixth = dt / 6.0;
    for (long k = 1; k <= n_steps; k++) {
        double a1 = -x2 - x3, a2 = x1 + a * x2, a3 = b + x3 * (x1 - c);
        double y1 = x1 + half * a1, y2 = x2 + half * a2, y3 = x3 + half * a3;
        double b1 = -y2 - y3, b2 = y1 + a * y2, b3 = b + y3 * (y1 - c);
        y1 = x1 + half * b1;
        y2 = x2 + half * b2;
        y3 = x3 + half * b3;
        double c1 = -y2 - y3, c2 = y1 + a * y2, c3 = b + y3 * (y1 - c);
        y1 = x1 + dt * c1;
        y2 = x2 + dt * c2;
        y3 = x3 + dt * c3;
        double d1 = -y2 - y3, d2 = y1 + a * y2, d3 = b + y3 * (y1 - c);
        x1 += sixth * (a1 + 2.0 * (b1 + c1) + d1);
        x2 += sixth * (a2 + 2.0 * (b2 + c2) + d2);
        x3 += sixth * (a3 + 2.0 * (b3 + c3) + d3);
        if (!(isfinite(x1) && isfinite(x2) && isfinite(x3)))
            return k;
        frames[3 * k] = x1;
        frames[3 * k + 1] = x2;
        frames[3 * k + 2] = x3;
    }
    return -1;
}

/* Classical Runge-Kutta steps of the perturbed Bickley jet, the loop of
 * datasets._jet_rk4 with the field of datasets.jet_velocity.
 *
 * This kernel matches its reference to a tolerance, not bit for bit: libm's
 * cos, sin and tanh differ from NumPy's by an ulp or so, and stages 2-4
 * rotate stage 1's values through the small stage offset instead of calling
 * libm again. Each expression otherwise keeps the reference's operation
 * order. Particles do not interact, so any split of them into calls gives
 * the same bytes.
 */

/* The one jet: _JET_U0, _JET_L, _JET_AMPLITUDES and _JET_PERIOD of
 * datasets.py, and the wavenumbers (_JET_WAVENUMBERS, k_n = 2 pi n / period
 * for n = 1, 2, 3), wave speeds (_JET_C1, _JET_C2, _JET_C3) and phase rates
 * (_JET_PHASE_RATES) it derives from them, by the same expressions. */
#define JET_U0 5.4138893066379419
#define JET_L 1.77
#define JET_PERIOD 20.0
#define JET_K(n) (2.0 * 3.141592653589793 * (n) / JET_PERIOD)
#define JET_C3 (0.461 * JET_U0)
#define JET_C2 (0.205 * JET_U0)
#define JET_C1 (JET_C3 + ((sqrt(5.0) - 1.0) / 2.0) * (JET_K(2) / JET_K(1)) \
                * (JET_C2 - JET_C3))
static const double jet_amplitudes[3] = {0.0075, 0.15, 0.3};

/* The coefficients of the three waves at one stage time t: amp_i
 * cos/sin(rho_i t), and the same times k_i, as jet_velocity forms them. */
struct jet_stage {
    double ac[3], as[3], kc[3], ks[3];
};

static void jet_stage_at(struct jet_stage *stage, double t)
{
    const double ks[3] = {JET_K(1), JET_K(2), JET_K(3)};
    const double rhos[3] = {ks[0] * (JET_C1 - JET_C3), ks[1] * (JET_C2 - JET_C3),
                            ks[2] * (JET_C3 - JET_C3)};
    for (int i = 0; i < 3; i++) {
        double amp = jet_amplitudes[i], k = ks[i], rho = rhos[i];
        double cr = cos(rho * t), sr = sin(rho * t);
        stage->ac[i] = amp * cr;
        stage->as[i] = amp * sr;
        stage->kc[i] = amp * k * cr;
        stage->ks[i] = amp * k * sr;
    }
}

/* The velocity (u, v) at a point with cos/sin(k1 x) = (c1, s1) and
 * tanh(y / L) = th. Waves 2 and 3 are harmonics 2 and 3 of k1, which follow
 * by angle addition. */
static void jet_field(const struct jet_stage *stage, double c1, double s1, double th,
                      double *u, double *v)
{
    double c2 = c1 * c1 - s1 * s1, s2 = s1 * c1 + c1 * s1;
    double hc[3] = {c1, c2, c2 * c1 - s2 * s1};
    double hs[3] = {s1, s2, s2 * c1 + c2 * s1};
    double wave_cos = 0.0, wave_ksin = 0.0;
    for (int i = 0; i < 3; i++) {
        wave_cos += stage->ac[i] * hc[i] + stage->as[i] * hs[i];
        wave_ksin += stage->kc[i] * hs[i] - stage->ks[i] * hc[i];
    }
    double sech2 = 1.0 - th * th;
    *u = -JET_C3 + JET_U0 * sech2 * (1.0 + 2.0 * th * wave_cos);
    *v = -JET_U0 * JET_L * sech2 * wave_ksin;
}

/* Offsets up to SMALL take their sin, cos and tanh from Taylor series,
 * whose first omitted term is below 1e-16 relative there. */
#define SMALL 0.05

/* (c, s, th) at the stage point (xs, ys), given (c0, s0, th0) at (x, y):
 * cos/sin by angle addition, tanh(a + b) = (tanh a + tanh b) / (1 + tanh a
 * tanh b). The offsets are taken between the rounded points, where the
 * reference evaluates the field. */
static void jet_shift(double x, double y, double c0, double s0, double th0, double xs,
                      double ys, double *c, double *s, double *th)
{
    double e = JET_K(1) * (xs - x);
    if (fabs(e) <= SMALL) {
        double e2 = e * e;
        double se = e * (1.0 + e2 * (-1.0 / 6.0 + e2 * (1.0 / 120.0 + e2 * (-1.0 / 5040.0
                    + e2 * (1.0 / 362880.0)))));
        double ce = 1.0 + e2 * (-1.0 / 2.0 + e2 * (1.0 / 24.0 + e2 * (-1.0 / 720.0
                    + e2 * (1.0 / 40320.0))));
        *c = c0 * ce - s0 * se;
        *s = s0 * ce + c0 * se;
    } else {
        double phase = JET_K(1) * xs;
        *c = cos(phase);
        *s = sin(phase);
    }
    double f = (ys - y) / JET_L;
    if (fabs(f) <= SMALL) {
        double f2 = f * f;
        double tf = f * (1.0 + f2 * (-1.0 / 3.0 + f2 * (2.0 / 15.0 + f2 * (-17.0 / 315.0
                    + f2 * (62.0 / 2835.0 + f2 * (-1382.0 / 155925.0))))));
        *th = (th0 + tf) / (1.0 + th0 * tf);
    } else {
        *th = tanh(ys / JET_L);
    }
}

/* x % JET_PERIOD as NumPy takes it: fmod, moved into [0, period] when
 * negative, and +0 for a zero result. The first three cases give the same
 * value without the division. */
static double jet_wrap(double x)
{
    double less = x - JET_PERIOD;
    if (x >= 0.0 && x < JET_PERIOD)
        return x + 0.0;
    if (x >= JET_PERIOD && less < JET_PERIOD)
        return less;
    if (x < 0.0 && x > -JET_PERIOD)
        return x + JET_PERIOD;
    double mod = fmod(x, JET_PERIOD);
    if (mod == 0.0)
        return 0.0;
    return mod < 0.0 ? mod + JET_PERIOD : mod;
}

/* Advance the n particles of X (n, 2) by n_steps steps of h from t0, in
 * place; x is wrapped into [0, period) after every step. Returns -1, or the
 * first step (from 1) after which a particle is not finite; it then stops
 * and leaves X partly advanced. */
long jet_rk4_steps(double *X, long n, double t0, double h, long n_steps)
{
    for (long step = 0; step < n_steps; step++) {
        double t = t0 + (double)step * h;
        struct jet_stage start, middle, end;
        jet_stage_at(&start, t);
        jet_stage_at(&middle, t + 0.5 * h);
        jet_stage_at(&end, t + h);
        for (long p = 0; p < n; p++) {
            double x = X[2 * p], y = X[2 * p + 1];
            double u1, v1, u2, v2, u3, v3, u4, v4, c, s, th;
            double phase = JET_K(1) * x;
            double c0 = cos(phase), s0 = sin(phase), th0 = tanh(y / JET_L);
            jet_field(&start, c0, s0, th0, &u1, &v1);
            jet_shift(x, y, c0, s0, th0, x + (0.5 * h) * u1, y + (0.5 * h) * v1, &c, &s, &th);
            jet_field(&middle, c, s, th, &u2, &v2);
            jet_shift(x, y, c0, s0, th0, x + (0.5 * h) * u2, y + (0.5 * h) * v2, &c, &s, &th);
            jet_field(&middle, c, s, th, &u3, &v3);
            jet_shift(x, y, c0, s0, th0, x + h * u3, y + h * v3, &c, &s, &th);
            jet_field(&end, c, s, th, &u4, &v4);
            x = jet_wrap(x + (h / 6.0) * (u1 + 2.0 * u2 + 2.0 * u3 + u4));
            y = y + (h / 6.0) * (v1 + 2.0 * v2 + 2.0 * v3 + v4);
            if (!(isfinite(x) && isfinite(y)))
                return step + 1;
            X[2 * p] = x;
            X[2 * p + 1] = y;
        }
    }
    return -1;
}

/* NumPy's pairwise sum of a contiguous vector (pairwise_sum_DOUBLE, which
 * np.sum and np.mean use along a contiguous axis): eight running sums over
 * blocks of at most 128 values, and above that two halves split at a
 * multiple of eight. */
static double pairwise_sum(const double *a, long n)
{
    if (n < 8) {
        double res = 0.0;
        for (long i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        long i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    long half = n / 2;
    half -= half % 8;
    return pairwise_sum(a, half) + pairwise_sum(a + half, n - half);
}

/* Lloyd iterations from the k centres c (k, d), in place, as _lloyd in
 * clustering.py runs them: each point goes to its first nearest centre; a
 * centre becomes the mean of its points, summed in row order and divided by
 * the count (a single column summed pairwise, as np.mean does); an empty
 * cluster takes the point farthest from its own centre, whose distance then
 * counts as zero. The loop stops when no centre coordinate moves more than
 * tol, or when the inertia falls by no more than tol relative to the last
 * one. Returns the iteration count and sets *converged. labels, counts and
 * ends hold n, k and k entries; mind, fresh and column n, k * d and n. */
static long lloyd(const double *X, long n, long d, long k, long max_iter, double tol,
                  double *c, int64_t *converged, int64_t *labels, int64_t *counts,
                  int64_t *ends, double *mind, double *fresh, double *column)
{
    double prev = INFINITY;
    long iterations = 0;
    *converged = 0;
    for (long it = 1; it <= max_iter; it++) {
        iterations = it;
        for (long j = 0; j < k; j++)
            counts[j] = 0;
        for (long i = 0; i < n; i++) {
            const double *x = X + i * d;
            long best = 0;
            double least = INFINITY;
            for (long j = 0; j < k; j++) {
                const double *m = c + j * d;
                double s = 0.0;
                for (long e = 0; e < d; e++) {
                    double diff = x[e] - m[e];
                    s += diff * diff;
                }
                best = s < least ? j : best;
                least = s < least ? s : least;
            }
            labels[i] = best;
            mind[i] = least;
            counts[best]++;
        }
        double inertia = pairwise_sum(mind, n);
        for (long e = 0; e < k * d; e++)
            fresh[e] = 0.0;
        if (d == 1) {
            /* Gather each cluster's values in row order, then sum them. */
            long end = 0;
            for (long j = 0; j < k; j++)
                ends[j] = end += counts[j];
            for (long i = n - 1; i >= 0; i--)
                column[--ends[labels[i]]] = X[i];
            for (long j = 0; j < k; j++)
                fresh[j] += pairwise_sum(column + ends[j], counts[j]);
        } else {
            for (long i = 0; i < n; i++)
                for (long e = 0; e < d; e++)
                    fresh[labels[i] * d + e] += X[i * d + e];
        }
        for (long j = 0; j < k; j++) {
            double *f = fresh + j * d;
            if (counts[j] == 0) {
                long far = 0;
                for (long i = 1; i < n; i++)
                    if (mind[i] > mind[far])
                        far = i;
                for (long e = 0; e < d; e++)
                    f[e] = X[far * d + e];
                mind[far] = 0.0;
            } else {
                for (long e = 0; e < d; e++)
                    f[e] /= (double)counts[j];
            }
        }
        double shift = 0.0;
        for (long e = 0; e < k * d; e++) {
            double delta = fabs(fresh[e] - c[e]);
            if (delta > shift)
                shift = delta;
            c[e] = fresh[e];
        }
        if (shift <= tol || (isfinite(prev) && prev - inertia <= tol * fmax(1.0, fabs(prev)))) {
            *converged = 1;
            break;
        }
        prev = inertia;
    }
    return iterations;
}

/* Lloyd iterations of n_restarts k-means restarts on the points X (n, d),
 * one after another. centers (n_restarts, k, d) holds the starts and
 * receives the results; info (n_restarts, 2) receives each restart's
 * iteration count and whether it converged. scratch and work hold n + 2 * k
 * and 2 * n + k * d entries. */
void kmeans_lloyd(const double *X, long n, long d, long k, long n_restarts,
                  long max_iter, double tol, double *centers, int64_t *info,
                  int64_t *scratch, double *work)
{
    for (long r = 0; r < n_restarts; r++)
        info[2 * r] = lloyd(X, n, d, k, max_iter, tol, centers + r * k * d, info + 2 * r + 1,
                            scratch, scratch + n, scratch + n + k,
                            work, work + n, work + n + k * d);
}
