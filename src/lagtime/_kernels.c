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
 * Each loop has a pure-Python reference next to its caller, which adds in
 * the loop's order wherever it sums and takes sin, cos and tanh from libm
 * where the loop does. Without a C compiler the reference runs instead, and
 * the tests compare the two bit for bit.
 *
 * Matrices are row-major. Scratch buffers come from the caller, so no size
 * is fixed here. The build (_native._KERNEL_FLAGS) is -O2 with
 * -fopenmp-simd, under which the compiler vectorizes the one loop marked
 * "omp simd", and with -ffp-contract=off and no fast-math flag: every loop,
 * vectorized or not, computes in source order, which the bit-for-bit claims
 * above rest on.
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

/* Classical Runge-Kutta steps of the perturbed Bickley jet, with the field
 * of datasets.jet_velocity. datasets._jet_rk4 transcribes this loop in
 * NumPy, function for function, and gives its bytes.
 *
 * The field needs cos and sin of k1 x and tanh(y / L) at every stage point.
 * A particle carries these stage-1 values from one step to the next: the
 * next step's values follow from this step's by the Taylor rotation of
 * jet_shift through the step's offset, as do the values at stages 2-4.
 * libm's cos, sin and tanh run only where an offset leaves the series'
 * range, where the wrap moves x by more than a period, and at every
 * JET_RESYNC-th step for every particle, so that the rotations' rounding
 * cannot drift. Particles do not interact and every call resyncs at the
 * same steps, so any split of them into calls gives the same bytes.
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
 * cos/sin(rho_i t), and the same times k_i, as datasets._jet_stage forms
 * them. */
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

/* The field, the shift and the step are inlined whatever the optimizer's
 * estimate, so that the first pass of jet_rk4_steps holds no call. */
#define JET_INLINE static inline __attribute__((always_inline))

/* The velocity (u, v) at a point with cos/sin(k1 x) = (c1, s1) and
 * tanh(y / L) = th. Waves 2 and 3 are harmonics 2 and 3 of k1, which follow
 * by angle addition. The sum over the waves is written out: GCC vectorizes
 * the particle loop of jet_rk4_steps only then. */
JET_INLINE void jet_field(const struct jet_stage *stage, double c1, double s1, double th,
                          double *u, double *v)
{
    double c2 = c1 * c1 - s1 * s1, s2 = s1 * c1 + c1 * s1;
    double c3 = c2 * c1 - s2 * s1, s3 = s2 * c1 + c2 * s1;
    double wave_cos = stage->ac[0] * c1 + stage->as[0] * s1;
    wave_cos += stage->ac[1] * c2 + stage->as[1] * s2;
    wave_cos += stage->ac[2] * c3 + stage->as[2] * s3;
    double wave_ksin = stage->kc[0] * s1 - stage->ks[0] * c1;
    wave_ksin += stage->kc[1] * s2 - stage->ks[1] * c2;
    wave_ksin += stage->kc[2] * s3 - stage->ks[2] * c3;
    double sech2 = 1.0 - th * th;
    *u = -JET_C3 + JET_U0 * sech2 * (1.0 + 2.0 * th * wave_cos);
    *v = -JET_U0 * JET_L * sech2 * wave_ksin;
}

/* Offsets up to SMALL take their sin, cos and tanh from Taylor series,
 * whose first omitted term is below 1e-16 relative there. */
#define SMALL 0.05

/* Every JET_RESYNC-th step takes every particle's stage-1 values from libm
 * again. The rotations' rounding grows with the steps between two resyncs:
 * over t 0 -> 40 at h = 0.01, the median deviation from plain RK4 steps
 * with the field from NumPy's sin, cos and tanh is 3.6e-13 at 64 and
 * 6.2e-13 at 256, against the tests' bound of 1e-12 on that deviation. */
#define JET_RESYNC 64

/* (c, s, th) at the stage point (xs, ys), given (c0, s0, th0) at (x, y):
 * cos/sin by angle addition, tanh(a + b) = (tanh a + tanh b) / (1 + tanh a
 * tanh b). The offsets are taken between the rounded points, where the
 * field is evaluated. Returns 1 where an offset is beyond SMALL
 * or not a number, else 0. There the series' values are wrong: with exact
 * set, libm's replace them; without it, no branch is taken and the caller
 * must discard the result. */
JET_INLINE double jet_shift(int exact, double x, double y, double c0, double s0, double th0,
                            double xs, double ys, double *c, double *s, double *th)
{
    double e = JET_K(1) * (xs - x), f = (ys - y) / JET_L;
    double e2 = e * e, f2 = f * f;
    double se = e * (1.0 + e2 * (-1.0 / 6.0 + e2 * (1.0 / 120.0 + e2 * (-1.0 / 5040.0
                + e2 * (1.0 / 362880.0)))));
    double ce = 1.0 + e2 * (-1.0 / 2.0 + e2 * (1.0 / 24.0 + e2 * (-1.0 / 720.0
                + e2 * (1.0 / 40320.0))));
    double tf = f * (1.0 + f2 * (-1.0 / 3.0 + f2 * (2.0 / 15.0 + f2 * (-17.0 / 315.0
                + f2 * (62.0 / 2835.0 + f2 * (-1382.0 / 155925.0))))));
    *c = c0 * ce - s0 * se;
    *s = s0 * ce + c0 * se;
    *th = (th0 + tf) / (1.0 + th0 * tf);
    int far_x = !(fabs(e) <= SMALL), far_y = !(fabs(f) <= SMALL);
    if (exact && far_x) {
        *c = cos(JET_K(1) * xs);
        *s = sin(JET_K(1) * xs);
    }
    if (exact && far_y)
        *th = tanh(ys / JET_L);
    return far_x | far_y ? 1.0 : 0.0;
}

/* One Runge-Kutta step of the particle at (x, y), whose stage-1 values are
 * (*c, *s, *th) on entry. The new point, before the wrap, goes to
 * (*xn, *yn), and the stage-1 values there, shifted through the step's
 * offset, to (*c, *s, *th). Returns the number of offsets beyond SMALL, as
 * jet_shift counts them. stages holds the coefficients at t, t + h / 2 and
 * t + h. */
JET_INLINE double jet_step(int exact, const struct jet_stage *stages, double h, double x,
                           double y, double *c, double *s, double *th, double *xn, double *yn)
{
    double c0 = *c, s0 = *s, th0 = *th, c1, s1, th1, u1, v1, u2, v2, u3, v3, u4, v4;
    jet_field(stages, c0, s0, th0, &u1, &v1);
    double far = jet_shift(exact, x, y, c0, s0, th0, x + (0.5 * h) * u1, y + (0.5 * h) * v1,
                           &c1, &s1, &th1);
    jet_field(stages + 1, c1, s1, th1, &u2, &v2);
    far += jet_shift(exact, x, y, c0, s0, th0, x + (0.5 * h) * u2, y + (0.5 * h) * v2,
                     &c1, &s1, &th1);
    jet_field(stages + 1, c1, s1, th1, &u3, &v3);
    far += jet_shift(exact, x, y, c0, s0, th0, x + h * u3, y + h * v3, &c1, &s1, &th1);
    jet_field(stages + 2, c1, s1, th1, &u4, &v4);
    double x1 = x + (h / 6.0) * (u1 + 2.0 * u2 + 2.0 * u3 + u4);
    double y1 = y + (h / 6.0) * (v1 + 2.0 * v2 + 2.0 * v3 + v4);
    *xn = x1;
    *yn = y1;
    return far + jet_shift(exact, x, y, c0, s0, th0, x1, y1, c, s, th);
}

/* The stage-1 values at (x, y) from libm. */
static void jet_sync(double x, double y, double *c, double *s, double *th)
{
    double phase = JET_K(1) * x;
    *c = cos(phase);
    *s = sin(phase);
    *th = tanh(y / JET_L);
}

/* x % JET_PERIOD as NumPy takes it: fmod, moved into [0, period] when
 * negative, and +0 for a zero result. The first three cases give the same
 * value without the division; *far is set where none of them applies, so
 * the result may lie more than a period from x. */
static double jet_wrap(double x, int *far)
{
    double less = x - JET_PERIOD;
    *far = 0;
    if (x >= 0.0 && x < JET_PERIOD)
        return x + 0.0;
    if (x >= JET_PERIOD && less < JET_PERIOD)
        return less;
    if (x < 0.0 && x > -JET_PERIOD)
        return x + JET_PERIOD;
    *far = 1;
    double mod = fmod(x, JET_PERIOD);
    if (mod == 0.0)
        return 0.0;
    return mod < 0.0 ? mod + JET_PERIOD : mod;
}

/* Advance the n particles of X (n, 2) by n_steps steps of h from t0, in
 * place; x is wrapped into [0, period) after every step. scratch holds 6 n
 * doubles: the particles' stage-1 values (c, s, th), their new points
 * before the wrap (xn, yn), and far, jet_step's count of offsets beyond
 * SMALL.
 *
 * Each step makes two passes. The first steps every particle on the series
 * alone, with no call and no branch; its "omp simd" (honoured under
 * -fopenmp-simd, which turns on no other OpenMP feature) has the compiler
 * vectorize it, where -O2's cost model would not. The second steps again,
 * by jet_shift's libm path from libm's stage-1 values, each particle whose
 * far count is not zero, then wraps every x and checks it. Returns -1, or
 * the first step (from 1) after which a particle is not finite; it then
 * stops and leaves X partly advanced. */
long jet_rk4_steps(double *X, long n, double t0, double h, long n_steps, double *scratch)
{
    double *c = scratch, *s = scratch + n, *th = scratch + 2 * n;
    double *xn = scratch + 3 * n, *yn = scratch + 4 * n, *far = scratch + 5 * n;
    for (long step = 0; step < n_steps; step++) {
        double t = t0 + (double)step * h;
        struct jet_stage stages[3];
        jet_stage_at(&stages[0], t);
        jet_stage_at(&stages[1], t + 0.5 * h);
        jet_stage_at(&stages[2], t + h);
        if (step % JET_RESYNC == 0)
            for (long p = 0; p < n; p++)
                jet_sync(X[2 * p], X[2 * p + 1], &c[p], &s[p], &th[p]);
#pragma omp simd
        for (long p = 0; p < n; p++)
            far[p] = jet_step(0, stages, h, X[2 * p], X[2 * p + 1], &c[p], &s[p], &th[p],
                              &xn[p], &yn[p]);
        for (long p = 0; p < n; p++) {
            double x = X[2 * p], y = X[2 * p + 1];
            int wrapped_far;
            if (far[p] != 0.0) {
                jet_sync(x, y, &c[p], &s[p], &th[p]);
                jet_step(1, stages, h, x, y, &c[p], &s[p], &th[p], &xn[p], &yn[p]);
            }
            x = jet_wrap(xn[p], &wrapped_far);
            y = yn[p];
            if (!(isfinite(x) && isfinite(y)))
                return step + 1;
            X[2 * p] = x;
            X[2 * p + 1] = y;
            if (wrapped_far)
                jet_sync(x, y, &c[p], &s[p], &th[p]);
        }
    }
    return -1;
}

/* Lloyd iterations from the k centres c (k, d), in place, the loop that
 * _lloyd in clustering.py writes in NumPy: each point goes to its first
 * nearest centre, the squared distance summed over the dimensions in order,
 * and the least distances, summed in row order, give the inertia; a centre
 * becomes the sum of its points in row order, divided by the count; an
 * empty cluster takes the point farthest from its own centre, whose
 * distance then counts as zero. The loop stops when no centre coordinate
 * moves more than tol, or when the inertia falls by no more than tol
 * relative to the last one. Returns the iteration count and sets
 * *converged. labels and counts hold n and k entries, mind and fresh n and
 * k * d. */
static long lloyd(const double *X, long n, long d, long k, long max_iter, double tol,
                  double *c, int64_t *converged, int64_t *labels, int64_t *counts,
                  double *mind, double *fresh)
{
    double prev = INFINITY;
    long iterations = 0;
    *converged = 0;
    for (long it = 1; it <= max_iter; it++) {
        iterations = it;
        double inertia = 0.0;
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
            inertia += least;
        }
        for (long e = 0; e < k * d; e++)
            fresh[e] = 0.0;
        for (long i = 0; i < n; i++)
            for (long e = 0; e < d; e++)
                fresh[labels[i] * d + e] += X[i * d + e];
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
 * iteration count and whether it converged. scratch and work hold n + k
 * and n + k * d entries. */
void kmeans_lloyd(const double *X, long n, long d, long k, long n_restarts,
                  long max_iter, double tol, double *centers, int64_t *info,
                  int64_t *scratch, double *work)
{
    for (long r = 0; r < n_restarts; r++)
        info[2 * r] = lloyd(X, n, d, k, max_iter, tol, centers + r * k * d, info + 2 * r + 1,
                            scratch, scratch + n, work, work + n);
}
