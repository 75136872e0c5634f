/* Compiled copies of three Python loops of simplexflow: dynamics.iterate's
 * loop, in both domains and with its auto switch, run from its start; the
 * step of ode.reference_path; and analysis.CesaroState.push. Also the row
 * writer of cli.cmd_simulate, whose floats are written as Python's repr
 * writes them (at the end of this file).
 *
 * Each loop is a line-by-line transliteration of its Python original, with
 * the same operations in the same order, so it returns the same bits; a
 * formula that the Python code repeats per coordinate (the linear and the
 * log update) or per arity (log_sum_exp) has one helper here. The
 * linear steps, the RK4 and the Cesaro loops use only IEEE-754 double + - *
 * / and comparisons. The auto switch calls log, and the log steps exp, log
 * and log1p, from the libm that Python's math module calls, the same
 * symbols in the same process, so both get the same variant of each. This
 * holds only when the compiler neither contracts a*b+c into a fused
 * multiply-add nor reassociates: kernel.py builds with -O2
 * -ffp-contract=off -fno-fast-math.
 *
 * A step that the Python loop would finish in a way this file does not copy
 * (a factor that stays non-positive, a sum that is not finite or is zero, a
 * log that is NaN, +inf or positive) is left undone: the loop returns the
 * state before that step, and Python runs the rest of the run from there.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

/* math.fsum of three doubles, ported from CPython's math_fsum: Shewchuk's
 * partials, then the half-even correction across partials. Both are
 * correctly rounded, so the sums are equal. Returns 0 and stores the sum,
 * or returns -1 where math.fsum would return a non-finite value or raise (a
 * non-finite summand, intermediate overflow). */
int sf_fsum3(const double v[3], double *out)
{
    double p[3], x, y, t, hi, yr, lo = 0.0;
    int i, j, m, n = 0;

    for (m = 0; m < 3; m++) {
        x = v[m];
        for (i = j = 0; j < n; j++) {
            y = p[j];
            if (fabs(x) < fabs(y)) {
                t = x;
                x = y;
                y = t;
            }
            hi = x + y;
            yr = hi - x;
            lo = y - yr;
            if (lo != 0.0)
                p[i++] = lo;
            x = hi;
        }
        n = i;
        if (x != 0.0) {
            if (!isfinite(x))
                return -1;
            p[n++] = x;
        }
    }
    hi = 0.0;
    if (n > 0) {
        hi = p[--n];
        while (n > 0) {
            x = hi;
            y = p[--n];
            hi = x + y;
            yr = hi - x;
            lo = y - yr;
            if (lo != 0.0)
                break;
        }
        if (n > 0 && ((lo < 0.0 && p[n - 1] < 0.0) || (lo > 0.0 && p[n - 1] > 0.0))) {
            y = lo * 2.0;
            x = hi + y;
            yr = x - hi;
            if (y == yr)
                hi = x;
        }
    }
    *out = hi;
    return 0;
}

/* Whether the speed sp[0] + sp[1] x1 + sp[2] x2 + sp[3] x3 has a slope. At
 * finite coordinates a zero slope adds a zero to sp[0] > 0, which leaves its
 * bits, so a speed without one is ConstantSpeed(sp[0]). */
static int has_slope(const double sp[4])
{
    return sp[1] != 0.0 || sp[2] != 0.0 || sp[3] != 0.0;
}

/* ConstantSpeed, or AffineSpeed.__call__ in Python's order when affine. */
static double speed(const double sp[4], int affine, double x1, double x2, double x3)
{
    return affine ? sp[0] + sp[1] * x1 + sp[2] * x2 + sp[3] * x3 : sp[0];
}

/* dynamics._split_factor */
static double split_factor(double fval, double alpha, double xp, double xq, double beta, double xr)
{
    double fb = fval * beta;
    return (1.0 - fb) + fb * (xp + xq) * (1.0 + xr) + fval * alpha * xp * xq;
}

/* xp times its factor, as dynamics.iterate's linear update takes it: 0 for a
 * dead xp, else the direct factor, rebuilt by the split when it is not
 * positive. Returns 0 when the rebuilt factor is not positive either. */
static inline int linear_update(double *out, double fval, double alpha, double xp,
                                double xq, double beta, double xr)
{
    double u;

    if (xp == 0.0) {
        *out = 0.0;
        return 1;
    }
    u = 1.0 + (alpha * xp * xq - beta * xr * xr) * fval;
    if (u <= 0.0) {
        u = split_factor(fval, alpha, xp, xq, beta, xr);
        if (u <= 0.0)
            return 0;
    }
    *out = xp * u;
    return 1;
}

/* simplex.log_sum_exp of (u, v, w), -inf for none, NAN where fsum declines;
 * Python's max keeps the first of equal values. A sum of two passes w =
 * -inf, whose exp(w - m) is the 0.0 stored here without a call; fsum ignores
 * a zero summand. */
static inline double log_sum_exp(double u, double v, double w)
{
    double m = u, e[3], s;

    if (v > m)
        m = v;
    if (w > m)
        m = w;
    if (m == -INFINITY)
        return -INFINITY;
    e[0] = exp(u - m);
    e[1] = exp(v - m);
    e[2] = w == -INFINITY ? 0.0 : exp(w - m);
    if (sf_fsum3(e, &s) != 0)
        return NAN;
    return m + log(s);
}

/* dynamics._log_factor. Returns 0 where Python would raise: math.log of an
 * f*beta or f*|alpha| that is not positive, or a factor that is not
 * positive (m = -inf, acc <= 0), and where fsum declines. */
static int log_factor(double *out, double fval, double alpha, double lp, double lq, double beta,
                      double lr)
{
    double fb = fval * beta, t1, t2, t3, m, e[3], acc;

    if (!(fb > 0.0) || !(fval * fabs(alpha) > 0.0)) /* math.log would raise */
        return 0;
    t1 = fb < 1.0 ? log1p(-fb) : -INFINITY;
    t2 = log(fb) + log_sum_exp(lp, lq, -INFINITY) + log1p(exp(lr));
    t3 = log(fval * fabs(alpha)) + lp + lq;
    m = t1;
    if (t2 > m)
        m = t2;
    if (t3 > m)
        m = t3;
    if (m == -INFINITY)
        return 0;
    e[0] = exp(t1 - m);
    e[1] = exp(t2 - m);
    e[2] = copysign(exp(t3 - m), alpha);
    if (sf_fsum3(e, &acc) != 0 || acc <= 0.0)
        return 0;
    *out = m + log(acc);
    return 1;
}

/* l + the log of one live coordinate's factor, as dynamics._step_log takes
 * it: log1p of the direct form above -0.5, else the rebuilt factor. The log
 * twin of linear_update. */
static int log_update(double *out, double fval, double alpha, double lp, double lq, double beta,
                      double lr)
{
    double t, u;

    if (lp == -INFINITY) {
        *out = -INFINITY;
        return 1;
    }
    t = fval * (alpha * exp(lp + lq) - beta * exp(2.0 * lr));
    if (t > -0.5) {
        u = log1p(t);
    } else if (!log_factor(&u, fval, alpha, lp, lq, beta, lr)) {
        return 0;
    }
    *out = lp + u;
    return 1;
}

/* Records the state after step n as sample *k when step n is due, with its
 * logs in the log domain (log_from >= 0). */
static inline void sample(int64_t n, int64_t *k, int64_t *next_sample, int64_t stride,
                          int64_t n_steps, int64_t *steps, double *coords, double *logs,
                          int64_t log_from, double x1, double x2, double x3, double l1,
                          double l2, double l3)
{
    int64_t j = 3 * *k;

    if (n != *next_sample)
        return;
    steps[*k] = n;
    coords[j] = x1;
    coords[j + 1] = x2;
    coords[j + 2] = x3;
    if (log_from >= 0) {
        logs[j] = l1;
        logs[j + 1] = l2;
        logs[j + 2] = l3;
    }
    ++*k;
    *next_sample += stride;
    if (*next_sample > n_steps)
        *next_sample = n_steps;
}

/* dynamics.iterate's loop from the start s = (x1, x2, x3, l1, l2, l3), in the
 * log domain from step 0 when log_start is set. Sample 0, the start, is the
 * caller's; the samples after it go to steps[k] and coords[3k..3k+2], k >= 1,
 * and in the log domain their logs to logs[3k..3k+2]. A linear step that
 * takes a positive coordinate below tiny is the auto switch (tiny is 0
 * outside auto mode): the logs of the new coordinates are math.log's, or
 * -inf. Log steps run only when log_ok is set. On return s holds the state
 * after the last step taken and rec the steps done, the samples recorded,
 * the step of the next sample and log_domain_from (-1 for a run that stayed
 * linear); fewer steps done than n_steps leave the next step to Python. Each
 * domain has its own loop: a branch on the domain in every step made a 34 ns
 * linear step take 37 ns (gcc 12, a 2-CPU AVX-512 Xeon VM). */
void sf_iterate(double a, double b, double c, const double sp[4], double tiny, int log_ok,
                double s[6], int log_start, int64_t n_steps, int64_t stride, int64_t *steps,
                double *coords, double *logs, int64_t rec[4])
{
    double x1 = s[0], x2 = s[1], x3 = s[2], l1 = s[3], l2 = s[4], l3 = s[5];
    double fval, y[3], sum, m1, m2, m3, z;
    int64_t n = 0, k = 1, next_sample = stride < n_steps ? stride : n_steps;
    int64_t log_from = log_start ? 0 : -1;
    int affine = has_slope(sp);

    while (log_from < 0 && n < n_steps) {
        fval = speed(sp, affine, x1, x2, x3);
        if (!linear_update(&y[0], fval, a, x1, x2, b, x3)
            || !linear_update(&y[1], fval, c, x2, x3, a, x1)
            || !linear_update(&y[2], fval, b, x3, x1, c, x2))
            break;
        if (sf_fsum3(y, &sum) != 0 || sum == 0.0)
            break;
        x1 = y[0] / sum;
        x2 = y[1] / sum;
        x3 = y[2] / sum;
        n++;
        if ((0.0 < x1 && x1 < tiny) || (0.0 < x2 && x2 < tiny) || (0.0 < x3 && x3 < tiny)) {
            log_from = n;
            l1 = x1 > 0.0 ? log(x1) : -INFINITY;
            l2 = x2 > 0.0 ? log(x2) : -INFINITY;
            l3 = x3 > 0.0 ? log(x3) : -INFINITY;
        }
        sample(n, &k, &next_sample, stride, n_steps, steps, coords, logs, log_from, x1, x2, x3,
               l1, l2, l3);
    }
    /* a log that is NaN, +inf or positive (where Python's exp can overflow)
     * or a speed that is not finite and positive hands the step back, as do
     * the failures of log_factor and a sum with every species dead, where
     * Python's differences are NaN */
    while (log_from >= 0 && log_ok && n < n_steps) {
        if (!(l1 <= 0.0 && l2 <= 0.0 && l3 <= 0.0))
            break;
        fval = speed(sp, affine, x1, x2, x3);
        if (!(fval > 0.0 && fval < INFINITY))
            break;
        if (!log_update(&m1, fval, a, l1, l2, b, l3) || !log_update(&m2, fval, c, l2, l3, a, l1)
            || !log_update(&m3, fval, b, l3, l1, c, l2))
            break;
        z = log_sum_exp(m1, m2, m3);
        if (!(z > -INFINITY)) /* -inf or NAN */
            break;
        l1 = m1 - z;
        l2 = m2 - z;
        l3 = m3 - z;
        x1 = exp(l1);
        x2 = exp(l2);
        x3 = exp(l3);
        n++;
        sample(n, &k, &next_sample, stride, n_steps, steps, coords, logs, log_from, x1, x2, x3,
               l1, l2, l3);
    }
    s[0] = x1;
    s[1] = x2;
    s[2] = x3;
    s[3] = l1;
    s[4] = l2;
    s[5] = l3;
    rec[0] = n;
    rec[1] = k;
    rec[2] = next_sample;
    rec[3] = log_from;
}

/* ode._field */
static void field(double k[3], double x1, double x2, double x3, double a, double b, double c,
                  const double sp[4], int affine)
{
    double fval = speed(sp, affine, x1, x2, x3);
    k[0] = x1 * (a * x1 * x2 - b * x3 * x3) * fval;
    k[1] = x2 * (c * x2 * x3 - a * x1 * x1) * fval;
    k[2] = x3 * (b * x3 * x1 - c * x2 * x2) * fval;
}

/* The loop of ode.reference_path, from the state x for up to n_steps
 * steps. Returns the number of steps taken, leaving x after the last. */
int64_t sf_rk4(double a, double b, double c, const double sp[4], double h, double x[3],
               int64_t n_steps)
{
    double x1 = x[0], x2 = x[1], x3 = x[2], k1[3], k2[3], k3[3], k4[3], y[3], s;
    int64_t n;
    int affine = has_slope(sp);

    for (n = 0; n < n_steps; n++) {
        field(k1, x1, x2, x3, a, b, c, sp, affine);
        field(k2, x1 + 0.5 * h * k1[0], x2 + 0.5 * h * k1[1], x3 + 0.5 * h * k1[2], a, b, c, sp, affine);
        field(k3, x1 + 0.5 * h * k2[0], x2 + 0.5 * h * k2[1], x3 + 0.5 * h * k2[2], a, b, c, sp, affine);
        field(k4, x1 + h * k3[0], x2 + h * k3[1], x3 + h * k3[2], a, b, c, sp, affine);
        y[0] = x1 + h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]);
        y[1] = x2 + h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]);
        y[2] = x3 + h / 6.0 * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2]);
        if (sf_fsum3(y, &s) != 0 || s == 0.0)
            break;
        x1 = y[0] / s;
        x2 = y[1] / s;
        x3 = y[2] / s;
    }
    x[0] = x1;
    x[1] = x2;
    x[2] = x3;
    return n;
}

/* analysis.CesaroState.push over the rows x[3i..3i+2], i < m, from the state
 * after push n (-1 before the first) with the order-k values in
 * v[3k..3k+2], k <= max_order. After the push of row at[j] (at sorted
 * ascending) every order's values are copied to out[3(max_order+1)j...].
 * Returns the index of the latest push. */
int64_t sf_cesaro(int64_t n, int max_order, double *v, const double *x, int64_t m,
                  const int64_t *at, int64_t n_at, double *out)
{
    int64_t i, j = 0, width = 3 * (int64_t)(max_order + 1);
    double inv, *vk;
    int k;

    for (i = 0; i < m; i++) {
        n++;
        v[0] = x[3 * i];
        v[1] = x[3 * i + 1];
        v[2] = x[3 * i + 2];
        inv = 1.0 / (double)(n + 1);
        for (k = 1; k <= max_order; k++) {
            vk = v + 3 * k;
            vk[0] = ((double)n * vk[0] + vk[-3]) * inv;
            vk[1] = ((double)n * vk[1] + vk[-2]) * inv;
            vk[2] = ((double)n * vk[2] + vk[-1]) * inv;
        }
        for (; j < n_at && at[j] == i; j++)
            memcpy(out + width * j, v, (size_t)width * sizeof(double));
    }
    return n;
}

/* ------------------------------------------------------------------------
 * Shortest round-trip text of a double, as Python's repr writes it.
 *
 * The digits are Schubfach's (R. Giulietti, "The Schubfach way to render
 * doubles", 2020): among the decimals that read back as v (the rounding
 * interval, its bounds included for an even significand), the one with
 * the fewest digits; among those, the nearest to v, ties to an even last
 * digit. With 10^k <= 2^q < 10^(k+1) for v = c 2^q, the interval (2^q
 * wide) holds at most one multiple of 10^(k+1) and at least one of the two
 * multiples of 10^k around v, so the digits are that multiple of 10^(k+1)
 * when there is one, else the nearer of s 10^k and (s+1) 10^k that lies
 * in the interval. The comparisons use 4 v / 10^k and its bounds, each a
 * product with the 126-bit g(k) > 10^-k 2^r rounded to odd, which keeps
 * every comparison with a multiple of 4 exact.
 * ---------------------------------------------------------------------- */

#define POW10_KMIN (-324) /* k of the least subnormal */
#define POW10_KMAX 292    /* k of the largest double */
#define C_MIN (UINT64_C(1) << 52)
#define Q_MIN (-1074)
#define MASK63 ((UINT64_C(1) << 63) - 1)

/* g(k) for k = POW10_KMIN..POW10_KMAX as two 63-bit halves, high first:
 * g = floor(10^-k 2^(125 - floor(log2 10^-k))) + 1, in (2^125, 2^126]. */
static uint64_t pow10_g[2 * (POW10_KMAX - POW10_KMIN + 1)];

/* Stores the table of g(k); kernel._load computes it with exact integers. */
void sf_set_pow10(const uint64_t *g)
{
    memcpy(pow10_g, g, sizeof pow10_g);
}

/* floor(log10(2^e)), floor(log10(3/4 2^e)) and floor(log2(10^e)) as fixed
 * point products with floor(log10(2) 2^41), floor(log10(3/4) 2^41) and
 * floor(log2(10) 2^38); exact on the exponents used here (checked against
 * exact integer powers). The right shift of a negative product floors (gcc,
 * clang). */
static int floor_log10_pow2(int e)
{
    return (int)(((int64_t)e * INT64_C(661971961083)) >> 41);
}

static int floor_log10_three_quarters_pow2(int e)
{
    return (int)(((int64_t)e * INT64_C(661971961083) - INT64_C(274743187321)) >> 41);
}

static int floor_log2_pow10(int e)
{
    return (int)(((int64_t)e * INT64_C(913124641741)) >> 38);
}

/* The high 64 bits of a 128-bit product. */
static uint64_t mul_high(uint64_t a, uint64_t b)
{
    uint64_t a0 = a & 0xffffffffu, a1 = a >> 32, b0 = b & 0xffffffffu, b1 = b >> 32;
    uint64_t p00 = a0 * b0, p01 = a0 * b1, p10 = a1 * b0;
    uint64_t mid = (p00 >> 32) + (p01 & 0xffffffffu) + (p10 & 0xffffffffu);

    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32);
}

/* (g1 2^63 + g0) cp / 2^127 rounded to odd: the integer part, with its
 * lowest bit set when the fraction's leading 63 bits are not all zero. The
 * bits below them are dropped: they hold the excess of g over 10^-k 2^r,
 * which must not make an exact product look inexact. cp < 2^63. */
static uint64_t round_to_odd(uint64_t g1, uint64_t g0, uint64_t cp)
{
    uint64_t z = (g1 * cp >> 1) + mul_high(g0, cp); /* < 2^64: the second term < 2^62 */

    return (mul_high(g1, cp) + (z >> 63)) | ((z & MASK63) != 0);
}

/* The shortest digits of c 2^q > 0 as *digits 10^*exp10, trailing zeros
 * kept. c is the significand, with its implicit bit for a normal value. */
static void shortest(int q, uint64_t c, uint64_t *digits, int *exp10)
{
    uint64_t cb = c << 2, cbl, vb, vbl, vbr, g1, g0, s, sp10, tp10;
    int k, h, open = (int)(c & 1); /* an odd significand excludes the bounds */
    int upin, wpin, uin, win;

    if (c != C_MIN || q == Q_MIN) {
        cbl = cb - 2;
        k = floor_log10_pow2(q);
    } else { /* a power of two above the subnormals: the lower gap is half */
        cbl = cb - 1;
        k = floor_log10_three_quarters_pow2(q);
    }
    h = q + floor_log2_pow10(-k) + 2; /* 1..4 */
    g1 = pow10_g[2 * (k - POW10_KMIN)];
    g0 = pow10_g[2 * (k - POW10_KMIN) + 1];
    vb = round_to_odd(g1, g0, cb << h);
    vbl = round_to_odd(g1, g0, cbl << h);
    vbr = round_to_odd(g1, g0, (cb + 2) << h);
    s = vb >> 2;
    sp10 = s / 10 * 10;
    tp10 = sp10 + 10;
    upin = vbl + open <= sp10 << 2;
    wpin = (tp10 << 2) + open <= vbr;
    if (upin != wpin) {
        *digits = upin ? sp10 : tp10;
        *exp10 = k;
        return;
    }
    uin = vbl + open <= s << 2;
    win = ((s + 1) << 2) + open <= vbr;
    *exp10 = k;
    if (uin != win)
        *digits = uin ? s : s + 1;
    else /* both: the nearer to v, 4 v / 10^k against 4 s + 2; ties to even */
        *digits = vb < 4 * s + 2 || (vb == 4 * s + 2 && !(s & 1)) ? s : s + 1;
}

/* Writes v >= 0 in decimal; returns the end. */
static char *write_uint(char *p, uint64_t v)
{
    char d[20];
    int n = 0;

    do {
        d[n++] = (char)('0' + v % 10);
        v /= 10;
    } while (v);
    while (n)
        *p++ = d[--n];
    return p;
}

static char *write_int(char *p, int64_t v)
{
    if (v < 0) {
        *p++ = '-';
        return write_uint(p, (uint64_t)0 - (uint64_t)v);
    }
    return write_uint(p, (uint64_t)v);
}

/* Writes repr(v) of a finite v and returns the end: fixed notation for a
 * decimal exponent in [-4, 16), d.ddde+XX otherwise, as float.__repr__.
 * At most 24 bytes (kernel.FLOAT_WIDTH), as for -2.2250738585072014e-308. */
static char *write_repr(char *p, double v)
{
    uint64_t bits, t, c, f;
    int q, e, n, point, i;
    char d[20];

    memcpy(&bits, &v, sizeof bits);
    if (bits >> 63)
        *p++ = '-';
    t = bits & (C_MIN - 1);
    q = (int)(bits >> 52 & 0x7ff);
    if (q == 0 && t == 0) {
        memcpy(p, "0.0", 3);
        return p + 3;
    }
    if (q == 0) {
        q = Q_MIN;
        c = t;
    } else {
        q -= 1075;
        c = C_MIN | t;
    }
    shortest(q, c, &f, &e);
    while (f % 10 == 0) {
        f /= 10;
        e++;
    }
    for (n = 0; f; f /= 10)
        d[n++] = (char)('0' + f % 10); /* the digits, last first */
    point = e + n; /* v = 0.d1 d2 ... dn 10^point */
    if (-4 < point && point <= 16) {
        if (point <= 0) {
            *p++ = '0';
            *p++ = '.';
            for (i = point; i < 0; i++)
                *p++ = '0';
        }
        for (i = n - 1; i >= 0; i--) {
            *p++ = d[i];
            if (n - i == point)
                *p++ = '.';
        }
        if (point >= n) {
            for (i = n; i < point; i++)
                *p++ = '0';
            if (point > n)
                *p++ = '.';
            *p++ = '0';
        }
        return p;
    }
    *p++ = d[n - 1];
    if (n > 1) {
        *p++ = '.';
        for (i = n - 2; i >= 0; i--)
            *p++ = d[i];
    }
    *p++ = 'e';
    *p++ = point > 0 ? '+' : '-';
    e = point > 0 ? point - 1 : 1 - point;
    if (e < 10)
        *p++ = '0';
    return write_uint(p, (uint64_t)e);
}

/* Copies literal piece j, lit[off[j]..off[j+1]); returns the end. */
static char *piece(char *p, const char *lit, const int64_t off[8], int j)
{
    size_t len = (size_t)(off[j + 1] - off[j]);

    memcpy(p, lit + off[j], len);
    return p + len;
}

/* Writes n samples' rows joined by sep[0..sep_len) to out. A row is
 * literal piece 0, steps[i], piece 1, the three coords[3i..3i+2] and
 * phi[i], each followed by the next piece, sector[i] and piece 6, where
 * piece j is lit[off[j]..off[j+1]). Integers are written as by %d and
 * doubles as by %r. Returns the bytes written, or -1 on a value that is
 * not finite. out holds n rows of the literal bytes plus 4 * 24 + 2 * 20,
 * and n - 1 separators. */
int64_t sf_rows(const char *lit, const int64_t off[8], const char *sep, int64_t sep_len,
                int64_t n, const int64_t *steps, const double *coords, const double *phi,
                const int8_t *sector, char *out)
{
    char *p = out;
    double x[4];
    int64_t i;
    int j;

    for (i = 0; i < n; i++) {
        x[0] = coords[3 * i];
        x[1] = coords[3 * i + 1];
        x[2] = coords[3 * i + 2];
        x[3] = phi[i];
        for (j = 0; j < 4; j++)
            if (!isfinite(x[j]))
                return -1;
        if (i > 0) {
            memcpy(p, sep, (size_t)sep_len);
            p += sep_len;
        }
        p = write_int(piece(p, lit, off, 0), steps[i]);
        for (j = 0; j < 4; j++)
            p = write_repr(piece(p, lit, off, j + 1), x[j]);
        p = write_int(piece(p, lit, off, 5), sector[i]);
        p = piece(p, lit, off, 6);
    }
    return p - out;
}
