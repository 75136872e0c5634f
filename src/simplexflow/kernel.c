/* Compiled copies of three Python loops of simplexflow: the linear and the
 * log branch of dynamics.iterate and the step of ode.reference_path.
 *
 * Each loop is a line-by-line transliteration of its Python original, with
 * the same operations in the same order, so it returns the same bits. The
 * linear and RK4 loops use only IEEE-754 double + - * / and comparisons.
 * The log loop also calls exp, log and log1p from the libm that Python's
 * math module calls, the same symbols in the same process, so both get the
 * same variant of each. This holds only when the compiler neither contracts
 * a*b+c into a fused multiply-add nor reassociates: kernel.py builds with
 * -O2 -ffp-contract=off -fno-fast-math.
 *
 * A step that the Python loop would finish in a way this file does not copy
 * (an auto switch to the log domain, a factor that stays non-positive, a sum
 * that is not finite or is zero, a log that is NaN, +inf or positive) is
 * left undone: the loop returns the state before that step, and Python runs
 * the rest of the run from there.
 */
#include <math.h>
#include <stdint.h>

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

/* ConstantSpeed (affine == 0) or AffineSpeed.__call__ in Python's order. */
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

/* The factor of one live coordinate, rebuilt by the split when the direct
 * form is not positive; 0 when the rebuilt factor is not positive either. */
static int factor(double *u, double fval, double alpha, double xp, double xq, double beta, double xr)
{
    *u = 1.0 + (alpha * xp * xq - beta * xr * xr) * fval;
    if (*u <= 0.0) {
        *u = split_factor(fval, alpha, xp, xq, beta, xr);
        if (*u <= 0.0)
            return 0;
    }
    return 1;
}

/* The linear branch of dynamics.iterate's loop, from the state x after
 * pos[0] steps, with pos[1] samples recorded and the next one due at step
 * pos[2]. Samples go to steps[k] and coords[3k..3k+2]. A step that takes a
 * positive coordinate below tiny is the auto switch (tiny is 0 outside auto
 * mode). On return x and pos hold the state after the last step taken;
 * pos[0] < n_steps means the next step is left to Python. */
void sf_iterate_linear(double a, double b, double c, const double sp[4], int affine,
                       double tiny, double x[3], int64_t pos[3], int64_t n_steps,
                       int64_t stride, int64_t *steps, double *coords)
{
    double x1 = x[0], x2 = x[1], x3 = x[2], fval, u, y[3], s, z1, z2, z3;
    int64_t n = pos[0], k = pos[1], next_sample = pos[2];

    while (n < n_steps) {
        fval = speed(sp, affine, x1, x2, x3);
        if (x1 == 0.0) {
            y[0] = 0.0;
        } else {
            if (!factor(&u, fval, a, x1, x2, b, x3))
                break;
            y[0] = x1 * u;
        }
        if (x2 == 0.0) {
            y[1] = 0.0;
        } else {
            if (!factor(&u, fval, c, x2, x3, a, x1))
                break;
            y[1] = x2 * u;
        }
        if (x3 == 0.0) {
            y[2] = 0.0;
        } else {
            if (!factor(&u, fval, b, x3, x1, c, x2))
                break;
            y[2] = x3 * u;
        }
        if (sf_fsum3(y, &s) != 0 || s == 0.0)
            break;
        z1 = y[0] / s;
        z2 = y[1] / s;
        z3 = y[2] / s;
        if ((0.0 < z1 && z1 < tiny) || (0.0 < z2 && z2 < tiny) || (0.0 < z3 && z3 < tiny))
            break;
        x1 = z1;
        x2 = z2;
        x3 = z3;
        n++;
        if (n == next_sample) {
            steps[k] = n;
            coords[3 * k] = x1;
            coords[3 * k + 1] = x2;
            coords[3 * k + 2] = x3;
            k++;
            next_sample += stride;
            if (next_sample > n_steps)
                next_sample = n_steps;
        }
    }
    x[0] = x1;
    x[1] = x2;
    x[2] = x3;
    pos[0] = n;
    pos[1] = k;
    pos[2] = next_sample;
}

/* simplex.log_sum_exp of two values, -inf for none; Python's max keeps the
 * first of equal values. fsum ignores a zero summand. */
static double log_sum_exp2(double u, double v)
{
    double m = u, e[3], s;

    if (v > m)
        m = v;
    if (m == -INFINITY)
        return -INFINITY;
    e[0] = exp(u - m);
    e[1] = exp(v - m);
    e[2] = 0.0;
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
    t2 = log(fb) + log_sum_exp2(lp, lq) + log1p(exp(lr));
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
 * it: log1p of the direct form above -0.5, else the rebuilt factor. */
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

/* The log branch of dynamics.iterate's loop: dynamics._step_log, then the
 * coordinates as exp of the logs, from the state s = (x1, x2, x3, l1, l2,
 * l3) and pos as for sf_iterate_linear. Samples also write their logs to
 * logs[3k..3k+2]. A log that is NaN, +inf or positive (where Python's exp
 * can overflow) or a speed that is not finite and positive hands the step
 * back, as do the failures of log_factor. */
void sf_iterate_log(double a, double b, double c, const double sp[4], int affine, double s[6],
                    int64_t pos[3], int64_t n_steps, int64_t stride, int64_t *steps,
                    double *coords, double *logs)
{
    double x1 = s[0], x2 = s[1], x3 = s[2], l1 = s[3], l2 = s[4], l3 = s[5];
    double fval, m1, m2, m3, m, e[3], z;
    int64_t n = pos[0], k = pos[1], next_sample = pos[2];

    while (n < n_steps) {
        if (!(l1 <= 0.0 && l2 <= 0.0 && l3 <= 0.0))
            break;
        fval = speed(sp, affine, x1, x2, x3);
        if (!(fval > 0.0 && fval < INFINITY))
            break;
        if (!log_update(&m1, fval, a, l1, l2, b, l3) || !log_update(&m2, fval, c, l2, l3, a, l1)
            || !log_update(&m3, fval, b, l3, l1, c, l2))
            break;
        /* simplex.log_sum_exp of three values */
        m = m1;
        if (m2 > m)
            m = m2;
        if (m3 > m)
            m = m3;
        if (m == -INFINITY) /* every species dead: Python's differences are NaN */
            break;
        e[0] = exp(m1 - m);
        e[1] = exp(m2 - m);
        e[2] = exp(m3 - m);
        if (sf_fsum3(e, &z) != 0)
            break;
        z = m + log(z);
        l1 = m1 - z;
        l2 = m2 - z;
        l3 = m3 - z;
        x1 = exp(l1);
        x2 = exp(l2);
        x3 = exp(l3);
        n++;
        if (n == next_sample) {
            steps[k] = n;
            coords[3 * k] = x1;
            coords[3 * k + 1] = x2;
            coords[3 * k + 2] = x3;
            logs[3 * k] = l1;
            logs[3 * k + 1] = l2;
            logs[3 * k + 2] = l3;
            k++;
            next_sample += stride;
            if (next_sample > n_steps)
                next_sample = n_steps;
        }
    }
    s[0] = x1;
    s[1] = x2;
    s[2] = x3;
    s[3] = l1;
    s[4] = l2;
    s[5] = l3;
    pos[0] = n;
    pos[1] = k;
    pos[2] = next_sample;
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
int64_t sf_rk4(double a, double b, double c, const double sp[4], int affine, double h,
               double x[3], int64_t n_steps)
{
    double x1 = x[0], x2 = x[1], x3 = x[2], k1[3], k2[3], k3[3], k4[3], y[3], s;
    int64_t n;

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
