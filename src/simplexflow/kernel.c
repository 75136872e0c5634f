/* Compiled copies of three Python loops of simplexflow: dynamics.iterate's
 * loop, in both domains and with its auto switch, run from its start and
 * recording at the steps of the schedule it is given (or, for a sweep row,
 * also summarizing every state as cli's array path reads it); the step of
 * ode.reference_path; and analysis.CesaroState.push. A sweep's rows run
 * on a team of threads (sf_iterate_rows). Also the row writer of
 * cli.cmd_simulate, whose floats are written as Python's repr writes them,
 * a float with the bits of its column's last one as a copy of that text,
 * and whose runs of text are copied in fixed blocks (at the end of this
 * file).
 *
 * Each loop is a line-by-line transliteration of its Python original, with
 * the same operations in the same order, so it returns the same bits; a
 * formula repeated per coordinate (the linear and the log update), per arity
 * (log_sum_exp) or per loop (renormalize) has one helper here. math.fsum is
 * the one exception: it is not ported but replaced by sf_fsum3, a sum of
 * three doubles that is correctly rounded as math.fsum is, by rounding to
 * odd, so it gives the same bits. The linear steps, the RK4 and the Cesaro
 * loops use only IEEE-754 double + - * / and comparisons. A linear or RK4
 * step whose sum is exactly 1.0 skips its three divisions by it, as IEEE 754
 * fixes y / 1.0 = y, so the next step need not wait for them. The auto switch
 * calls log, and the log steps exp, log and log1p, from the libm that
 * Python's math module calls, the same symbols in the same process, so both
 * get the same variant of each. This holds only when the compiler neither
 * contracts a*b+c into a fused multiply-add nor reassociates: kernel.py
 * builds with -O2 -ffp-contract=off -fno-fast-math.
 *
 * A log step makes at most 9 libm calls: 3 log1p, 2 exp and a log in
 * log_sum_exp, and 3 exp for the new coordinates, plus 3 per rebuilt factor.
 * It skips calls whose results are fixed on any libm:
 * - in a sum, exp(+-0) = 1 and exp(-inf) = +0 for a term at the maximum or
 *   at -inf (C99 Annex F);
 * - a log_sum_exp whose two terms below the maximum m both lie more than
 *   SUM_IS_ONE_BELOW (40) under it is m + 0.0, without its two exp, its sum
 *   and its log. The exact sum of the exps lies in [1, 1 + 2 e^-40], inside
 *   [1, 1 + 2^-54), so the correctly rounded sum is 1 even for exps off by a
 *   factor of 6, and log(1) = +0;
 * - a rebuilt factor's three logs of fval and the parameters are kept per
 *   coordinate and taken again while fval does not change (always, at a
 *   constant speed): the same libm returns the same result for the same
 *   argument.
 * exp(0) of a new coordinate and log1p(0) are fixed too, but glibc returns
 * them fast, and a branch around them made bench report's orbits about 2%
 * slower. log1p(t) = t for a tiny t and exp(x) = +0 far below -745 are not
 * skipped: glibc returns them, but no standard fixes them.
 *
 * A step that the Python loop would finish in a way this file does not copy
 * (a factor that stays non-positive, a sum that is not finite or is zero, a
 * log that is NaN, +inf or positive) is left undone: the loop stops there,
 * and the whole request goes to Python, which runs it from step 0.
 */
#include <math.h>
#include <pthread.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#if defined(__GNUC__)
#define ALWAYS_INLINE inline __attribute__((always_inline))
#define LIKELY(x) __builtin_expect(!!(x), 1)
#define UNLIKELY(x) __builtin_expect(!!(x), 0)
#else
#define ALWAYS_INLINE inline
#define LIKELY(x) (x)
#define UNLIKELY(x) (x)
#endif

/* The error of a rounded sum s = a + b: a + b = s + the result exactly
 * (Knuth's TwoSum, exact for finite a, b and s, subnormals included). */
static inline double two_sum_err(double a, double b, double s)
{
    double t = s - a;

    return (a - (s - t)) + (b - t);
}

/* math.fsum of three doubles, correctly rounded as math.fsum is, so with
 * its bits: u = v0 + v1 and t = u + v2 with their TwoSum errors e1 and e2
 * (v0 + v1 + v2 = t + e1 + e2 exactly), then t + (e1 + e2 rounded to odd),
 * rounded to nearest (Boldo & Melquiond, "Emulation of FMA and correctly
 * rounded sums: proved algorithms using rounding to odd", IEEE Trans.
 * Computers 57, 2008). t + (e1 + e2), all rounded to nearest, is that sum
 * but where rounding e1 + e2 moved a tie (at most about 1e-4 of the steps
 * of the orbits measured). It is stored first, so that the caller's next
 * operations wait only for it on a predicted branch, and overwritten where
 * it differs (two zeros need s = -t both times, so their signs agree).
 * Returns 0 and stores the sum, or returns -1 where |t| reaches 2^1022 or
 * v2 + e1, the first sum math.fsum makes with v2, is not finite. That is
 * wherever math.fsum raises or meets a non-finite summand, and a band where
 * u or t reaches 2^1022, in which math.fsum's partials can overflow where t
 * does not, and u's TwoSum where u does not. Three -0.0 sum to +0.0
 * (t + +0.0), as math.fsum does on Python 3.11. */
extern int sf_fsum3(const double v[3], double *out); /* exported, and inlined here */
ALWAYS_INLINE int sf_fsum3(const double v[3], double *out)
{
    double u = v[0] + v[1], t = u + v[2], e1, e2, s, d, odd;
    uint64_t bits, d_bits, inexact;

    e1 = two_sum_err(v[0], v[1], u);
    if (!(fabs(t) < 0x1p1022) || !isfinite(v[2] + e1))
        return -1;
    e2 = two_sum_err(u, v[2], t);
    s = e1 + e2;
    *out = t + s;
    d = two_sum_err(e1, e2, s);
    /* s to odd: one step toward zero where it overshot (d's sign is not
     * its), then the last bit set, where it was inexact */
    memcpy(&bits, &s, sizeof bits);
    memcpy(&d_bits, &d, sizeof d_bits);
    inexact = d != 0.0;
    bits -= inexact & (bits ^ d_bits) >> 63;
    bits |= inexact;
    memcpy(&s, &bits, sizeof s);
    odd = t + s;
    if (UNLIKELY(odd != *out))
        *out = odd;
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

/* exp(t - m) for a finite maximum m >= t; exp(0) = 1.0 and exp(-inf) = 0.0
 * (C99 Annex F) are stored without a call. */
static inline double exp_below(double t, double m)
{
    return t == m ? 1.0 : t == -INFINITY ? 0.0 : exp(t - m);
}

/* How far below the maximum both other terms of a log_sum_exp must lie for
 * it to be m + log(1) (see the header). */
#define SUM_IS_ONE_BELOW 40.0

/* simplex.log_sum_exp of (u, v, w), -inf for none, NAN where fsum declines;
 * Python's max keeps the first of equal values. A sum of two passes w =
 * -inf; fsum ignores a zero summand. A maximum that two terms share leaves
 * only one term below it, and -inf lies below any m; a NaN lies below none. */
static inline double log_sum_exp(double u, double v, double w)
{
    double m = u, e[3], s;

    if (v > m)
        m = v;
    if (w > m)
        m = w;
    if (m == -INFINITY)
        return -INFINITY;
    if ((u - m < -SUM_IS_ONE_BELOW) + (v - m < -SUM_IS_ONE_BELOW) + (w - m < -SUM_IS_ONE_BELOW)
        == 2)
        return m + 0.0;
    e[0] = exp_below(u, m);
    e[1] = exp_below(v, m);
    e[2] = exp_below(w, m);
    if (sf_fsum3(e, &s) != 0)
        return NAN;
    return m + log(s);
}

/* y over its sum into x1, x2, x3, without the divisions for an exact 1.0 (see
 * the header); 0, storing nothing, where fsum declines or the sum is zero. */
static ALWAYS_INLINE int renormalize(const double y[3], double *x1, double *x2, double *x3)
{
    double sum;

    if (sf_fsum3(y, &sum) != 0 || sum == 0.0)
        return 0;
    if (LIKELY(sum == 1.0)) { /* y / 1.0 = y */
        *x1 = y[0];
        *x2 = y[1];
        *x3 = y[2];
    } else {
        *x1 = y[0] / sum;
        *x2 = y[1] / sum;
        *x3 = y[2] / sum;
    }
    return 1;
}

/* The logs of a rebuilt factor that depend on fval and the parameters alone,
 * kept by one coordinate's update for the last fval it saw (NAN before the
 * first): alpha and beta are fixed there, so an equal fval makes the same
 * calls on the same arguments. */
struct kept_logs {
    double fval, log1p_neg_fb, log_fb, log_fa;
};

/* dynamics._log_factor. Returns 0 where Python would raise: math.log of an
 * f*beta or f*|alpha| that is not positive, or a factor that is not
 * positive (m = -inf, acc <= 0), and where fsum declines. */
static int log_factor(double *out, struct kept_logs *kept, double fval, double alpha, double lp,
                      double lq, double beta, double xr)
{
    double fb = fval * beta, t1, t2, t3, m, e[3], acc;

    if (fval != kept->fval) {
        if (!(fb > 0.0) || !(fval * fabs(alpha) > 0.0)) /* math.log would raise */
            return 0;
        kept->log1p_neg_fb = fb < 1.0 ? log1p(-fb) : -INFINITY;
        kept->log_fb = log(fb);
        kept->log_fa = log(fval * fabs(alpha));
        kept->fval = fval;
    }
    t1 = kept->log1p_neg_fb;
    t2 = kept->log_fb + log_sum_exp(lp, lq, -INFINITY) + log1p(xr);
    t3 = kept->log_fa + lp + lq;
    m = t1;
    if (t2 > m)
        m = t2;
    if (t3 > m)
        m = t3;
    if (m == -INFINITY)
        return 0;
    e[0] = exp_below(t1, m);
    e[1] = exp_below(t2, m);
    e[2] = copysign(exp_below(t3, m), alpha);
    if (sf_fsum3(e, &acc) != 0 || acc <= 0.0)
        return 0;
    *out = m + log(acc);
    return 1;
}

/* l + the log of one live coordinate's factor, as dynamics._step_log takes
 * it: log1p of the direct form, in linear_update's operation order on the
 * coordinates the loop holds, above -0.5, else the rebuilt factor. The log
 * twin of linear_update. */
static int log_update(double *out, struct kept_logs *kept, double fval, double alpha, double lp,
                      double lq, double beta, double xp, double xq, double xr)
{
    double t, u;

    if (lp == -INFINITY) {
        *out = -INFINITY;
        return 1;
    }
    t = fval * (alpha * xp * xq - beta * xr * xr);
    if (t > -0.5) {
        u = log1p(t);
    } else if (!log_factor(&u, kept, fval, alpha, lp, lq, beta, xr)) {
        return 0;
    }
    *out = lp + u;
    return 1;
}

/* One compiled run: sf_iterate, sf_rk4 and sf_iterate_rows read its
 * parameters, speed sp, weights lam and start (coords[0..2], and logs[0..2]
 * for a log start) here. sf_iterate and a sweep row write their record rec
 * here, and sf_rk4 its end state at coords[3..5], where a sweep row's final
 * state goes (with logs[3..5]). dynamics._kernel_row fills it, and kernel.Row
 * mirrors it. A sweep row runs in summary mode on a schedule of at most two
 * samples (the start and the final state): its summary is what the row reads
 * of the run, kept from every state, the start (state 0) included, in place
 * of its samples. The window's spread is max_i (hi[i] - lo[i]), the max-norm
 * diameter of its states. */
struct sf_row {
    double a, b, c, sp[4], coords[6], logs[6];
    double lam[6];         /* L_i, then numpy's log L_i, as state_sector takes them */
    int64_t tail_from;     /* the window's first state */
    double lo[3], hi[3];   /* each x_i's least and greatest value from state tail_from on */
    int64_t entries[7];    /* entries into sectors 1..6, as analysis.sector_entries */
    int64_t sector;        /* the last state's sector, 0 before the first */
    int64_t failed;        /* 1 once a state fails a check of cli._validate_samples */
    int64_t rec[2];
};

/* analysis._sector_kernel on one row of rescaled coordinates: the first
 * sector whose ordering of SECTOR_ORDERINGS the row satisfies, so ties go to
 * the lowest index; 0 for a row with a NaN. */
static int64_t sector_of(double y1, double y2, double y3)
{
    if (y1 >= y2 && y2 >= y3)
        return 1;
    if (y1 >= y3 && y3 >= y2)
        return 2;
    if (y3 >= y1 && y1 >= y2)
        return 3;
    if (y3 >= y2 && y2 >= y1)
        return 4;
    if (y2 >= y3 && y3 >= y1)
        return 5;
    if (y2 >= y1 && y1 >= y3)
        return 6;
    return 0;
}

/* analysis.sector_array's rule for one state, given L_i and numpy's log L_i
 * in lam[0..5]: a state the stepper took in the log domain (log_row) takes
 * its sector from l_i - log L_i, a linear one from x_i / L_i. */
static inline int64_t state_sector(const double lam[6], int log_row, double x1, double x2,
                                   double x3, double l1, double l2, double l3)
{
    if (log_row)
        return sector_of(l1 - lam[3], l2 - lam[4], l3 - lam[5]);
    return sector_of(x1 / lam[0], x2 / lam[1], x3 / lam[2]);
}

/* Records the state after step n as sample *k, coords[3k..3k+2], in the
 * log domain (log_from >= 0) logs[3k..3k+2], and with a sector array its
 * sector in the domain of the state, when n is steps[*k]. */
static inline void sample(int64_t n, int64_t *k, const int64_t *steps, double *coords,
                          double *logs, int8_t *sectors, const double lam[6], int64_t log_from,
                          double x1, double x2, double x3, double l1, double l2, double l3)
{
    int64_t j = 3 * *k;

    if (n != steps[*k])
        return;
    coords[j] = x1;
    coords[j + 1] = x2;
    coords[j + 2] = x3;
    if (log_from >= 0) {
        logs[j] = l1;
        logs[j + 1] = l2;
        logs[j + 2] = l3;
    }
    if (sectors)
        sectors[*k] = (int8_t)state_sector(lam, log_from >= 0, x1, x2, x3, l1, l2, l3);
    ++*k;
}

/* Adds state n to the row's summary. A state the stepper took in the log
 * domain (log_row) has its logs checked; its sector is state_sector's. The
 * row sum is numpy's, left to right. A state that is not finite fails the
 * row, whose lo and hi are then not read. */
static void summarize(struct sf_row *sm, int64_t n, int log_row, double x1, double x2,
                      double x3, double l1, double l2, double l3)
{
    const double x[3] = {x1, x2, x3};
    int64_t sec;
    int i;

    if (!(isfinite(x1) && isfinite(x2) && isfinite(x3)))
        sm->failed = 1;
    if (x1 < 0.0 || x1 > 1.0 || x2 < 0.0 || x2 > 1.0 || x3 < 0.0 || x3 > 1.0)
        sm->failed = 1;
    if (fabs(x1 + x2 + x3 - 1.0) > 1e-9)
        sm->failed = 1;
    if (log_row && !(l1 < INFINITY && l2 < INFINITY && l3 < INFINITY))
        sm->failed = 1;
    sec = state_sector(sm->lam, log_row, x1, x2, x3, l1, l2, l3);
    if (sec != sm->sector) {
        sm->entries[sec]++;
        sm->sector = sec;
    }
    if (n < sm->tail_from)
        return;
    for (i = 0; i < 3; i++) {
        if (n == sm->tail_from || x[i] < sm->lo[i])
            sm->lo[i] = x[i];
        if (n == sm->tail_from || x[i] > sm->hi[i])
            sm->hi[i] = x[i];
    }
}

/* dynamics.iterate's loop of the run r from its start (x1, x2, x3, l1, l2,
 * l3) = (coords[0..2], logs[0..2]), in the log domain from step 0 when
 * log_start is set, until it has recorded the samples at steps[1..n_samples),
 * the schedule of dynamics._sample_steps; sample 0, the start, is the
 * caller's, but for its sector. A linear step that takes a positive
 * coordinate below tiny is the auto switch (tiny is 0 outside auto mode): the
 * logs of the new coordinates are math.log's, or -inf. With a sector array,
 * every sample's sector (state_sector, on L_i and numpy's log L_i in lam)
 * goes to sectors[k], the start's included. With summary set, the start and
 * the state after every step are added to r's summary as well. On return
 * r->rec holds the steps done and log_domain_from (-1 for a run that stayed
 * linear); fewer steps done than steps[n_samples - 1] mean that the loop
 * stopped at a step it does not copy, and the whole request goes to Python.
 * The last sample is the final state. Each domain has its own loop: a branch
 * on the domain in every step made a 34 ns linear step take 37 ns (on
 * 2026-10-18; gcc 12, a 2-CPU AVX-512 Xeon VM). sf_iterate inlines this
 * function without a summary and team_run with one and no sector array, so
 * a run without a summary tests for one in no step. A linear step ends in
 * renormalize, as an RK4 step does (sf_rk4). */
static ALWAYS_INLINE void run(struct sf_row *r, double tiny, int log_start,
                              const int64_t *steps, int64_t n_samples, double *coords,
                              double *logs, int8_t *sectors, int summary)
{
    double x1 = r->coords[0], x2 = r->coords[1], x3 = r->coords[2];
    double l1 = r->logs[0], l2 = r->logs[1], l3 = r->logs[2];
    double a = r->a, b = r->b, c = r->c, fval, y[3], m1, m2, m3, z;
    const double *sp = r->sp, *lam = r->lam;
    int64_t n = 0, k = 1;
    int64_t log_from = log_start ? 0 : -1;
    struct kept_logs kept[3] = {{NAN, 0, 0, 0}, {NAN, 0, 0, 0}, {NAN, 0, 0, 0}};
    int affine = has_slope(sp);

    if (sectors)
        sectors[0] = (int8_t)state_sector(lam, log_from >= 0, x1, x2, x3, l1, l2, l3);
    if (summary)
        summarize(r, 0, log_from >= 0, x1, x2, x3, l1, l2, l3);
    while (log_from < 0 && k < n_samples) {
        fval = speed(sp, affine, x1, x2, x3);
        if (!linear_update(&y[0], fval, a, x1, x2, b, x3)
            || !linear_update(&y[1], fval, c, x2, x3, a, x1)
            || !linear_update(&y[2], fval, b, x3, x1, c, x2)
            || !renormalize(y, &x1, &x2, &x3))
            break;
        n++;
        if ((0.0 < x1 && x1 < tiny) || (0.0 < x2 && x2 < tiny) || (0.0 < x3 && x3 < tiny)) {
            log_from = n;
            l1 = x1 > 0.0 ? log(x1) : -INFINITY;
            l2 = x2 > 0.0 ? log(x2) : -INFINITY;
            l3 = x3 > 0.0 ? log(x3) : -INFINITY;
        }
        if (summary)
            summarize(r, n, log_from >= 0, x1, x2, x3, l1, l2, l3);
        sample(n, &k, steps, coords, logs, sectors, lam, log_from, x1, x2, x3, l1, l2, l3);
    }
    /* a log that is NaN, +inf or positive (where Python's exp can overflow)
     * or a speed that is not finite and positive stops the loop, as do the
     * failures of log_factor and a sum with every species dead, where
     * Python's differences are NaN */
    while (log_from >= 0 && k < n_samples) {
        if (!(l1 <= 0.0 && l2 <= 0.0 && l3 <= 0.0))
            break;
        fval = speed(sp, affine, x1, x2, x3);
        if (!(fval > 0.0 && fval < INFINITY))
            break;
        if (!log_update(&m1, &kept[0], fval, a, l1, l2, b, x1, x2, x3)
            || !log_update(&m2, &kept[1], fval, c, l2, l3, a, x2, x3, x1)
            || !log_update(&m3, &kept[2], fval, b, l3, l1, c, x3, x1, x2))
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
        if (summary)
            summarize(r, n, 1, x1, x2, x3, l1, l2, l3);
        sample(n, &k, steps, coords, logs, sectors, lam, log_from, x1, x2, x3, l1, l2, l3);
    }
    r->rec[0] = n;
    r->rec[1] = log_from;
}

void sf_iterate(struct sf_row *r, double tiny, int log_start, const int64_t *steps,
                int64_t n_samples, double *coords, double *logs, int8_t *sectors)
{
    run(r, tiny, log_start, steps, n_samples, coords, logs, sectors, 0);
}

/* The rows of one sf_iterate_rows call and the threads that take them, in
 * index order, from one counter. The last of the caller and its helpers to
 * leave frees it, so a helper that first runs after the caller has returned
 * finds no row left and touches nothing else. */
struct sf_team {
    pthread_mutex_t mu;
    pthread_cond_t idle;
    struct sf_row *rows;
    const int64_t *steps;
    int64_t n_rows, n_samples, next, busy, refs;
    double tiny;
};

/* Runs rows until none is left; called and returns with the lock held. */
static void team_run(struct sf_team *t)
{
    struct sf_row *r;

    while (t->next < t->n_rows) {
        r = &t->rows[t->next++];
        t->busy++;
        pthread_mutex_unlock(&t->mu);
        run(r, t->tiny, 0, t->steps, t->n_samples, r->coords, r->logs, NULL, 1);
        pthread_mutex_lock(&t->mu);
        if (--t->busy == 0)
            pthread_cond_signal(&t->idle);
    }
}

/* Drops one reference, with the lock held; the last one frees the team. */
static void team_leave(struct sf_team *t)
{
    int64_t refs = --t->refs;

    pthread_mutex_unlock(&t->mu);
    if (refs == 0) {
        pthread_cond_destroy(&t->idle);
        pthread_mutex_destroy(&t->mu);
        free(t);
    }
}

static void *team_helper(void *arg)
{
    pthread_mutex_lock(&((struct sf_team *)arg)->mu);
    team_run(arg);
    team_leave(arg);
    return NULL;
}

/* Runs every row, on the calling thread and up to workers - 1 detached
 * helper threads. The caller starts the helpers without waiting for them,
 * runs rows itself, and then waits only for the rows that a helper is
 * running, not for a helper to start or to exit. Without memory for the
 * team, or a thread, the caller runs the rows that are left. */
void sf_iterate_rows(struct sf_row *rows, int64_t n_rows, int64_t workers, double tiny,
                     const int64_t *steps, int64_t n_samples)
{
    struct sf_team *t = malloc(sizeof *t);
    pthread_attr_t attr;
    pthread_t id;

    for (; t == NULL && n_rows > 0; rows++, n_rows--)
        run(rows, tiny, 0, steps, n_samples, rows->coords, rows->logs, NULL, 1);
    if (t == NULL)
        return;
    *t = (struct sf_team){.rows = rows, .steps = steps, .n_rows = n_rows,
                          .n_samples = n_samples, .refs = 1, .tiny = tiny};
    pthread_mutex_init(&t->mu, NULL);
    pthread_cond_init(&t->idle, NULL);
    pthread_mutex_lock(&t->mu);
    if (workers > 1 && pthread_attr_init(&attr) == 0) {
        pthread_attr_setdetachstate(&attr, PTHREAD_CREATE_DETACHED);
        for (; workers > 1 && pthread_create(&id, &attr, team_helper, t) == 0; workers--)
            t->refs++;
        pthread_attr_destroy(&attr);
    }
    team_run(t);
    while (t->busy > 0)
        pthread_cond_wait(&t->idle, &t->mu);
    team_leave(t);
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

/* The loop of ode.reference_path, each step ended by renormalize, from the
 * start coords[0..2] of the run r for up to n_steps steps. Returns the steps
 * taken, leaving the state after the last at coords[3..5], as a row's final
 * state; fewer than n_steps send the whole request to Python. */
int64_t sf_rk4(struct sf_row *r, double h, int64_t n_steps)
{
    double a = r->a, b = r->b, c = r->c, x1 = r->coords[0], x2 = r->coords[1], x3 = r->coords[2];
    double k1[3], k2[3], k3[3], k4[3], y[3];
    const double *sp = r->sp;
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
        if (!renormalize(y, &x1, &x2, &x3))
            break;
    }
    r->coords[3] = x1;
    r->coords[4] = x2;
    r->coords[5] = x3;
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

/* The high 64 bits of a 128-bit product. The compiler must have unsigned
 * __int128 (gcc and clang do); without it the kernel does not build and
 * the Python loops run. */
static uint64_t mul_high(uint64_t a, uint64_t b)
{
    return (uint64_t)((unsigned __int128)a * b >> 64);
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

/* "00" to "99": the two digits of x < 100 at two_digits[2 x]. */
static const char two_digits[201] =
    "00010203040506070809101112131415161718192021222324"
    "25262728293031323334353637383940414243444546474849"
    "50515253545556575859606162636465666768697071727374"
    "75767778798081828384858687888990919293949596979899";

/* Writes x < 10^8 as its 8 digits, leading zeros included: 32-bit
 * divisions, two digits a lookup. */
static void write8(char *d, uint32_t x)
{
    uint32_t hi = x / 10000, lo = x % 10000;

    memcpy(d, two_digits + 2 * (hi / 100), 2);
    memcpy(d + 2, two_digits + 2 * (hi % 100), 2);
    memcpy(d + 4, two_digits + 2 * (lo / 100), 2);
    memcpy(d + 6, two_digits + 2 * (lo % 100), 2);
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

/* Copies BLOCK bytes from s to p, for a run of at most BLOCK bytes: the
 * caller keeps BLOCK bytes readable from s and writable from p, and the
 * bytes past the run's end are written over later or lie past the text.
 * A fixed width compiles to two 16-byte loads and stores, where a variable
 * length calls memcpy. The loads go first, through t, because a reused
 * text may lie less than BLOCK bytes before p. */
#define BLOCK 32

static ALWAYS_INLINE void copy_block(char *p, const char *s)
{
    char t[BLOCK];

    memcpy(t, s, BLOCK);
    memcpy(p, t, BLOCK);
}

/* Writes repr(v) of a finite v and returns the end: fixed notation for a
 * decimal exponent in [-4, 16), d.ddde+XX otherwise, as float.__repr__.
 * At most 24 bytes (kernel.FLOAT_WIDTH), as for -2.2250738585072014e-308,
 * but it writes up to BLOCK bytes from p. The digits are written once, as
 * text (one digit and two blocks of 8), and each notation copies its runs
 * of them as blocks. */
static char *write_repr(char *p, double v)
{
    uint64_t bits, t, c, f, hi;
    int q, e, n, m, point;
    char d[16 + BLOCK]; /* 17 digits, and a block from the last of them */
    const char *s;

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
    /* f < 2^53 10 < 10^17: its 17 digits, leading zeros included, as one
     * digit and two blocks of 8 */
    hi = f / 100000000;
    d[0] = (char)('0' + hi / 100000000);
    write8(d + 1, (uint32_t)(hi % 100000000));
    write8(d + 9, (uint32_t)(f % 100000000));
    for (s = d; *s == '0'; s++)
        ; /* f > 0: s is its first digit */
    n = (int)(d + 17 - s);
    for (m = n; s[m - 1] == '0'; m--)
        ; /* m: the digits less the trailing zeros */
    point = e + n; /* v = 0.s1 s2 ... sm 10^point */
    if (-4 < point && point <= 16) {
        if (point <= 0) {
            memcpy(p, "0.000000", 8);
            p += 2 - point;
        } else { /* v < 10^16 has 2^q < 3, so e = k <= 0: the zeros up to
                  * the point are among the n digits */
            copy_block(p, s);
            p += point;
            *p++ = '.';
            if (m <= point) {
                *p = '0';
                return p + 1;
            }
            s += point;
            m -= point;
        }
        copy_block(p, s);
        return p + m;
    }
    *p++ = s[0];
    if (m > 1) {
        *p++ = '.';
        copy_block(p, s + 1);
        p += m - 1;
    }
    memcpy(p, point > 0 ? "e+" : "e-", 2);
    p += 2;
    e = point > 0 ? point - 1 : 1 - point;
    if (e >= 100) {
        *p++ = (char)('0' + e / 100);
        e %= 100;
    }
    memcpy(p, two_digits + 2 * e, 2);
    return p + 2;
}

/* Copies literal piece j, lit[off[j]..off[j+1]), in blocks; returns the
 * end. lit holds BLOCK bytes past its last piece. */
static char *piece(char *p, const char *lit, const int64_t off[8], int j)
{
    int64_t len = off[j + 1] - off[j], k = 0;

    do
        copy_block(p + k, lit + off[j] + k);
    while ((k += BLOCK) < len);
    return p + len;
}

/* Writes n samples' rows joined by sep[0..sep_len) to out. A row is
 * literal piece 0, steps[i], piece 1, the three coords[3i..3i+2] and
 * phi[i], each followed by the next piece, sector[i] and piece 6, where
 * piece j is lit[off[j]..off[j+1]). Integers are written as by %d and
 * doubles as by %r. Returns the bytes written, or -1 on a value that is
 * not finite. out holds n rows of the literal bytes plus 4 * 24 + 2 * 20,
 * n - 1 separators and BLOCK bytes, and lit BLOCK bytes past its end.
 *
 * Each float column keeps the bits of the last value it wrote, where its
 * text starts in out and its length; a value with the same bits copies
 * that text in place of writing it again. The bits, not ==: 0.0 and -0.0
 * compare equal but print differently. A text stays as written, since the
 * writer only writes past the end of what it has written, and no slot
 * matches before its first value: its bits start as a NaN's, and a value
 * that is not finite returns before the reuse. */
int64_t sf_rows(const char *lit, const int64_t off[8], const char *sep, int64_t sep_len,
                int64_t n, const int64_t *steps, const double *coords, const double *phi,
                const int8_t *sector, char *out)
{
    struct {
        uint64_t bits;
        int64_t at, len;
    } last[4];
    char *p = out;
    double x[4];
    uint64_t bits;
    int64_t i;
    int j;

    for (j = 0; j < 4; j++) {
        last[j].bits = UINT64_C(0x7ff8000000000000);
        last[j].at = last[j].len = 0;
    }
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
        for (j = 0; j < 4; j++) {
            p = piece(p, lit, off, j + 1);
            memcpy(&bits, &x[j], sizeof bits);
            if (bits == last[j].bits) {
                copy_block(p, out + last[j].at);
            } else {
                last[j].bits = bits;
                last[j].at = p - out;
                last[j].len = write_repr(p, x[j]) - p;
            }
            p += last[j].len;
        }
        p = write_int(piece(p, lit, off, 5), sector[i]);
        p = piece(p, lit, off, 6);
    }
    return p - out;
}
