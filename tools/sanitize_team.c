/* A stress driver for the thread team of kernel.c's sf_iterate_rows, which
 * tools/sanitize.py builds under -fsanitize=thread and under
 * -fsanitize=address,undefined, with -DKERNEL_C="<path of kernel.c>":
 *
 *     cc -fsanitize=thread -g -O1 -DKERNEL_C='"src/simplexflow/kernel.c"' \
 *         tools/sanitize_team.c -o team -lm -pthread
 *
 * It makes 3000 calls of 1 to 40 rows on 1 to 8 workers and frees each
 * call's rows as soon as the call returns, while a helper that took no row
 * may still be leaving. The rows cycle through an orbit that stays linear
 * and two that switch to the log domain. Every row must run every step;
 * the exit status is 1 when one does not. */
#include KERNEL_C
#include <stdio.h>

#define CALLS 3000
#define STEPS 400

int main(void)
{
    /* (a, b, c, f): linear throughout, switching at step 353, at step 74 */
    static const double orbits[3][4] = {{-0.5, -0.7, -0.3, 0.3}, {1, -1, 1, 0.5}, {1, 1, 1, 1}};
    const double start[3] = {0.5, 0.3, 0.2};
    const int64_t steps[2] = {0, STEPS};
    unsigned seed = 26;
    int call, i, j;

    for (call = 0; call < CALLS; call++) {
        int64_t n = 1 + rand_r(&seed) % 40, workers = 1 + rand_r(&seed) % 8;
        struct sf_row *rows = calloc((size_t)n, sizeof *rows);

        if (rows == NULL)
            return 2;
        for (i = 0; i < n; i++) {
            const double *o = orbits[(call + i) % 3];

            rows[i].a = o[0];
            rows[i].b = o[1];
            rows[i].c = o[2];
            rows[i].sp[0] = o[3];
            memcpy(rows[i].coords, start, sizeof start);
            for (j = 0; j < 3; j++) {
                rows[i].lam[j] = 1.0 / 3.0;
                rows[i].lam[j + 3] = log(1.0 / 3.0);
            }
            rows[i].tail_from = STEPS - 9;
        }
        sf_iterate_rows(rows, n, workers, 1e-100, steps, 2);
        for (i = 0; i < n; i++)
            if (rows[i].rec[0] != STEPS) {
                fprintf(stderr, "call %d: row %d of %lld ran %lld of %d steps\n", call, i,
                        (long long)n, (long long)rows[i].rec[0], STEPS);
                return 1;
            }
        free(rows);
    }
    return 0;
}
