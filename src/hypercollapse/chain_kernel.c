/* Step loop of the reduced collapse chain (chain.run), compiled.
 *
 * Each step draws with numpy's own random_binomial and random_poisson on
 * the Generator's bitgen_t, the routines Generator.binomial and
 * Generator.poisson call, in the same order and with the same arguments
 * as the Python loop in chain.py, so both consume the same stream.
 * Linked against numpy/random/lib/libnpyrandom.a; chain_kernel.py builds
 * and loads it.
 */
#include <stdint.h>
#include <string.h>

/* numpy/random/bitgen.h */
typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* numpy's binomial_t caches set-up values keyed by (n, p); a zeroed block
 * means "nothing cached".  Only numpy reads its fields, so an aligned block
 * larger than it (17 eight-byte fields in numpy 2.x) stands in for it and
 * keeps this file free of Python.h, which numpy/random/distributions.h
 * includes. */
typedef union {
    double align;
    unsigned char bytes[512];
} binomial_t;

int64_t random_binomial(bitgen_t *bitgen_state, double p, int64_t n,
                        binomial_t *binomial);
int64_t random_poisson(bitgen_t *bitgen_state, double lam);

enum { OK = 0, LAM_NAN_OR_NEGATIVE = 1, LAM_TOO_LARGE = 2, COUNT_OVERFLOW = 3 };

/* Run from counts = {0, patches, debris} until no patches remain or
 * removed = n, leaving {removed, patches, debris} in counts.  rates holds n
 * doubles; trajectory, if not NULL, holds (n + 1) * 3 int64 and receives
 * the row (removed, patches, debris) before the first step and after each.
 * A Poisson mean that Generator.poisson rejects (not >= 0, or above
 * lam_max) stops the loop before its draw, after that step's binomial
 * draw, as the Python loop stops; the return value then says why. */
int chain_steps(int64_t n, const double *rates, bitgen_t *bitgen,
                int64_t *counts, int64_t *trajectory, double lam_max)
{
    binomial_t binomial;
    int64_t removed = 0, patches = counts[1], debris = counts[2];
    int status = OK;

    memset(&binomial, 0, sizeof binomial);
    if (trajectory) {
        trajectory[0] = 0;
        trajectory[1] = patches;
        trajectory[2] = debris;
    }
    while (patches > 0 && removed < n) {
        int64_t left = n - removed;
        int64_t shared = random_binomial(bitgen, 1.0 / (double)left, patches - 1,
                                         &binomial);
        double lam = (double)(left - 1) * rates[removed];
        if (!(lam >= 0.0)) {
            status = LAM_NAN_OR_NEGATIVE;
            break;
        }
        if (lam > lam_max) {
            status = LAM_TOO_LARGE;
            break;
        }
        int64_t fresh = random_poisson(bitgen, lam);
        /* shared <= patches - 1, so only the additions can overflow */
        if (__builtin_add_overflow(patches - 1 - shared, fresh, &patches)
            || __builtin_add_overflow(debris, 1 + shared, &debris)) {
            status = COUNT_OVERFLOW;
            break;
        }
        removed++;
        if (trajectory) {
            int64_t *row = trajectory + 3 * removed;
            row[0] = removed;
            row[1] = patches;
            row[2] = debris;
        }
    }
    counts[0] = removed;
    counts[1] = patches;
    counts[2] = debris;
    return status;
}
