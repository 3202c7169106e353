/* The three random loops of the package, compiled: the reduced collapse
 * chain, run for a whole batch of replicas (chain.run is a batch of one,
 * montecarlo's replica batches are the others), the uniform subsets of one
 * edge size of hypergraph.sample_poisson, and the patch loop of the exact
 * collapse (hypergraph.collapse_all, and with a fixed pick
 * hypergraph.identifiable_set).
 *
 * Each draws with numpy's own routines on a bitgen_t: random_binomial and
 * random_poisson, which Generator.binomial and Generator.poisson call, and
 * random_bounded_uint64_fill, which Generator.integers calls.  The bitgen_t
 * is a Generator's own, or, for a chain replica given by its seed, a PCG64
 * on the C stack seeded as np.random.PCG64(seed) seeds it.  The draws come
 * in the same order and with the same arguments as in the Python loops of
 * chain.py and hypergraph.py, so both consume the same stream.  Linked
 * against numpy/random/lib/libnpyrandom.a; chain_kernel.py builds and loads
 * it.
 */
#include <limits.h>
#include <math.h>
#include <stdbool.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#ifndef __SIZEOF_INT128__
#error "the seeded PCG64 needs a 128-bit integer type"
#endif

/* numpy/random/bitgen.h */
typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* numpy's PCG64: a 128-bit LCG with the XSL-RR output, and its buffer of
 * the high half of a 64-bit draw for the next 32-bit one. */
typedef unsigned __int128 u128;
typedef struct {
    u128 state, inc;
    bool has_uint32;
    uint32_t uinteger;
} pcg64_t;

static const u128 PCG_MULTIPLIER =
    (u128)2549297995355413924ULL << 64 | 4865540595714422341ULL;

static uint64_t pcg64_next64(void *st)
{
    pcg64_t *pcg = st;
    pcg->state = pcg->state * PCG_MULTIPLIER + pcg->inc;
    uint64_t x = (uint64_t)(pcg->state >> 64) ^ (uint64_t)pcg->state;
    unsigned rot = (unsigned)(pcg->state >> 122);
    return x >> rot | x << (-rot & 63);
}

static uint32_t pcg64_next32(void *st)
{
    pcg64_t *pcg = st;
    if (pcg->has_uint32) {
        pcg->has_uint32 = false;
        return pcg->uinteger;
    }
    uint64_t next = pcg64_next64(pcg);
    pcg->has_uint32 = true;
    pcg->uinteger = (uint32_t)(next >> 32);
    return (uint32_t)next;
}

static double pcg64_next_double(void *st)
{
    return (double)(pcg64_next64(st) >> 11) * (1.0 / 9007199254740992.0);
}

/* numpy's SeedSequence hash of its entropy words */
enum { POOL = 4, XSHIFT = 16 };
static const uint32_t INIT_A = 0x43b0d7e5, MULT_A = 0x931e8875,
                      INIT_B = 0x8b51f9dd, MULT_B = 0x58f38ded,
                      MIX_MULT_L = 0xca01f9dd, MIX_MULT_R = 0x4973f715;

static uint32_t hashmix(uint32_t value, uint32_t *hash_const)
{
    value ^= *hash_const;
    *hash_const *= MULT_A;
    value *= *hash_const;
    return value ^ value >> XSHIFT;
}

static uint32_t mix(uint32_t x, uint32_t y)
{
    uint32_t result = MIX_MULT_L * x - MIX_MULT_R * y;
    return result ^ result >> XSHIFT;
}

/* Seed pcg as np.random.PCG64(seed) does, for a seed below 2**128, and
 * return its bitgen_t.  SeedSequence(seed) takes the seed's 32-bit words,
 * least significant first, as its entropy (one to four of them) and
 * hashes each into its pool of four, a zero where the entropy runs out:
 * so the seed's four words, zeros above its top word included, give the
 * same pool.  generate_state(4, uint64) hashes the pool, cycled, into
 * eight 32-bit words, paired little-endian into four 64-bit words; PCG64
 * takes its state from the first two and its increment from the last two,
 * the first of each pair the high half. */
static bitgen_t *pcg64_seed(bitgen_t *bitgen, pcg64_t *pcg, u128 seed)
{
    uint32_t pool[POOL], hash_const = INIT_A;
    uint64_t words[4] = {0};

    for (int i = 0; i < POOL; i++)
        pool[i] = hashmix((uint32_t)(seed >> 32 * i), &hash_const);
    for (int src = 0; src < POOL; src++)
        for (int dst = 0; dst < POOL; dst++)
            if (src != dst)
                pool[dst] = mix(pool[dst], hashmix(pool[src], &hash_const));
    hash_const = INIT_B;
    for (int i = 0; i < 8; i++) {
        uint32_t value = pool[i % POOL] ^ hash_const;
        hash_const *= MULT_B;
        value *= hash_const;
        value ^= value >> XSHIFT;
        words[i / 2] |= (uint64_t)value << 32 * (i % 2);
    }
    pcg->state = 0;
    pcg->inc = ((u128)words[2] << 64 | words[3]) << 1 | 1;
    pcg64_next64(pcg);
    pcg->state += (u128)words[0] << 64 | words[1];
    pcg64_next64(pcg);
    pcg->has_uint32 = false;
    pcg->uinteger = 0;
    *bitgen = (bitgen_t){pcg, pcg64_next64, pcg64_next32, pcg64_next_double,
                         pcg64_next64};
    return bitgen;
}

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
void random_bounded_uint64_fill(bitgen_t *bitgen_state, uint64_t off,
                                uint64_t rng, intptr_t cnt, bool use_masked,
                                uint64_t *out);

enum { OK = 0, LAM_NAN_OR_NEGATIVE = 1, LAM_TOO_LARGE = 2, COUNT_OVERFLOW = 3,
       NO_MEMORY = 4, BAD_EDGES = 5, BAD_SUBSETS = 6 };

/* Generator.poisson(lam): its checks on the mean, in its order, then its
 * draw into *count; a failed check returns its status before any draw.
 * The largest mean it takes is numpy's POISSON_LAM_MAX, which numpy
 * derives from the C long range as below. */
static int poisson(bitgen_t *bitgen, double lam, int64_t *count)
{
    if (!(lam >= 0.0))
        return LAM_NAN_OR_NEGATIVE;
    if (lam > (double)LONG_MAX - sqrt((double)LONG_MAX) * 10)
        return LAM_TOO_LARGE;
    *count = random_poisson(bitgen, lam);
    return OK;
}

/* max(dev, |count / n - fluid|) as numpy's max takes it: a NaN stays. */
static double farther(double dev, int64_t count, double n, double fluid)
{
    double d = fabs((double)count / n - fluid);
    return d > dev || d != d ? d : dev;
}

/* Row k of a run on n vertices, (k, patches, debris): written to row k of
 * trajectory, if not NULL, and, if fluid is not NULL, its distance from
 * row k of the fluid path folded into *dev.  It runs once per step, and
 * gcc -O2 keeps a function with four callers out of line unless inline. */
static inline void observe(int64_t k, int64_t patches, int64_t debris,
                           int64_t *trajectory, const double *fluid,
                           double n, double *dev)
{
    if (trajectory) {
        int64_t *row = trajectory + 3 * k;
        row[0] = k;
        row[1] = patches;
        row[2] = debris;
    }
    if (fluid) {
        const double *row = fluid + 3 * k;
        *dev = farther(farther(*dev, patches, n, row[1]), debris, n, row[2]);
    }
}

/* Run count replicas of the chain on n vertices: when seeds is not NULL,
 * replica r on a PCG64 seeded as np.random.PCG64(seeds[count + r] << 64 |
 * seeds[r]), where seeds holds the count low words, then the count high
 * words; else one replica (count is then 1) on the bit generator bitgen.
 * Each replica draws patches ~ Poisson(mean_patches), then debris ~
 * Poisson(mean_debris), and steps until no patches remain or removed = n.
 * rates holds n doubles.  Replica r's removed and final debris go to
 * out[2r] and out[2r + 1].
 *
 * fluid, if not NULL, holds (n + 1) * 3 doubles, row k the fluid path at
 * t = k/n; deviation[r] then receives the largest |patches/n - fluid[k][1]|
 * and |debris/n - fluid[k][2]| over the rows k = 0..removed of replica r's
 * trajectory, which has removed = k in row k.  trajectory, if not NULL
 * (count must then be 1), holds (n + 1) * 3 int64 and receives the rows
 * (removed, patches, debris).  observe takes row 0, before the first step,
 * and the row after each step.
 *
 * poisson draws every count.  A mean that it rejects (not >= 0, or above
 * numpy's limit, as Generator.poisson rejects it) stops the batch before
 * that draw, as the Python loop stops: the debris mean is checked after the
 * patches are drawn, and a step's mean after that step's binomial draw.  A
 * count beyond the int64 range stops it too.  The return value says why;
 * the replicas before the failing one are complete, and the later ones do
 * not run. */
int chain_batch(int64_t n, const double *rates, int64_t count,
                bitgen_t *bitgen, const uint64_t *seeds,
                double mean_patches, double mean_debris, const double *fluid,
                int64_t *out, double *deviation, int64_t *trajectory)
{
    binomial_t binomial;
    bitgen_t seeded;
    pcg64_t pcg;
    double nd = (double)n;

    for (int64_t r = 0; r < count; r++) {
        if (seeds)
            bitgen = pcg64_seed(&seeded, &pcg,
                                (u128)seeds[count + r] << 64 | seeds[r]);
        int64_t removed = 0, patches, debris, fresh;
        double dev = -INFINITY;
        int status = poisson(bitgen, mean_patches, &patches);
        if (!status)
            status = poisson(bitgen, mean_debris, &debris);
        if (status)
            return status;

        memset(&binomial, 0, sizeof binomial);
        observe(0, patches, debris, trajectory, fluid, nd, &dev);
        while (patches > 0 && removed < n) {
            int64_t left = n - removed;
            int64_t shared = random_binomial(bitgen, 1.0 / (double)left,
                                             patches - 1, &binomial);
            status = poisson(bitgen, (double)(left - 1) * rates[removed],
                             &fresh);
            if (status)
                return status;
            /* shared <= patches - 1, so only the additions can overflow */
            if (__builtin_add_overflow(patches - 1 - shared, fresh, &patches)
                || __builtin_add_overflow(debris, 1 + shared, &debris))
                return COUNT_OVERFLOW;
            observe(++removed, patches, debris, trajectory, fluid, nd, &dev);
        }
        out[2 * r] = removed;
        out[2 * r + 1] = debris;
        if (fluid)
            deviation[r] = dev;
    }
    return OK;
}

/* Draw count uniform size-subsets of [0, n), one after another, into out
 * (count * size int64): each takes random_bounded_uint64_fill draws on
 * [0, n - 1], the draws of Generator.integers(n), until it holds size
 * distinct ids, which go to out in the order first drawn.  A hash table of
 * at least 2 * size slots finds the repeats; each slot records the subset
 * that filled it, so a slot of an earlier subset counts as empty and the
 * table is never cleared.  out holds at least size int64, so 2 * size does
 * not overflow size_t.  Returns OK, NO_MEMORY, or BAD_SUBSETS, before
 * any draw, when n < 1, size < 0, size > n or count < 0: no subset could
 * be drawn. */
int uniform_subsets(int64_t n, int64_t size, int64_t count, bitgen_t *bitgen,
                    int64_t *out)
{
    if (n < 1 || size < 0 || size > n || count < 0)
        return BAD_SUBSETS;
    if (size == 0 || count == 0)
        return OK;
    int bits = 1;
    while ((size_t)1 << bits < 2 * (size_t)size)
        bits++;
    size_t mask = ((size_t)1 << bits) - 1;
    struct slot { uint64_t id; int64_t subset; } *table = calloc(mask + 1,
                                                                 sizeof *table);
    if (!table)
        return NO_MEMORY;
    for (int64_t s = 1; s <= count; s++) {
        for (int64_t held = 0; held < size;) {
            uint64_t v;
            random_bounded_uint64_fill(bitgen, 0, (uint64_t)n - 1, 1, false, &v);
            /* Fibonacci hashing: the top bits of v times 2**64 / phi */
            size_t i = (size_t)(v * 0x9e3779b97f4a7c15ULL >> (64 - bits));
            while (table[i].subset == s && table[i].id != v)
                i = (i + 1) & mask;
            if (table[i].subset != s) {
                table[i].id = v;
                table[i].subset = s;
                *out++ = (int64_t)v;
                held++;
            }
        }
    }
    free(table);
    return OK;
}

/* Collapse a hypergraph on n vertices until no patches remain.  Edge e
 * has sizes[e] distinct vertex ids, listed in ids (n_ids in all) after
 * those of edges 0..e-1.  Each step picks an entry of the bag of patch
 * edges as Generator.integers(len) does (nothing is drawn for a bag of
 * one), or, when bitgen is NULL, the last entry, with no draw; an entry
 * whose edge has lost its last vertex is stale and leaves the bag,
 * otherwise the edge's vertex is removed from every edge holding it.  An
 * edge keeps only its remaining size and the XOR of its remaining ids,
 * which is the vertex once one is left.  The removed vertices go to
 * identified (n int64), in removal order; trajectory, if not NULL, holds
 * (n + 1) * 3 int64 and receives (removed, patches, debris) from observe,
 * with no fluid path, before the first removal and after each.  Returns
 * the number removed, -NO_MEMORY, or -BAD_EDGES, before any draw, when the
 * sizes do not add up to n_ids or an id is outside [0, n). */
int64_t collapse_steps(int64_t n, int64_t n_edges, const int64_t *sizes,
                       int64_t n_ids, const int64_t *ids, bitgen_t *bitgen,
                       int64_t *identified, int64_t *trajectory)
{
    int64_t listed = 0, patches = 0, debris = 0, removed = 0, bagged = 0;
    for (int64_t e = 0; e < n_edges; e++) {
        if (sizes[e] < 0 || sizes[e] > n_ids - listed)
            return -BAD_EDGES;
        listed += sizes[e];
        patches += sizes[e] == 1;
        debris += sizes[e] == 0;
    }
    if (listed != n_ids)
        return -BAD_EDGES;
    for (int64_t i = 0; i < n_ids; i++)
        if (ids[i] < 0 || ids[i] >= n)
            return -BAD_EDGES;
    /* incidence of vertex v: edges[first[v]] .. edges[first[v + 1] - 1];
     * every block has room for one more, as malloc(0) may return NULL */
    int64_t *first = calloc((size_t)n + 1, sizeof *first);
    int64_t *edges = malloc(((size_t)n_ids + 1) * sizeof *edges);
    int64_t *left = malloc(((size_t)n_edges + 1) * sizeof *left);
    int64_t *xor = malloc(((size_t)n_edges + 1) * sizeof *xor);
    int64_t *bag = malloc(((size_t)n_edges + 1) * sizeof *bag);
    if (!first || !edges || !left || !xor || !bag) {
        removed = -NO_MEMORY;
        goto done;
    }
    for (int64_t i = 0; i < n_ids; i++)
        first[ids[i] + 1]++;
    for (int64_t v = 0; v < n; v++)
        first[v + 1] += first[v];
    /* fill each list in edge order, advancing first[v] to its end ... */
    for (int64_t e = 0, i = 0; e < n_edges; e++) {
        int64_t x = 0;
        for (int64_t end = i + sizes[e]; i < end; i++) {
            edges[first[ids[i]]++] = e;
            x ^= ids[i];
        }
        left[e] = sizes[e];
        xor[e] = x;
        if (sizes[e] == 1)
            bag[bagged++] = e;
    }
    /* ... which is the start of the next one */
    memmove(first + 1, first, (size_t)n * sizeof *first);
    first[0] = 0;

    observe(0, patches, debris, trajectory, NULL, 0.0, NULL);
    while (bagged > 0) {
        uint64_t k = (uint64_t)(bagged - 1);
        if (bitgen)
            random_bounded_uint64_fill(bitgen, 0, k, 1, false, &k);
        int64_t e = bag[k];
        if (left[e] != 1) {
            bag[k] = bag[--bagged];
            continue;
        }
        int64_t v = xor[e];
        for (int64_t i = first[v]; i < first[v + 1]; i++) {
            int64_t other = edges[i];
            xor[other] ^= v;
            if (--left[other] == 1) {
                bag[bagged++] = other;
                patches++;
            } else if (left[other] == 0) {
                patches--;
                debris++;
            }
        }
        identified[removed++] = v;
        observe(removed, patches, debris, trajectory, NULL, 0.0, NULL);
    }
done:
    free(first);
    free(edges);
    free(left);
    free(xor);
    free(bag);
    return removed;
}
