/* Compiled hot-path kernels behind repro.kernels.
 *
 * Four functions, mirroring the pure-NumPy implementations in
 * repro/kernels/_numpy.py bit for bit:
 *
 *  - repro_minhash_signatures: ragged CSR MinHash.  One walk over each
 *    row's token list, updating all hash slots per token (the
 *    universal-hashing form h(x) = (a*x + b) mod p with the Mersenne
 *    p = 2^31 - 1 shortcut reduction) — no (n_hashes, n_tokens)
 *    intermediate, no per-hash pass over the whole token stream.
 *  - repro_count_update: the (k, m, n_categories) count-tensor
 *    scatter-add plus the post-update gather of each triple's final
 *    count.  Rows are visited in a caller-supplied label-sorted order
 *    so consecutive updates hit the same cluster block.
 *  - repro_nearest_modes: each row's first-minimum matching distance
 *    to all k modes, read off the sorted runs of the mode postings
 *    (repro/kmodes/postings.py), with the keep-current rule.  One
 *    counter per mode instead of a (rows, k) distance block.
 *  - repro_shortlist_matching: each row's first-minimum matching
 *    distance over its ragged, sorted candidate list, without the
 *    padded (rows, smax, m) centroid tiles the NumPy loop gathers.
 *
 * The MinHash loop runs on 32-bit lanes.  Tokens and coefficients
 * live below 2^31, so the coefficients are narrowed to uint32 once per
 * call, each token is read as a uint32, a*x + b is a 32x32->64
 * widening multiply plus an add (< 2^62, exact), and the first
 * Mersenne fold brings it below 2^32, where the second fold, the final
 * subtract and the running minimum stay in uint32 — the same
 * two-fold sequence the NumPy path (UniversalHashFamily._reduce)
 * performs in int64, so every slot is bit-identical.  On x86-64 glibc
 * builds the loop is compiled three times (AVX-512, AVX2 and the
 * baseline ISA) and the dynamic loader picks the clone the CPU
 * supports when the library loads; one source, one artifact.  Defining
 * REPRO_NO_CLONES compiles only the clone the compiler flags select
 * (the conformance tests build the baseline and AVX2 loops that way).
 *
 * Compiled on demand by repro/kernels/_cbuild.py with the system C
 * compiler.  Every loop is single-threaded: row parallelism belongs
 * to the engine backends, which split items across workers before any
 * kernel runs.  The Python wrappers validate shapes, ids and labels
 * before the call, so no function here reads outside its arrays.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define REPRO_P31 2147483647U /* 2^31 - 1, the Mersenne prime modulus */

#if defined(__x86_64__) && defined(__GLIBC__) && !defined(REPRO_NO_CLONES) \
    && defined(__has_attribute)
#if __has_attribute(target_clones)
#define REPRO_CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#endif
#endif
#ifndef REPRO_CLONES
#define REPRO_CLONES
#endif

/* Exact y mod (2^31 - 1) for y < 2^62: the first fold leaves
 * (2^31 - 1) + (2^31 - 1) < 2^32, so the rest runs in uint32. */
static inline uint32_t repro_reduce31(uint64_t y)
{
    uint32_t z = (uint32_t)(y & REPRO_P31) + (uint32_t)(y >> 31);
    z = (z & REPRO_P31) + (z >> 31);
    return z >= REPRO_P31 ? z - REPRO_P31 : z;
}

/* Returns 0, or -1 when the scratch lanes cannot be allocated (out is
 * then unspecified). */
REPRO_CLONES
int repro_minhash_signatures(
    int64_t n_items,
    int64_t n_hashes,
    const int64_t *indices,
    const int64_t *indptr,
    const int64_t *a,
    const int64_t *b,
    int64_t empty_slot,
    int64_t *out)
{
    uint32_t *a32, *b32, *mins;
    int64_t i, h, t;
    if (n_items <= 0 || n_hashes <= 0)
        return 0;
    if ((uint64_t)n_hashes > SIZE_MAX / (3 * sizeof(uint32_t)))
        return -1;
    a32 = malloc(3 * (size_t)n_hashes * sizeof(uint32_t));
    if (a32 == NULL)
        return -1;
    b32 = a32 + n_hashes;
    mins = b32 + n_hashes;
    for (h = 0; h < n_hashes; h++) {
        a32[h] = (uint32_t)a[h];
        b32[h] = (uint32_t)b[h];
    }
    for (i = 0; i < n_items; i++) {
        int64_t *row = out + i * n_hashes;
        const int64_t start = indptr[i];
        const int64_t stop = indptr[i + 1];
        if (start == stop) {
            for (h = 0; h < n_hashes; h++)
                row[h] = empty_slot;
            continue;
        }
        for (h = 0; h < n_hashes; h++)
            mins[h] = UINT32_MAX;
        for (t = start; t < stop; t++) {
            const uint64_t x = (uint32_t)indices[t];
            for (h = 0; h < n_hashes; h++) {
                const uint32_t v = repro_reduce31((uint64_t)a32[h] * x + b32[h]);
                mins[h] = v < mins[h] ? v : mins[h];
            }
        }
        for (h = 0; h < n_hashes; h++)
            row[h] = (int64_t)mins[h];
    }
    free(a32);
    return 0;
}

void repro_count_update(
    int64_t n_rows,
    int64_t n_attrs,
    int64_t capacity,
    const int64_t *values,
    const int64_t *labels,
    const int64_t *order,
    int64_t *dense,
    int64_t *new_counts)
{
    int64_t s, r;
    /* Accumulate in label-sorted order: consecutive rows share a
     * cluster block, so the tensor walks stay cache-resident.  The
     * adds are order-independent, so the result equals np.add.at. */
    for (s = 0; s < n_rows; s++) {
        const int64_t row = order[s];
        const int64_t *vrow = values + row * n_attrs;
        int64_t *block = dense + labels[row] * n_attrs * capacity;
        int64_t j;
        for (j = 0; j < n_attrs; j++)
            block[j * capacity + vrow[j]] += 1;
    }
    /* Gather every triple's count after the whole batch landed, so
     * duplicate triples all read the same final value (the contract
     * the incremental-argmax update relies on). */
    for (r = 0; r < n_rows; r++) {
        const int64_t *vrow = values + r * n_attrs;
        const int64_t *block = dense + labels[r] * n_attrs * capacity;
        int64_t *crow = new_counts + r * n_attrs;
        int64_t j;
        for (j = 0; j < n_attrs; j++)
            crow[j] = block[j * capacity + vrow[j]];
    }
}

/* Returns 0, or -1 when the per-mode counters cannot be allocated.
 *
 * The postings hold the k modes attribute-major: attribute a owns
 * positions [a*k, (a+1)*k) of members, sorted by code, and each run of
 * equal codes has one key a*span + (code - low) in run_keys (ascending),
 * its first position in run_starts and its size in run_lengths;
 * attr_runs[a] is attribute a's first run (n_attrs + 1 entries).  The
 * caller guarantees n_attrs * span < 2^63, so no key overflows, and
 * current[i] < k; current may be NULL.  Counters are int32: a mode's
 * count moves by at most one per attribute. */
int repro_nearest_modes(
    int64_t n_rows,
    int64_t n_attrs,
    int64_t k,
    const int64_t *X,
    const int64_t *current,
    int64_t low,
    int64_t span,
    const int64_t *members,
    const int64_t *run_keys,
    const int64_t *run_starts,
    const int64_t *run_lengths,
    const int64_t *attr_runs,
    int64_t *labels,
    int64_t *distances)
{
    int32_t *hits;
    int64_t i, a, j;
    if (n_rows <= 0)
        return 0;
    if (k <= 0 || (uint64_t)k > SIZE_MAX / sizeof(int32_t))
        return -1;
    hits = malloc((size_t)k * sizeof(int32_t));
    if (hits == NULL)
        return -1;
    for (i = 0; i < n_rows; i++) {
        const int64_t *row = X + i * n_attrs;
        /* long runs: a match for every mode, their complements scanned */
        int64_t everyone = 0;
        int64_t best = 0;
        int32_t top;
        memset(hits, 0, (size_t)k * sizeof(int32_t));
        for (a = 0; a < n_attrs; a++) {
            /* unsigned: codes outside [low, low + span) wrap past span */
            const uint64_t code = (uint64_t)row[a] - (uint64_t)low;
            const int64_t *base = run_keys + attr_runs[a];
            int64_t len = attr_runs[a + 1] - attr_runs[a];
            int64_t key, r, start, stop;
            if (code >= (uint64_t)span || len <= 0)
                continue;
            key = a * span + (int64_t)code;
            /* branchless search for the last run key <= key */
            while (len > 1) {
                const int64_t half = len / 2;
                base = base[half] <= key ? base + half : base;
                len -= half;
            }
            if (*base != key)
                continue;
            r = base - run_keys;
            start = run_starts[r];
            stop = start + run_lengths[r];
            if (2 * run_lengths[r] > k) {
                const int64_t first = a * k;
                everyone++;
                for (j = first; j < start; j++)
                    hits[members[j]]--;
                for (j = stop; j < first + k; j++)
                    hits[members[j]]--;
            } else {
                for (j = start; j < stop; j++)
                    hits[members[j]]++;
            }
        }
        /* the first mode with the most matches is the first minimum
         * distance; the max pass vectorises, the find stops early */
        top = hits[0];
        for (j = 1; j < k; j++)
            top = hits[j] > top ? hits[j] : top;
        while (hits[best] != top)
            best++;
        if (current != NULL && current[i] >= 0 && hits[current[i]] >= top)
            best = current[i];
        labels[i] = best;
        distances[i] = n_attrs - everyone - hits[best];
    }
    free(hits);
    return 0;
}

/* Candidates concatenate each row's sorted list (sizes[i] >= 1 entries,
 * ids in [0, k)); the first minimum is the smallest id among ties. */
void repro_shortlist_matching(
    int64_t n_rows,
    int64_t n_attrs,
    const int64_t *block,
    const int64_t *candidates,
    const int64_t *sizes,
    const int64_t *centroids,
    int64_t *labels,
    int64_t *distances)
{
    const int64_t *candidate = candidates;
    int64_t i, s, a;
    for (i = 0; i < n_rows; i++) {
        const int64_t *row = block + i * n_attrs;
        int64_t best = candidate[0];
        int64_t best_distance = n_attrs + 1;
        for (s = 0; s < sizes[i]; s++) {
            const int64_t *mode = centroids + candidate[s] * n_attrs;
            int64_t d = 0;
            for (a = 0; a < n_attrs; a++)
                d += row[a] != mode[a];
            if (d < best_distance) {
                best_distance = d;
                best = candidate[s];
            }
        }
        candidate += sizes[i];
        labels[i] = best;
        distances[i] = best_distance;
    }
}
