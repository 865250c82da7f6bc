/* Compiled hot-path kernels behind repro.kernels.
 *
 * Two functions, mirroring the pure-NumPy implementations in
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
 * compiler.  Both loops are single-threaded: row parallelism belongs
 * to the engine backends, which split items across workers before any
 * kernel runs.
 */

#include <stdint.h>
#include <stdlib.h>

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
