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
 * All integer arithmetic is int64 and exact: tokens and coefficients
 * live below 2^31, so a*x + b < 2^62 never overflows, and the
 * two-fold Mersenne reduction is the same sequence the NumPy path
 * (UniversalHashFamily._reduce) performs.
 *
 * Compiled on demand by repro/kernels/_cbuild.py with the system C
 * compiler.  Both loops are single-threaded: row parallelism belongs
 * to the engine backends, which split items across workers before any
 * kernel runs.
 */

#include <stdint.h>

#define REPRO_P31 2147483647ULL /* 2^31 - 1, the Mersenne prime modulus */

/* Unsigned on purpose: a, b, x all sit below 2^31, so a*x + b < 2^62
 * and signed/unsigned arithmetic agree — but the unsigned form lets
 * the compiler use the 32x32->64 widening multiply and vectorise the
 * hash loop, which is worth ~1.4x on this kernel. */
static inline uint64_t repro_reduce31(uint64_t y)
{
    y = (y & REPRO_P31) + (y >> 31);
    y = (y & REPRO_P31) + (y >> 31);
    return y >= REPRO_P31 ? y - REPRO_P31 : y;
}

void repro_minhash_signatures(
    int64_t n_items,
    int64_t n_hashes,
    const int64_t *indices,
    const int64_t *indptr,
    const int64_t *a,
    const int64_t *b,
    int64_t empty_slot,
    int64_t *out)
{
    int64_t i;
    for (i = 0; i < n_items; i++) {
        uint64_t *row = (uint64_t *)(out + i * n_hashes);
        const int64_t start = indptr[i];
        const int64_t stop = indptr[i + 1];
        int64_t h, t;
        for (h = 0; h < n_hashes; h++)
            row[h] = (uint64_t)empty_slot;
        for (t = start; t < stop; t++) {
            const uint64_t x = (uint64_t)indices[t];
            for (h = 0; h < n_hashes; h++) {
                const uint64_t v =
                    repro_reduce31((uint64_t)a[h] * x + (uint64_t)b[h]);
                if (v < row[h])
                    row[h] = v;
            }
        }
    }
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
