/*
 * The compiled kernel tier: scan_select, fused Stage PQDist + Stage SelK
 * for one block of IVF-PQ queries, and seed_step, the inner pass of one
 * k-means++ seeding step (at the end of this file).
 *
 * The numpy stages in repro/ann/ivf.py are scan_select's reference; it
 * must equal them bit for bit (ids and float32 distances, ties included).
 * Three things make that hold:
 *
 *  - each (query, cell) pair table is built as IVFPQIndex.pair_tables
 *    builds it: terms[cell][i] + qterms[q][i], then dis0 added to every
 *    entry of sub-space 0's row, one float32 add at a time;
 *  - adc() adds a code's m table entries in exactly the order numpy's
 *    contiguous float32 row sum uses (pairwise_sum in numpy's loops, for
 *    m <= 128), and the build flags forbid contraction into FMAs and any
 *    fast-math reassociation.
 *  - each query keeps one bounded max-heap keyed on (distance, id), the
 *    repo's canonical candidate order, so the k survivors and their final
 *    ascending order are those of a (distance, id) lexsort.
 *
 * Called through ctypes.CDLL, so the interpreter lock is released for the
 * whole call; neither function touches a Python object or keeps state.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

/*
 * Sum of lut[j][code[j]] over j in numpy's order:
 *   m < 8:  left to right from -0.0;
 *   m >= 8: eight accumulators seeded with the first eight terms, each
 *           full block of eight added lane-wise, the lanes combined as
 *           ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the tail left to right.
 * The leading 0.0f + is the reduction's identity, which numpy adds first
 * (it turns a -0.0 sum into +0.0).
 */
static inline float adc(const float *lut, const uint8_t *code, int m, int ksub)
{
    if (m < 8) {
        float s = -0.0f;
        for (int j = 0; j < m; j++)
            s += lut[j * ksub + code[j]];
        return 0.0f + s;
    }
    float r[8];
    for (int l = 0; l < 8; l++)
        r[l] = lut[l * ksub + code[l]];
    int j = 8;
    for (; j + 8 <= m; j += 8)
        for (int l = 0; l < 8; l++)
            r[l] += lut[(j + l) * ksub + code[j + l]];
    float s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    for (; j < m; j++)
        s += lut[j * ksub + code[j]];
    return 0.0f + s;
}

/* (da, ia) ranks after (db, ib) in the canonical (distance, id) order. */
static inline int after(float da, int64_t ia, float db, int64_t ib)
{
    return da > db || (da == db && ia > ib);
}

static inline void swap(float *d, int64_t *id, int64_t a, int64_t b)
{
    float td = d[a];
    int64_t ti = id[a];
    d[a] = d[b];
    id[a] = id[b];
    d[b] = td;
    id[b] = ti;
}

/* Restore the max-heap property below slot i of a heap of n entries. */
static void sift_down(float *d, int64_t *id, int64_t n, int64_t i)
{
    for (;;) {
        int64_t l = 2 * i + 1, r = l + 1, w = i;
        if (l < n && after(d[l], id[l], d[w], id[w]))
            w = l;
        if (r < n && after(d[r], id[r], d[w], id[w]))
            w = r;
        if (w == i)
            return;
        swap(d, id, i, w);
        i = w;
    }
}

static void sift_up(float *d, int64_t *id, int64_t i)
{
    while (i > 0) {
        int64_t p = (i - 1) / 2;
        if (!after(d[i], id[i], d[p], id[p]))
            return;
        swap(d, id, i, p);
        i = p;
    }
}

/*
 * Some code byte in [lo, hi) is >= ksub.  The OR of all bytes bounds their
 * maximum from above, so OR < ksub clears the slab in one cheap pass (for a
 * power-of-two ksub that test is exact); otherwise bytes are checked one
 * by one.
 */
static int has_bad_code(const uint8_t *codes, int64_t lo, int64_t hi, int ksub)
{
    uint64_t acc = 0;
    int64_t e = lo;
    for (; e + 8 <= hi; e += 8) {
        uint64_t w;
        memcpy(&w, codes + e, 8);
        acc |= w;
    }
    unsigned b = 0;
    for (; e < hi; e++)
        b |= codes[e];
    for (int s = 0; s < 64; s += 8)
        b |= (unsigned)(acc >> s) & 0xffu;
    if (b < (unsigned)ksub)
        return 0;
    for (e = lo; e < hi; e++)
        if (codes[e] >= ksub)
            return 1;
    return 0;
}

/*
 * terms:   (nlist, m, ksub) float32 term table; cell c's table starts at
 *          terms + c * term_stride (in floats; 0 when every cell shares one).
 * qterms:  (nq, m, ksub) float32 per-query tables, contiguous.
 * dis0:    (nq, nprobe) float32 coarse term of each probed slot.
 * probed:  (nq, nprobe) int64 cell ids; a negative slot is pruned.
 * codes:   (N, m) uint8 row-major; ids: (N,) int64; starts/ends: per-cell
 *          [start, end) ranges into both.
 * lut:     m * ksub floats of scratch for the pair table being scanned.
 * out_ids, out_dists: (nq, k), each row also serving as that query's heap.
 *
 * Returns the number of codes scanned, or -(cell + 1) for the first probed
 * cell that holds a code >= ksub (checked only when ksub < 256, where a
 * byte can exceed it).
 */
int64_t scan_select(
    const float *terms, int64_t term_stride,
    const float *qterms, const float *dis0,
    const int64_t *probed, int64_t nq, int64_t nprobe,
    const uint8_t *codes, const int64_t *ids,
    const int64_t *starts, const int64_t *ends,
    int m, int ksub, int64_t k,
    float *restrict lut,
    int64_t *out_ids, float *out_dists)
{
    const int64_t mk = (int64_t)m * ksub;
    int64_t scanned = 0;
    for (int64_t q = 0; q < nq; q++) {
        float *hd = out_dists + q * k;
        int64_t *hi = out_ids + q * k;
        const float *restrict qt = qterms + q * mk;
        int64_t n = 0;
        for (int64_t p = 0; p < nprobe; p++) {
            int64_t cell = probed[q * nprobe + p];
            if (cell < 0)
                continue;
            int64_t lo = starts[cell], end = ends[cell];
            if (lo == end)
                continue;
            if (ksub < 256 && has_bad_code(codes, lo * m, end * m, ksub))
                return -(cell + 1);
            const float *restrict t = terms + cell * term_stride;
            for (int64_t i = 0; i < mk; i++)
                lut[i] = t[i] + qt[i];
            const float d0 = dis0[q * nprobe + p];
            for (int c = 0; c < ksub; c++)
                lut[c] += d0;
            for (int64_t e = lo; e < end; e++) {
                float d = adc(lut, codes + e * m, m, ksub);
                int64_t id = ids[e];
                if (n < k) {
                    hd[n] = d;
                    hi[n] = id;
                    sift_up(hd, hi, n);
                    n++;
                } else if (after(hd[0], hi[0], d, id)) {
                    hd[0] = d;
                    hi[0] = id;
                    sift_down(hd, hi, n, 0);
                }
            }
            scanned += end - lo;
        }
        /* Heap sort in place: the largest entry moves to the back each step. */
        for (int64_t i = n - 1; i > 0; i--) {
            swap(hd, hi, 0, i);
            sift_down(hd, hi, i, 0);
        }
        for (int64_t i = n; i < k; i++) {
            hd[i] = INFINITY;
            hi[i] = -1;
        }
        /* merge_topk's padding rule: a non-finite distance carries id -1. */
        for (int64_t i = 0; i < n; i++)
            if (!isfinite(hd[i]))
                hi[i] = -1;
    }
    return scanned;
}

/*
 * Column j of one point's row in a k-means++ seeding step: the distance
 * (x_sq + y_sq[j]) - 2 g, clamped as np.maximum(d, 0.0) clamps it, written
 * over g, and np.minimum(closest, distance) added to column j's potential.
 * numpy's minimum and maximum keep the first operand when it is NaN or
 * strictly wins, else the second, so equal operands (+0.0 and -0.0) give
 * the second.
 */
static inline void seed_col(
    float *restrict row, const float *restrict y_sq, float *restrict pot,
    int64_t j, float xs, float c)
{
    float d = (xs + y_sq[j]) - 2.0f * row[j];
    d = (d > 0.0f || isnan(d)) ? d : 0.0f;
    row[j] = d;
    pot[j] += (c < d || isnan(c)) ? c : d;
}

/*
 * One k-means++ seeding step (repro/ann/kmeans.py): the squared distances
 * from n points to t >= 2 candidate seeds, and each candidate's potential.
 * It equals the numpy expressions it replaces bit for bit: the distances
 * are l2_sq's, one float32 operation at a time (seed_col), and the
 * potentials np.minimum(closest[:, None], dist).sum(axis=0).  An axis-0
 * sum of a C-contiguous (n, t >= 2) array is one left-to-right accumulator
 * per column, started at the identity +0.0 (numpy sums pairwise only along
 * a contiguous axis, which a t = 1 column would be).  Columns are taken
 * four at a time, which the compiler turns into vector lanes; each column
 * still sums its points in order.
 *
 * g:       (n, t) float32 product x @ y.T, row-major; overwritten by the
 *          clamped squared distances.
 * x_sq:    (n,) squared norms of the points; y_sq: (t,) of the candidates.
 * closest: (n,) each point's squared distance to its nearest chosen seed.
 * pot:     (t,) out: each candidate's potential, the sum over points of
 *          min(closest, distance).
 */
void seed_step(
    float *restrict g, const float *restrict x_sq, const float *restrict y_sq,
    const float *restrict closest, int64_t n, int64_t t, float *restrict pot)
{
    for (int64_t j = 0; j < t; j++)
        pot[j] = 0.0f;
    for (int64_t i = 0; i < n; i++) {
        float *restrict row = g + i * t;
        const float xs = x_sq[i], c = closest[i];
        int64_t j = 0;
        for (; j + 4 <= t; j += 4)
            for (int l = 0; l < 4; l++)
                seed_col(row, y_sq, pot, j + l, xs, c);
        for (; j < t; j++)
            seed_col(row, y_sq, pot, j, xs, c);
    }
}
