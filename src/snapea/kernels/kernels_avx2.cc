/**
 * @file
 * AVX2 kernels: 8 output windows per 256-bit register, one SIMD lane
 * per window (the vector analogue of the paper's multi-lane PE).
 * Each lane accumulates its window's taps in plan order with
 * separate mul and add, so results are bitwise identical to the
 * scalar reference; the relaxed variants (SNAPEA_RELAXED_ACCUM)
 * substitute fused multiply-add.
 *
 * The row kernels run groups of 4, then 2, then 1 register tiles:
 * every tile of a group takes the same weight broadcast, and its
 * independent add chain hides the others' FP-add latency.  The walk
 * checks signs once per block of 8 negative-run taps and re-runs
 * only a block in which a tile's lane fired (see WalkRowFn).  Ragged
 * `n % 8` row tails use masked loads/gathers/stores for the dense and
 * prefix kernels and the scalar reference for the walk kernel.
 *
 * This TU is compiled with -mavx2 -mfma (see src/snapea/
 * CMakeLists.txt) and only ever called after runtime CPUID dispatch
 * confirms the CPU supports AVX2 (+FMA for the relaxed variants).
 */

#include <immintrin.h>

#include "snapea/kernels/kernels_impl.hh"

namespace snapea::kernels {

namespace {

constexpr int kLanes = 8;

/** Lane indices 0..7, used for tail masks and gather offsets. */
inline __m256i
laneIndex()
{
    return _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
}

/** Mask with lanes [0, rem) active (all bits set). */
inline __m256i
tailMask(int rem)
{
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(rem), laneIndex());
}

/** Gather indices {0, stride, ..., 7*stride}. */
inline __m256i
strideIndex(int stride)
{
    return _mm256_mullo_epi32(laneIndex(), _mm256_set1_epi32(stride));
}

/** One tap of 8 adjacent windows starting at @p p. */
template <bool S1>
inline __m256
load8(const float *p, __m256i vlx)
{
    if constexpr (S1)
        return _mm256_loadu_ps(p);
    else
        return _mm256_i32gather_ps(p, vlx, 4);
}

/** Masked variant of load8 for ragged tails (inactive lanes read 0). */
template <bool S1>
inline __m256
load8Masked(const float *p, __m256i vlx, __m256i mask)
{
    if constexpr (S1)
        return _mm256_maskload_ps(p, mask);
    else
        return _mm256_mask_i32gather_ps(_mm256_setzero_ps(), p, vlx,
                                        _mm256_castsi256_ps(mask), 4);
}

/** acc + w*x, either strictly ordered or contracted (relaxed mode). */
template <bool R>
inline __m256
mad(__m256 acc, __m256 vw, __m256 vx)
{
    if constexpr (R)
        return _mm256_fmadd_ps(vw, vx, acc);
    else
        return _mm256_add_ps(acc, _mm256_mul_ps(vw, vx));
}

/**
 * Taps [t0, t1) of @p G full tiles of 8 windows, tile g starting
 * @p tstep floats after tile g-1, accumulating into out[].
 */
template <int G, bool S1, bool R>
inline void
convTiles(const float *base, size_t tstep, __m256i vlx, const float *w,
          const int32_t *off, int t0, int t1, float *out)
{
    __m256 acc[G];
    for (int g = 0; g < G; ++g)
        acc[g] = _mm256_loadu_ps(out + g * kLanes);
    for (int t = t0; t < t1; ++t) {
        const __m256 vw = _mm256_set1_ps(w[t]);
        for (int g = 0; g < G; ++g)
            acc[g] = mad<R>(acc[g], vw,
                            load8<S1>(base + g * tstep + off[t], vlx));
    }
    for (int g = 0; g < G; ++g)
        _mm256_storeu_ps(out + g * kLanes, acc[g]);
}

template <bool S1, bool R>
void
convRow(const float *win0, int stride, int n, const float *w,
        const int32_t *off, int ntaps, int panel, float bias,
        float *out)
{
    const __m256i vlx = strideIndex(stride);
    const __m256 vbias = _mm256_set1_ps(bias);
    const int rem = n % kLanes;
    const int nv = n - rem;
    const __m256i tmask = tailMask(rem);
    const size_t tstep = static_cast<size_t>(kLanes) * stride;

    for (int x = 0; x < nv; x += kLanes)
        _mm256_storeu_ps(out + x, vbias);
    if (rem)
        _mm256_maskstore_ps(out + nv, tmask, vbias);

    for (int t0 = 0; t0 < ntaps; t0 += panel) {
        const int t1 = std::min(t0 + panel, ntaps);
        int x = 0;
        for (; x + 4 * kLanes <= nv; x += 4 * kLanes)
            convTiles<4, S1, R>(win0 + x * static_cast<size_t>(stride),
                                tstep, vlx, w, off, t0, t1, out + x);
        for (; x + 2 * kLanes <= nv; x += 2 * kLanes)
            convTiles<2, S1, R>(win0 + x * static_cast<size_t>(stride),
                                tstep, vlx, w, off, t0, t1, out + x);
        for (; x < nv; x += kLanes)
            convTiles<1, S1, R>(win0 + x * static_cast<size_t>(stride),
                                tstep, vlx, w, off, t0, t1, out + x);
        if (rem) {
            const float *base = win0 + static_cast<size_t>(nv) * stride;
            __m256 acc = _mm256_maskload_ps(out + nv, tmask);
            for (int t = t0; t < t1; ++t) {
                const __m256 vw = _mm256_set1_ps(w[t]);
                const __m256 vx =
                    load8Masked<S1>(base + off[t], vlx, tmask);
                acc = mad<R>(acc, vw, vx);
            }
            _mm256_maskstore_ps(out + nv, tmask, acc);
        }
    }
}

template <bool S1, bool R>
void
prefixRow(const PackedKernel &pk, const float *win0, int stride, int n,
          float *out)
{
    const float *w = pk.w.data();
    const int32_t *off = pk.off.data();
    const __m256i vlx = strideIndex(stride);
    const __m256 vbias = _mm256_set1_ps(pk.bias);
    const __m256 vth = _mm256_set1_ps(pk.th);
    const __m256 vneg1 = _mm256_set1_ps(-1.0f);
    const int rem = n % kLanes;
    const int nv = n - rem;

    for (int x = 0; x < nv; x += kLanes) {
        const float *base = win0 + static_cast<size_t>(x) * stride;
        __m256 acc = vbias;
        for (int t = 0; t < pk.prefix_len; ++t) {
            const __m256 vw = _mm256_set1_ps(w[t]);
            const __m256 vx = load8<S1>(base + off[t], vlx);
            acc = mad<R>(acc, vw, vx);
        }
        // psum <= th  =>  squash to the PE's negative surrogate.
        const __m256 squash = _mm256_cmp_ps(acc, vth, _CMP_LE_OQ);
        const __m256 cur = _mm256_loadu_ps(out + x);
        _mm256_storeu_ps(out + x,
                         _mm256_blendv_ps(cur, vneg1, squash));
    }
    if (rem) {
        const __m256i tmask = tailMask(rem);
        const float *base = win0 + static_cast<size_t>(nv) * stride;
        __m256 acc = vbias;
        for (int t = 0; t < pk.prefix_len; ++t) {
            const __m256 vw = _mm256_set1_ps(w[t]);
            const __m256 vx = load8Masked<S1>(base + off[t], vlx, tmask);
            acc = mad<R>(acc, vw, vx);
        }
        const __m256 squash = _mm256_cmp_ps(acc, vth, _CMP_LE_OQ);
        const __m256 cur = _mm256_maskload_ps(out + nv, tmask);
        _mm256_maskstore_ps(out + nv, tmask,
                            _mm256_blendv_ps(cur, vneg1, squash));
    }
}

/**
 * The walk of @p G full tiles of 8 windows, tile g starting @p tstep
 * floats after tile g-1, with the negative run checked once per
 * @p block taps.  Rec selects the Instrumented recording policy (out,
 * full, ops, flags); without it only out is written.
 */
template <int G, bool Rec, bool S1, bool R>
void
walkGroup(const PackedKernel &pk, const float *base, size_t tstep,
          __m256i vlx, int block, bool need_full, const WalkSoa &res)
{
    const float *w = pk.w.data();
    const int32_t *off = pk.off.data();
    const int ks = static_cast<int>(pk.w.size());
    const __m256 vzero = _mm256_setzero_ps();
    const __m256 vones = _mm256_castsi256_ps(_mm256_set1_epi32(-1));

    // One weight broadcast feeds the G tiles' independent add chains.
    __m256 acc[G];
    const auto step = [&](int t) {
        const __m256 vw = _mm256_set1_ps(w[t]);
        for (int g = 0; g < G; ++g)
            acc[g] = mad<R>(acc[g], vw,
                            load8<S1>(base + g * tstep + off[t], vlx));
    };

    // Phase 1: speculation prefix plus the PAU threshold check.
    for (int g = 0; g < G; ++g)
        acc[g] = _mm256_set1_ps(pk.bias);
    for (int t = 0; t < pk.prefix_len; ++t)
        step(t);

    // Lanes the walk must settle: those the prefix did not speculate,
    // and with need_full the speculated ones too, whose true sum
    // settles by the same sign rule.  A settled lane's value waits in
    // val[] while its accumulator runs on unobserved.
    __m256 spec[G], live[G], fired[G], val[G];
    __m256i ops[G];
    int live_m[G], fired_m[G];
    bool open = false;
    for (int g = 0; g < G; ++g) {
        spec[g] = pk.prefix_len > 0
            ? _mm256_cmp_ps(acc[g], _mm256_set1_ps(pk.th), _CMP_LE_OQ)
            : vzero;
        live[g] = need_full ? vones : _mm256_andnot_ps(spec[g], vones);
        live_m[g] = _mm256_movemask_ps(live[g]);
        fired[g] = vzero;
        val[g] = vzero;
        fired_m[g] = 0;
        if constexpr (Rec)
            ops[g] = _mm256_set1_epi32(ks);
        open |= live_m[g] != 0;
    }

    if (open) {
        // Phase 2: remaining positive weights, no checks needed.
        int t = pk.prefix_len;
        for (; t < pk.neg_start; ++t)
            step(t);

        // Phase 3: the negative run, one sign check per block.
        while (t < ks) {
            const int t1 = std::min(t + block, ks);
            __m256 save[G];
            for (int g = 0; g < G; ++g)
                save[g] = acc[g];
            for (int u = t; u < t1; ++u)
                step(u);
            bool settled = true;
            for (int g = 0; g < G; ++g) {
                const int neg = _mm256_movemask_ps(
                    _mm256_cmp_ps(acc[g], vzero, _CMP_LT_OQ));
                if (neg & live_m[g] & ~fired_m[g]) {
                    // Re-run this tile's block tap by tap.  The sums
                    // repeat the fast pass bit for bit, so acc[g]
                    // needs no update.
                    const float *tb = base + g * tstep;
                    __m256 a = save[g];
                    for (int u = t; u < t1; ++u) {
                        a = mad<R>(a, _mm256_set1_ps(w[u]),
                                   load8<S1>(tb + off[u], vlx));
                        const __m256 newly = _mm256_andnot_ps(
                            fired[g],
                            _mm256_and_ps(
                                _mm256_cmp_ps(a, vzero, _CMP_LT_OQ),
                                live[g]));
                        val[g] = _mm256_blendv_ps(val[g], a, newly);
                        if constexpr (Rec)
                            ops[g] = _mm256_blendv_epi8(
                                ops[g], _mm256_set1_epi32(u + 1),
                                _mm256_castps_si256(newly));
                        fired[g] = _mm256_or_ps(fired[g], newly);
                    }
                    fired_m[g] = _mm256_movemask_ps(fired[g]);
                }
                settled &= fired_m[g] == live_m[g];
            }
            if (settled)
                break;
            t = t1;
        }
    }

    // Per lane: the settled value (partial sum at the firing tap, or
    // the complete sum), replaced by the PE's -1 where speculated.
    const __m256 vneg1 = _mm256_set1_ps(-1.0f);
    for (int g = 0; g < G; ++g) {
        const __m256 fin = _mm256_blendv_ps(acc[g], val[g], fired[g]);
        _mm256_storeu_ps(res.out + g * kLanes,
                         _mm256_blendv_ps(fin, vneg1, spec[g]));
        if constexpr (Rec) {
            // full: the complete sum of an unterminated window; for a
            // speculated one its settled sum when asked for; else 0.
            const __m256 full = _mm256_blendv_ps(
                _mm256_andnot_ps(fired[g], fin),
                need_full ? fin : vzero, spec[g]);
            _mm256_storeu_ps(res.full + g * kLanes, full);
            const __m256i opsv = _mm256_blendv_epi8(
                ops[g], _mm256_set1_epi32(pk.prefix_len),
                _mm256_castps_si256(spec[g]));
            _mm256_storeu_si256(
                reinterpret_cast<__m256i *>(res.ops + g * kLanes), opsv);
            const int spec_m = _mm256_movemask_ps(spec[g]);
            const int sign_m = fired_m[g] & ~spec_m;
            const uint8_t spec_flags = static_cast<uint8_t>(
                kWalkSpecFired | (need_full ? kWalkFullKnown : 0));
            uint8_t *fl = res.flags + g * kLanes;
            for (int l = 0; l < kLanes; ++l) {
                if (spec_m >> l & 1)
                    fl[l] = spec_flags;
                else if (sign_m >> l & 1)
                    fl[l] = kWalkSignFired;
                else
                    fl[l] = kWalkFullKnown;
            }
        }
    }
}

template <bool Rec, bool S1, bool R>
void
walkRow(const PackedKernel &pk, const float *win0, int stride, int n,
        bool nonneg, bool need_full, const WalkSoa &res)
{
    const __m256i vlx = strideIndex(stride);
    const size_t tstep = static_cast<size_t>(kLanes) * stride;
    const int block = nonneg && pk.neg_finite ? 8 : 1;
    const auto at = [&](int x) {
        return win0 + static_cast<size_t>(x) * stride;
    };
    int x = 0;
    for (; x + 4 * kLanes <= n; x += 4 * kLanes)
        walkGroup<4, Rec, S1, R>(pk, at(x), tstep, vlx, block,
                                 need_full, res.from(x));
    for (; x + 2 * kLanes <= n; x += 2 * kLanes)
        walkGroup<2, Rec, S1, R>(pk, at(x), tstep, vlx, block,
                                 need_full, res.from(x));
    for (; x + kLanes <= n; x += kLanes)
        walkGroup<1, Rec, S1, R>(pk, at(x), tstep, vlx, block,
                                 need_full, res.from(x));
    if (x < n)
        scalarWalkRow(pk, at(x), stride, n - x, nonneg, need_full,
                      res.from(x));
}

template <bool R>
void
convChan(const float *wt, const float *bias8,
         const float *const *bases, int nwin, const int32_t *off,
         int ntaps, float *out8s)
{
    const __m256 vbias = _mm256_loadu_ps(bias8);
    int w = 0;
    // Four windows per pass so a weight row loaded once feeds four
    // accumulators (streams the transposed chunk nwin/4 times
    // instead of nwin).
    for (; w + 4 <= nwin; w += 4) {
        const float *b0 = bases[w], *b1 = bases[w + 1];
        const float *b2 = bases[w + 2], *b3 = bases[w + 3];
        __m256 a0 = vbias, a1 = vbias, a2 = vbias, a3 = vbias;
        for (int j = 0; j < ntaps; ++j) {
            const __m256 vw = _mm256_loadu_ps(wt + j * 8);
            const int32_t o = off[j];
            a0 = mad<R>(a0, vw, _mm256_broadcast_ss(b0 + o));
            a1 = mad<R>(a1, vw, _mm256_broadcast_ss(b1 + o));
            a2 = mad<R>(a2, vw, _mm256_broadcast_ss(b2 + o));
            a3 = mad<R>(a3, vw, _mm256_broadcast_ss(b3 + o));
        }
        _mm256_storeu_ps(out8s + w * 8, a0);
        _mm256_storeu_ps(out8s + (w + 1) * 8, a1);
        _mm256_storeu_ps(out8s + (w + 2) * 8, a2);
        _mm256_storeu_ps(out8s + (w + 3) * 8, a3);
    }
    for (; w < nwin; ++w) {
        const float *base = bases[w];
        __m256 acc = vbias;
        for (int j = 0; j < ntaps; ++j) {
            const __m256 vw = _mm256_loadu_ps(wt + j * 8);
            acc = mad<R>(acc, vw, _mm256_broadcast_ss(base + off[j]));
        }
        _mm256_storeu_ps(out8s + w * 8, acc);
    }
}

/** Double-precision acc + w*x (strict or contracted). */
template <bool R>
inline __m256d
madPd(__m256d acc, __m256d vw, __m256d vx)
{
    if constexpr (R)
        return _mm256_fmadd_pd(vw, vx, acc);
    else
        return _mm256_add_pd(acc, _mm256_mul_pd(vw, vx));
}

template <bool R>
void
denseRows(const float *w, const float *x, const float *bias, int n_in,
          int n_out, float *out)
{
    const int n8 = n_in & ~7;
    for (int o = 0; o < n_out; ++o) {
        const float *wr = w + static_cast<size_t>(o) * n_in;
        // Two 4-double accumulators carry the eight interleaved
        // lanes of the DenseFn contract (lane j takes i == j mod 8).
        __m256d accl = _mm256_setzero_pd();
        __m256d acch = _mm256_setzero_pd();
        int i = 0;
        for (; i < n8; i += 8) {
            accl = madPd<R>(accl,
                            _mm256_cvtps_pd(_mm_loadu_ps(wr + i)),
                            _mm256_cvtps_pd(_mm_loadu_ps(x + i)));
            acch = madPd<R>(acch,
                            _mm256_cvtps_pd(_mm_loadu_ps(wr + i + 4)),
                            _mm256_cvtps_pd(_mm_loadu_ps(x + i + 4)));
        }
        double a[8];
        _mm256_storeu_pd(a, accl);
        _mm256_storeu_pd(a + 4, acch);
        double acc = static_cast<double>(bias[o]);
        acc += ((a[0] + a[1]) + (a[2] + a[3]))
            + ((a[4] + a[5]) + (a[6] + a[7]));
        for (; i < n_in; ++i)
            acc += static_cast<double>(wr[i]) * x[i];
        out[o] = static_cast<float>(acc);
    }
}

/** Stride-dispatching wrappers (unit stride loads, else gathers). */
template <bool R>
void
convRowDispatch(const float *win0, int stride, int n, const float *w,
                const int32_t *off, int ntaps, int panel, float bias,
                float *out)
{
    if (stride == 1)
        convRow<true, R>(win0, stride, n, w, off, ntaps, panel, bias,
                         out);
    else
        convRow<false, R>(win0, stride, n, w, off, ntaps, panel, bias,
                          out);
}

template <bool R>
void
prefixRowDispatch(const PackedKernel &pk, const float *win0,
                  int stride, int n, float *out)
{
    if (stride == 1)
        prefixRow<true, R>(pk, win0, stride, n, out);
    else
        prefixRow<false, R>(pk, win0, stride, n, out);
}

template <bool R>
void
walkRowDispatch(const PackedKernel &pk, const float *win0, int stride,
                int n, bool nonneg, bool need_full, const WalkSoa &res)
{
    const bool rec = res.instrumented();
    if (stride == 1) {
        (rec ? walkRow<true, true, R> : walkRow<false, true, R>)(
            pk, win0, stride, n, nonneg, need_full, res);
    } else {
        (rec ? walkRow<true, false, R> : walkRow<false, false, R>)(
            pk, win0, stride, n, nonneg, need_full, res);
    }
}

} // namespace

const KernelOps &
avx2KernelOps(bool relaxed)
{
    static const KernelOps strict = {
        "avx2", Isa::Avx2, kLanes,
        &convRowDispatch<false>, &prefixRowDispatch<false>,
        &walkRowDispatch<false>, &denseRows<false>, &convChan<false>,
    };
    static const KernelOps fma = {
        "avx2+fma", Isa::Avx2, kLanes,
        &convRowDispatch<true>, &prefixRowDispatch<true>,
        &walkRowDispatch<true>, &denseRows<true>, &convChan<true>,
    };
    return relaxed ? fma : strict;
}

} // namespace snapea::kernels
