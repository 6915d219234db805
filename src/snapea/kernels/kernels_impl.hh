/**
 * @file
 * Scalar reference implementations of the row kernels, as inline
 * functions so the SIMD translation units can reuse them for ragged
 * row tails their registers cannot cover.  Semantics per window are
 * the module's ground truth: the vector kernels must match these
 * bitwise in default (non-relaxed) mode, and these in turn replicate
 * engine.cc's walkWindow/prefixSum interior arithmetic exactly
 * (bias first, taps in plan order, separate mul and add).
 */

#ifndef SNAPEA_SNAPEA_KERNELS_KERNELS_IMPL_HH
#define SNAPEA_SNAPEA_KERNELS_KERNELS_IMPL_HH

#include <algorithm>

#include "snapea/kernels/kernels.hh"
#include "util/check.hh"

namespace snapea::kernels {

inline void
scalarConvRow(const float *win0, int stride, int n, const float *w,
              const int32_t *off, int ntaps, int panel, float bias,
              float *out)
{
    SNAPEA_DCHECK(panel > 0);
    for (int x = 0; x < n; ++x)
        out[x] = bias;
    // Panel loop outermost: a panel's weights and offsets stay hot
    // while the row of windows streams past.  The accumulator round-
    // trips through out[] between panels; a float store/load is
    // exact, so per-window accumulation order is still tap order.
    for (int t0 = 0; t0 < ntaps; t0 += panel) {
        const int t1 = std::min(t0 + panel, ntaps);
        for (int x = 0; x < n; ++x) {
            const float *win = win0 + static_cast<size_t>(x) * stride;
            float acc = out[x];
            for (int t = t0; t < t1; ++t)
                acc += w[t] * win[off[t]];
            out[x] = acc;
        }
    }
}

inline void
scalarPrefixRow(const PackedKernel &pk, const float *win0, int stride,
                int n, float *out)
{
    const float *w = pk.w.data();
    const int32_t *off = pk.off.data();
    for (int x = 0; x < n; ++x) {
        const float *win = win0 + static_cast<size_t>(x) * stride;
        float psum = pk.bias;
        for (int t = 0; t < pk.prefix_len; ++t)
            psum += w[t] * win[off[t]];
        if (psum <= pk.th)
            out[x] = -1.0f;
    }
}

/**
 * The per-tap walk: every negative-run tap is checked, so this needs
 * no precondition on the input; @p nonneg only arms the checked
 * build's assertion that the vector walks' block check is sound.
 */
inline void
scalarWalkRow(const PackedKernel &pk, const float *win0, int stride,
              int n, bool nonneg, bool need_full, const WalkSoa &res)
{
    const float *w = pk.w.data();
    const int32_t *off = pk.off.data();
    const int ks = static_cast<int>(pk.w.size());
    const bool rec = res.instrumented();
    const bool monotone = nonneg && pk.neg_finite;
    SNAPEA_DCHECK(rec || !need_full);
    const auto record = [&](int x, float out, int ops, float full,
                            uint8_t flags) {
        res.out[x] = out;
        if (rec) {
            res.ops[x] = ops;
            res.full[x] = full;
            res.flags[x] = flags;
        }
    };
    for (int x = 0; x < n; ++x) {
        const float *win = win0 + static_cast<size_t>(x) * stride;
        float psum = pk.bias;
        int t = 0;

        // Phase 1: speculation prefix plus the PAU threshold check.
        for (; t < pk.prefix_len; ++t)
            psum += w[t] * win[off[t]];
        if (pk.prefix_len > 0 && psum <= pk.th) {
            if (!need_full) {
                record(x, -1.0f, pk.prefix_len, 0.0f, kWalkSpecFired);
                continue;
            }
            float full = psum;
            for (int j = t; j < ks; ++j) {
                SNAPEA_DCHECK(j < pk.neg_start || !monotone
                              || w[j] * win[off[j]] <= 0.0f);
                full += w[j] * win[off[j]];
                if (j >= pk.neg_start && full < 0.0f)
                    break;
            }
            record(x, -1.0f, pk.prefix_len, full,
                   kWalkSpecFired | kWalkFullKnown);
            continue;
        }

        // Phase 2: remaining positive weights, no checks needed.
        for (; t < pk.neg_start; ++t)
            psum += w[t] * win[off[t]];

        // Phase 3: negative weights with the single-bit sign check
        // (exact by the paper's monotonicity argument).
        bool sign_fired = false;
        for (; t < ks; ++t) {
            SNAPEA_DCHECK(w[t] < 0.0f);
            SNAPEA_DCHECK(!monotone || w[t] * win[off[t]] <= 0.0f);
            psum += w[t] * win[off[t]];
            if (psum < 0.0f) {
                record(x, psum, t + 1, 0.0f, kWalkSignFired);
                sign_fired = true;
                break;
            }
        }
        if (!sign_fired)
            record(x, psum, ks, psum, kWalkFullKnown);
    }
}

inline void
scalarConvChan(const float *wt, const float *bias8,
               const float *const *bases, int nwin, const int32_t *off,
               int ntaps, float *out8s)
{
    for (int w = 0; w < nwin; ++w) {
        const float *base = bases[w];
        float *acc = out8s + w * 8;
        for (int l = 0; l < 8; ++l)
            acc[l] = bias8[l];
        for (int j = 0; j < ntaps; ++j) {
            const float x = base[off[j]];
            const float *wr = wt + j * 8;
            for (int l = 0; l < 8; ++l)
                acc[l] += wr[l] * x;
        }
    }
}

inline void
scalarDense(const float *w, const float *x, const float *bias,
            int n_in, int n_out, float *out)
{
    const int n8 = n_in & ~7;
    for (int o = 0; o < n_out; ++o) {
        const float *wr = w + static_cast<size_t>(o) * n_in;
        double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
        double a4 = 0.0, a5 = 0.0, a6 = 0.0, a7 = 0.0;
        int i = 0;
        for (; i < n8; i += 8) {
            a0 += static_cast<double>(wr[i]) * x[i];
            a1 += static_cast<double>(wr[i + 1]) * x[i + 1];
            a2 += static_cast<double>(wr[i + 2]) * x[i + 2];
            a3 += static_cast<double>(wr[i + 3]) * x[i + 3];
            a4 += static_cast<double>(wr[i + 4]) * x[i + 4];
            a5 += static_cast<double>(wr[i + 5]) * x[i + 5];
            a6 += static_cast<double>(wr[i + 6]) * x[i + 6];
            a7 += static_cast<double>(wr[i + 7]) * x[i + 7];
        }
        double acc = static_cast<double>(bias[o]);
        acc += ((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7));
        for (; i < n_in; ++i)
            acc += static_cast<double>(wr[i]) * x[i];
        out[o] = static_cast<float>(acc);
    }
}

} // namespace snapea::kernels

#endif // SNAPEA_SNAPEA_KERNELS_KERNELS_IMPL_HH
