/**
 * @file
 * Vectorized, cache-blocked compute kernels for the SnaPEA hot paths.
 *
 * The functional simulator spends its time in three inner loops: the
 * dense convolution (nn/conv.cc), the Fast-mode prefix squash, and
 * the Serving/Instrumented window walk (snapea/engine.cc).  This
 * module rewrites all three as row kernels that evaluate several
 * output windows per lane-register — the software analogue of the
 * paper's multi-lane PE, where each SIMD lane plays one compute lane
 * and the early-termination checks become vector sign/threshold
 * masks.  Every caller walks one zero-padded copy of the conv input
 * (PaddedWalk, nn/conv.hh), in which every window is interior, so no
 * kernel has a border case: a padding tap reads 0.0f like any other.
 *
 * Layout: a kernel's taps are packed at plan-build time into
 * contiguous SoA panels (weights + flat input offsets in execution
 * order); panels are sized from the detected L1d capacity so a
 * panel's taps stay cache-resident while a row of windows streams
 * past (NNPACK-style pack-then-multiply).
 *
 * Determinism contract: every lane accumulates its window's taps in
 * exactly the plan order with separate mul and add (the tree builds
 * with -ffp-contract=off), so scalar and SIMD variants are bitwise
 * identical per window, and Fast/Instrumented squashing decisions
 * agree exactly.  Setting SNAPEA_RELAXED_ACCUM=1 lets variants with
 * fused multiply-add use it (faster, differently rounded); outputs
 * then agree with the scalar reference only to tolerance.
 *
 * Variants are selected at runtime by CPUID dispatch (kernelOps());
 * the SNAPEA_SIMD environment variable (auto|scalar|avx2) overrides
 * downward, falling back with a warning when the request is not
 * compiled in or not supported by the CPU.
 */

#ifndef SNAPEA_SNAPEA_KERNELS_KERNELS_HH
#define SNAPEA_SNAPEA_KERNELS_KERNELS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace snapea::kernels {

/** Instruction-set tiers a kernel variant can target. */
enum class Isa {
    Scalar = 0,  ///< Portable reference kernels.
    Avx2 = 2,    ///< 8 windows per 256-bit register.
};

/** Human-readable ISA name ("scalar", "avx2"). */
const char *isaName(Isa isa);

/**
 * One kernel packed for the row kernels: weights and flat input
 * offsets in execution order, plus the PAU configuration.  Built
 * from a PreparedKernel once per plan (see engine.cc), with offsets
 * for the engine's zero-padded input geometry, where every window is
 * interior.
 */
struct PackedKernel
{
    std::vector<float> w;        ///< Weights in execution order.
    std::vector<int32_t> off;    ///< Flat input offset per tap.
    int prefix_len = 0;          ///< Speculation prefix length (N).
    int neg_start = 0;           ///< First position with sign checks.
    float th = 0.0f;             ///< Speculation threshold (Th).
    float bias = 0.0f;           ///< Accumulator initial value.
    int panel = 0;               ///< Taps per L1-sized panel.
    /**
     * Every negative-run weight is finite, so on inputs in [0, +inf]
     * no negative-run product is NaN: half of walk_row's block-check
     * precondition (the other half is the input's).
     */
    bool neg_finite = true;
};

/** Pack weights + interior offsets into a PackedKernel. */
PackedKernel packKernel(const std::vector<float> &w,
                        const std::vector<int> &interior_off,
                        int prefix_len, int neg_start, float th,
                        float bias);

/**
 * Taps per cache panel for a kernel of @p ks taps: large enough to
 * amortize the loop overhead, small enough that a panel's weights
 * and offsets stay L1d-resident while a row of windows streams by.
 */
int panelTaps(int ks);

/**
 * Dense row kernel: out[x] = bias + sum_t w[t] * win(x)[off[t]] for
 * @p n consecutive windows, where window x starts at
 * @p win0 + x * stride.  Taps are visited in panels of @p panel, in
 * order within each panel, so per-window accumulation order equals
 * the scalar loop's.  Vector variants run several register tiles of
 * windows per tap, so one weight broadcast feeds independent add
 * chains.  Every tap of every window must be in bounds.
 */
using ConvRowFn = void (*)(const float *win0, int stride, int n,
                           const float *w, const int32_t *off,
                           int ntaps, int panel, float bias,
                           float *out);

/**
 * Fast-mode prefix squash: for each of @p n windows, accumulate
 * bias + speculation prefix and overwrite out[x] with -1.0f where
 * the partial sum is <= th (the PAU's negative surrogate).  Windows
 * whose prefix sum stays above threshold keep their value.
 */
using PrefixRowFn = void (*)(const PackedKernel &pk, const float *win0,
                             int stride, int n, float *out);

/** Per-window flags produced by a walk row (WalkSoa::flags). */
inline constexpr uint8_t kWalkSpecFired = 1;  ///< Prefix check fired.
inline constexpr uint8_t kWalkSignFired = 2;  ///< Sign check fired.
inline constexpr uint8_t kWalkFullKnown = 4;  ///< full[] is valid.

/**
 * SoA result row of a walk: one entry per window.  Which fields are
 * set selects the walk's recording policy:
 *
 *  - Serving: only out is set, the rest are null.  The walk writes
 *    the value the PE emits and nothing else.
 *  - Instrumented: all four are set.  full[] holds the true
 *    convolution value where kWalkFullKnown is set and 0.0f
 *    otherwise (matching WindowWalk's default).
 */
struct WalkSoa
{
    float *out = nullptr;     ///< Value the PE writes.
    float *full = nullptr;    ///< True convolution value (if known).
    int32_t *ops = nullptr;   ///< Eq. (1) MAC count until termination.
    uint8_t *flags = nullptr; ///< kWalk* bits.

    /** True for the Instrumented policy (everything recorded). */
    bool instrumented() const { return ops != nullptr; }

    /** The same row from window @p x on. */
    WalkSoa from(size_t x) const
    {
        if (!instrumented())
            return {out + x};
        return {out + x, full + x, ops + x, flags + x};
    }
};

/**
 * Row walk: the honest three-phase window walk (speculation prefix +
 * threshold check, positive run, negative run with sign checks) for
 * @p n consecutive interior windows, window x starting at
 * @p win0 + x * stride.  Per window, every recorded field is bitwise
 * what engine.cc's walkWindow gives on an interior window: the value
 * written, the exact Eq. (1) termination tap, and with @p need_full
 * (Instrumented policy only) the true sum of a speculated window,
 * settled by the same sign rule.
 *
 * Vector variants check signs once per block of negative-run taps,
 * with no per-tap bookkeeping.  That is exact because in the
 * negative run a partial sum never rises: a lane negative at the
 * block's end fired inside the block, and one that is not never
 * fired.  Only a tile with a newly negative lane re-runs the block
 * from its saved accumulator with per-tap checks, which recovers
 * the firing tap and the partial sum the PE writes.  Lanes that fired
 * keep accumulating and are masked out of every result.
 *
 * The precondition is that every negative-run product is <= 0 and
 * never NaN: finite negative weights (PackedKernel::neg_finite) and
 * inputs in [0, +inf].  @p nonneg is the caller's promise of the
 * latter, derived from the data (padInput in nn/conv.hh: every value
 * >= 0, a NaN counts as not).  Without both halves the vector walks
 * check every tap, which is the scalar reference's behaviour, so
 * outputs are bitwise the reference's on any input.
 */
using WalkRowFn = void (*)(const PackedKernel &pk, const float *win0,
                           int stride, int n, bool nonneg,
                           bool need_full, const WalkSoa &res);

/**
 * Channel-major window batch, for feature maps too small for the
 * window-per-lane row kernels: eight output channels ride the lanes
 * instead, and @p nwin windows sharing one tap table are processed
 * per call.  For window w and lane l,
 *
 *   out8s[w*8+l] = bias8[l] + sum_j wt[j*8 + l] * bases[w][off[j]]
 *
 * where wt holds the channel chunk's weights transposed (tap-major,
 * lane-minor).  Every tap of every window must be in bounds: the
 * dense convolution walks a zero-padded copy, so a border window
 * takes the full tap table too.  Accumulation is serial in j per
 * (window, lane) — exactly the scalar convolution order — so every
 * variant is bitwise identical to the plain loop, not merely to each
 * other.
 */
using ConvChanFn = void (*)(const float *wt, const float *bias8,
                            const float *const *bases, int nwin,
                            const int32_t *off, int ntaps,
                            float *out8s);

/**
 * Dense matvec kernel: out[o] = bias[o] + sum_i w[o*n_in+i] * x[i]
 * for @p n_out rows, accumulated in double precision.  Per row, the
 * first n_in & ~7 products land in eight interleaved double lanes
 * (lane j takes i == j mod 8) reduced as
 * ((a0+a1)+(a2+a3)) + ((a4+a5)+(a6+a7)); the remainder is added
 * serially.  Every variant uses this exact order, so results are
 * bitwise identical across ISAs.  The interleaving exists to break
 * the serial FP-add dependency chain that made one double
 * accumulator latency-bound.
 */
using DenseFn = void (*)(const float *w, const float *x,
                         const float *bias, int n_in, int n_out,
                         float *out);

/** One ISA variant's kernel set. */
struct KernelOps
{
    const char *name = "";      ///< ISA name, for logs and JSON.
    Isa isa = Isa::Scalar;
    int lanes = 1;              ///< Windows per register.
    ConvRowFn conv_row = nullptr;
    PrefixRowFn prefix_row = nullptr;
    WalkRowFn walk_row = nullptr;
    DenseFn dense = nullptr;
    ConvChanFn conv_chan = nullptr;
};

/**
 * The active kernel set: best compiled variant the CPU supports,
 * unless overridden by the SNAPEA_SIMD environment variable or
 * setActiveIsa().
 */
const KernelOps &kernelOps();

/**
 * Kernel set of a specific ISA, or nullptr when that variant is not
 * compiled in or the CPU lacks the instructions.  Used by the
 * equality tests and the micro-benchmark sweep.
 */
const KernelOps *kernelOpsFor(Isa isa);

/** ISAs that are compiled in and supported by this CPU. */
std::vector<Isa> availableIsas();

/**
 * Force the active kernel set (test/bench hook; call only outside
 * parallel regions).  The ISA must be available.
 */
void setActiveIsa(Isa isa);

/**
 * True when SNAPEA_RELAXED_ACCUM=1: kernels may use fused
 * multiply-add and other reassociations, trading bitwise scalar
 * equivalence for speed.  Read once at first kernel dispatch.
 */
bool relaxedAccum();

} // namespace snapea::kernels

#endif // SNAPEA_SNAPEA_KERNELS_KERNELS_HH
