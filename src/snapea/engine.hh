/**
 * @file
 * The SnaPEA execution engine: functional simulation of convolutions
 * with reordered weights, early termination, and the Predictive
 * Activation Unit's checks (Sections II-B and V).
 *
 * Three modes exist because the consumers need different costs:
 *
 *  - Fast: outputs only.  The dense convolution walks the padded
 *    copy (Conv2D::forwardPadded) and speculatively-negative windows
 *    are squashed using just their prefix partial sums.  This is
 *    what Algorithm 1's Simulate() runs thousands of times.
 *  - Instrumented: the honest reordered walk per window, producing
 *    Eq. (1) op counts for the cycle simulator plus the true/false
 *    negative statistics of Table V.
 *  - Serving: the same honest walk with nothing recorded, so the
 *    MACs a terminated window skips are skipped in wall clock too.
 *
 * All modes produce identical zeroing decisions (the prefix sums are
 * accumulated in the same order); completed windows may differ from
 * the dense convolution in the last float ulp because accumulation
 * order differs.
 *
 * Every mode copies a conv's input once into the zero-padded layout
 * the dense convolution also walks (padInput, nn/conv.hh) and walks
 * every window — border windows included — on the SIMD row kernels
 * of snapea/kernels/ (several windows per lane-register, early
 * termination via vector masks).  Fast mode hands that one copy to
 * its dense pass and then to its prefix squash.  A padding tap reads
 * 0.0f and counts as an op, exactly as the bounds-checked
 * walkWindow/prefixSum reference does, so per-window arithmetic is
 * bitwise identical to that reference in default mode (see
 * kernels.hh for the SNAPEA_RELAXED_ACCUM contract).
 * walkWindow/prefixSum remain the reference for tests and the
 * optimizer's own per-window walks.
 *
 * Thread-safety: the padded copy belongs to the thread that makes
 * the conv call and the walk results to each pool worker, so Fast
 * and Serving modes are re-entrant (the evaluator drives one Fast
 * engine from its parallel image loop).
 * Instrumented mode mutates per-engine counters and statistics, so
 * such an engine must be driven by one thread at a time.
 */

#ifndef SNAPEA_SNAPEA_ENGINE_HH
#define SNAPEA_SNAPEA_ENGINE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "nn/conv.hh"
#include "nn/network.hh"
#include "snapea/kernels/kernels.hh"
#include "snapea/params.hh"
#include "util/stats.hh"

namespace snapea {

/**
 * One kernel gathered into execution order: reordered weights, the
 * matching input-tap coordinates (the hardware's index buffer), and
 * the PAU configuration.
 */
struct PreparedKernel
{
    std::vector<float> w;          ///< Weights in execution order.
    std::vector<int> ic;           ///< Absolute input channel per tap.
    std::vector<int> dy, dx;       ///< Kernel-relative tap offsets.
    std::vector<int> interior_off; ///< Flat input offset per tap, valid
                                   ///< for windows away from borders.
    int prefix_len = 0;            ///< Speculation prefix length (N).
    int neg_start = 0;             ///< First position with sign checks.
    float th = 0.0f;               ///< Speculation threshold (Th).
    float bias = 0.0f;             ///< Accumulator initial value.
    int kernel_w = 0;              ///< Kernel width (for border checks).
};

/** Result of honestly walking one convolution window. */
struct WindowWalk
{
    int ops = 0;          ///< Eq. (1) MAC count until termination.
    float out = 0.0f;     ///< Value the PE writes (<= 0 if terminated).
    bool spec_fired = false;  ///< Prefix threshold check fired.
    bool sign_fired = false;  ///< Exact sign check fired.
    float full_sum = 0.0f;    ///< True convolution value (only valid
                              ///< if @c full_known).
    bool full_known = false;
};

/** Gather a kernel into execution order per its plan. */
PreparedKernel prepareKernel(const Conv2D &conv, int out_ch,
                             const KernelPlan &plan);

/**
 * Fill PreparedKernel::interior_off for a given input geometry.
 * Must be called before walking windows against an input of that
 * geometry; the offsets accelerate windows away from the borders.
 */
void computeInteriorOffsets(PreparedKernel &pk, int ih, int iw);

/**
 * Honest reordered walk of one window (PE compute-lane semantics).
 *
 * @param pk The prepared kernel.
 * @param in Input activation tensor (CHW).
 * @param iy0, ix0 Window origin in input coordinates (may be
 *        negative with padding).
 * @param need_full Continue past termination (without counting ops)
 *        until the true output sign — and, for misspeculated
 *        windows, value — is known.
 */
WindowWalk walkWindow(const PreparedKernel &pk, const Tensor &in,
                      int iy0, int ix0, bool need_full);

/** Prefix partial sum only (bias + speculation prefix products). */
float prefixSum(const PreparedKernel &pk, const Tensor &in,
                int iy0, int ix0);

/** Per-conv-layer instrumentation counters (Table V inputs). */
struct LayerExecStats
{
    /** Bound on the positive-magnitude sample size. */
    static constexpr size_t kPosSampleCap = 4096;
    /**
     * Stride of the positive-magnitude sample: every
     * kPosSampleStride-th positive output of each kernel (in (y, x)
     * order) enters @c pos_sample; kernels are merged in channel
     * order and the merged sample truncates at kPosSampleCap.  The
     * per-kernel keying makes the sample independent of how kernels
     * are distributed over threads.
     */
    static constexpr size_t kPosSampleStride = 7;

    std::string name;
    size_t windows = 0;
    size_t macs_full = 0;        ///< MACs an unaltered conv performs.
    size_t macs_performed = 0;   ///< MACs after early termination.
    size_t spec_terminated = 0;  ///< Windows zeroed by the prefix check.
    size_t sign_terminated = 0;  ///< Windows cut by the sign check.
    size_t completed = 0;        ///< Windows run to the last weight.
    size_t actual_negative = 0;  ///< True convolution output <= 0.
    size_t actual_positive = 0;
    size_t true_negative = 0;    ///< Speculated negative, actually so.
    size_t false_negative = 0;   ///< Speculated negative, actually > 0.
    std::vector<float> fn_values;   ///< True values of squashed positives.
    std::vector<float> pos_sample;  ///< Strided sample of positive
                                    ///< outputs (see kPosSampleStride).
    size_t pos_seen = 0;            ///< Positives offered to the sample.
};

/** Eq. (1) op counts of one conv layer for one image. */
struct ConvLayerTrace
{
    int layer_idx = 0;
    std::string name;
    int out_channels = 0, out_h = 0, out_w = 0;
    int kernel_size = 0;             ///< Taps per window.
    int kernel_w = 0;                ///< Kernel width D_k.
    int stride = 1;
    int in_channels = 0, in_h = 0, in_w = 0;
    bool predictive = false;         ///< Layer has speculating kernels.
    std::vector<uint16_t> ops;       ///< [kernel][y][x] op counts.
    size_t macs_full = 0;
    size_t macs_performed = 0;
};

/** Traces of all planned conv layers for one image. */
struct ImageTrace
{
    std::vector<ConvLayerTrace> conv_layers;
};

/** Execution mode of the engine. */
enum class ExecMode {
    Fast,          ///< Outputs only; no op counts, no stats.
    Instrumented,  ///< Honest walk: op traces + Table V statistics.
    /**
     * Outputs via the honest early-terminating walk, nothing else:
     * no statistics, no continuation past termination, so the MACs a
     * window saves are saved in wall clock too.  This is what a
     * deployed PE does per request, and what snapea_serve runs —
     * service time under the Serving mode scales with Eq. (1) op
     * counts, making the predictive accuracy knob a genuine latency
     * lever.  Re-entrant like Fast: it keeps no per-engine state.
     */
    Serving,
};

/**
 * ConvOverride implementing SnaPEA execution for the layers present
 * in a NetworkPlan.  Layers absent from the plan run as plain
 * convolutions.
 */
class SnapeaEngine : public ConvOverride
{
  public:
    /**
     * @param net The network the plan refers to (borrowed; must
     *        outlive the engine).
     * @param plan Per-layer kernel plans.
     */
    SnapeaEngine(const Network &net, NetworkPlan plan);

    /** Select fast or instrumented execution. */
    void setMode(ExecMode mode) { mode_ = mode; }

    /** Enable per-image op trace collection (instrumented mode). */
    void setCollectTraces(bool on) { collect_traces_ = on; }

    /**
     * Mark the start of a new image so traces are grouped per image.
     * Must be called before each forward() when collecting traces.
     */
    void beginImage();

    bool runConv(int layer_idx, const Conv2D &conv, const Tensor &in,
                 Tensor &out) override;

    /** Accumulated per-layer statistics (instrumented mode). */
    const std::map<int, LayerExecStats> &stats() const { return stats_; }

    /** Clear accumulated statistics. */
    void resetStats();

    /** Collected per-image traces. */
    const std::vector<ImageTrace> &traces() const { return traces_; }

    /** Drop collected traces. */
    void clearTraces();

    /** The plan the engine executes. */
    const NetworkPlan &plan() const { return plan_; }

    /**
     * Replace the plan of conv layer @p idx (adding it if the engine
     * had none) and re-prepare and re-pack only that layer; every
     * other layer keeps its packed kernels.  The engine then behaves
     * bitwise like one constructed from the updated plan, in every
     * mode — including Fast mode's skip of layers with no speculating
     * kernel.  Algorithm 1's global pass keeps one engine and calls
     * this per ADJUSTPARAM step instead of rebuilding the network's
     * plans.  Must not run concurrently with a forward pass.
     */
    void setLayerPlan(int idx, LayerPlan lp);

  private:
    struct PreparedLayer
    {
        /**
         * SoA panel form of each kernel for the SIMD row kernels,
         * with tap offsets into the zero-padded input.
         */
        std::vector<kernels::PackedKernel> packed;
        int in_h = 0, in_w = 0;  ///< Unpadded input geometry.
        bool any_predictive = false;
    };

    /** Gather, pad-offset and pack every kernel of layer @p idx. */
    PreparedLayer prepareLayer(int idx, const LayerPlan &lp) const;

    void runFast(const PreparedLayer &pl, const Conv2D &conv,
                 const PaddedWalk &pw, Tensor &out);
    void runServing(const PreparedLayer &pl, const PaddedWalk &pw,
                    Tensor &out);
    void runInstrumented(int layer_idx, const PreparedLayer &pl,
                         const Conv2D &conv, const Tensor &in,
                         const PaddedWalk &pw, Tensor &out);

    const Network &net_;
    NetworkPlan plan_;
    std::map<int, PreparedLayer> prepared_;
    ExecMode mode_ = ExecMode::Fast;
    bool collect_traces_ = false;
    std::map<int, LayerExecStats> stats_;
    std::vector<ImageTrace> traces_;
    /**
     * Instrumented mode's per-kernel counters of the current layer,
     * merged into stats_ in kernel order.
     */
    std::vector<LayerExecStats> parts_;
};

} // namespace snapea

#endif // SNAPEA_SNAPEA_ENGINE_HH
