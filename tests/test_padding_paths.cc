/**
 * @file
 * Border and padding geometry, checked window by window against the
 * bounds-checked reference walk.
 *
 *  - walkWindow/prefixSum: the interior fast path (flat interior_off
 *    gathers) and the generic tapValue path (bounds-checked,
 *    zero-padded) agree.  A kernel prepared without interior offsets
 *    always takes the generic path; one prepared with offsets takes
 *    the fast path away from the borders.  Both accumulate the same
 *    products in the same order, so every output coordinate —
 *    interior and boundary alike — must agree bitwise in ops,
 *    outputs, and partial sums.
 *  - SnapeaEngine: a one-conv network run in Serving, Instrumented
 *    and Fast modes, on every available ISA and at 1 and 3 threads,
 *    matches the generic path bitwise: outputs in all modes,
 *    Instrumented op traces and termination statistics too.  The
 *    engine walks a zero-padded copy in plane- or row-spans rounded
 *    up to the lane count, so the geometries below include 1x1, 2x2
 *    and 5x5 outputs, stride 4, and widths that are not a multiple
 *    of 8: plane spans, wrap-around windows, lane tails and slack
 *    reads are all reached.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include <map>
#include <memory>

#include "nn/conv.hh"
#include "nn/network.hh"
#include "snapea/engine.hh"
#include "snapea/kernels/kernels.hh"
#include "snapea/reorder.hh"
#include "util/random.hh"
#include "util/thread_pool.hh"

using namespace snapea;

namespace {

struct PadCase
{
    int in_ch, out_ch, k, stride, pad;
    int in_hw;
    uint64_t seed;
};

std::string
caseName(const testing::TestParamInfo<PadCase> &info)
{
    const PadCase &c = info.param;
    return "ic" + std::to_string(c.in_ch) + "oc"
        + std::to_string(c.out_ch) + "k" + std::to_string(c.k) + "s"
        + std::to_string(c.stride) + "p" + std::to_string(c.pad) + "hw"
        + std::to_string(c.in_hw) + "seed" + std::to_string(c.seed);
}

void
fillConv(Conv2D &conv, Rng &rng)
{
    for (size_t i = 0; i < conv.weights().size(); ++i)
        conv.weights()[i] = static_cast<float>(rng.gaussian());
    for (auto &b : conv.bias())
        b = static_cast<float>(rng.gaussian(-0.2, 0.5));
}

/** A seeded conv and a non-negative (post-ReLU-like) input. */
struct PadScenario
{
    Conv2D conv;
    Tensor input;
    int oh, ow;

    explicit PadScenario(const PadCase &c)
        : conv("c", ConvSpec{c.in_ch, c.out_ch, c.k, c.stride, c.pad,
                             /*groups=*/1}),
          input({c.in_ch, c.in_hw, c.in_hw}),
          oh(conv.outDim(c.in_hw)), ow(conv.outDim(c.in_hw))
    {
        Rng rng(c.seed);
        fillConv(conv, rng);
        // Clamp like ReLU: the engine's early-termination math (and
        // its checked-build monotonicity DCHECKs) assume the paper's
        // non-negative post-ReLU activation contract.
        for (size_t i = 0; i < input.size(); ++i)
            input[i] = std::max(
                0.0f, static_cast<float>(rng.gaussian(0.1, 1.0)));
    }
};

SpeculationParams
testSpec()
{
    SpeculationParams sp;
    sp.n_groups = 4;
    sp.th = 0.1f;
    return sp;
}

void
expectWalksEqual(const WindowWalk &a, const WindowWalk &b, int o,
                 int y, int x)
{
    EXPECT_EQ(a.ops, b.ops) << "o=" << o << " y=" << y << " x=" << x;
    EXPECT_EQ(a.out, b.out) << "o=" << o << " y=" << y << " x=" << x;
    EXPECT_EQ(a.spec_fired, b.spec_fired);
    EXPECT_EQ(a.sign_fired, b.sign_fired);
    EXPECT_EQ(a.full_known, b.full_known);
    if (a.full_known) {
        EXPECT_EQ(a.full_sum, b.full_sum);
    }
}

} // namespace

class PaddingPaths : public testing::TestWithParam<PadCase>
{
};

TEST_P(PaddingPaths, InteriorAndGenericPathsAgreeEverywhere)
{
    const PadCase &c = GetParam();
    ASSERT_GT(c.pad, 0) << "case must exercise padding windows";
    const PadScenario s(c);
    const Conv2D &conv = s.conv;
    const Tensor &input = s.input;
    const int oh = s.oh, ow = s.ow;
    ASSERT_GT(oh, 0);
    const SpeculationParams sp = testSpec();

    for (int o = 0; o < c.out_ch; ++o) {
        for (const bool predictive : {false, true}) {
            const KernelPlan plan = predictive
                ? makePredictivePlan(conv, o, sp)
                : makeExactPlan(conv, o);

            PreparedKernel with_off = prepareKernel(conv, o, plan);
            computeInteriorOffsets(with_off, c.in_hw, c.in_hw);
            PreparedKernel without_off = prepareKernel(conv, o, plan);
            ASSERT_TRUE(without_off.interior_off.empty());

            for (int y = 0; y < oh; ++y) {
                const int iy0 = y * c.stride - c.pad;
                for (int x = 0; x < ow; ++x) {
                    const int ix0 = x * c.stride - c.pad;
                    for (const bool need_full : {false, true}) {
                        expectWalksEqual(
                            walkWindow(with_off, input, iy0, ix0,
                                       need_full),
                            walkWindow(without_off, input, iy0, ix0,
                                       need_full),
                            o, y, x);
                    }
                    EXPECT_EQ(
                        prefixSum(with_off, input, iy0, ix0),
                        prefixSum(without_off, input, iy0, ix0))
                        << "o=" << o << " y=" << y << " x=" << x;
                }
            }
        }
    }
}

namespace {

/** What one engine mode produced for the one-conv network. */
struct EngineOut
{
    Tensor out;
    LayerExecStats stats;
    std::vector<uint16_t> ops;
};

EngineOut
runOneConv(const Network &net, const NetworkPlan &plan, ExecMode mode,
           const Tensor &input)
{
    SnapeaEngine engine(net, plan);
    engine.setMode(mode);
    engine.setCollectTraces(mode == ExecMode::Instrumented);
    engine.beginImage();
    EngineOut r;
    r.out = net.forward(input, &engine);
    if (mode == ExecMode::Instrumented) {
        r.stats = engine.stats().begin()->second;
        r.ops = engine.traces().at(0).conv_layers.at(0).ops;
    }
    return r;
}

} // namespace

TEST_P(PaddingPaths, EngineModesMatchGenericWalkEverywhere)
{
    const PadCase &c = GetParam();
    const PadScenario s(c);
    const int oh = s.oh, ow = s.ow;
    ASSERT_GT(oh, 0);
    Network net("t", s.input.shape());
    auto conv = std::make_unique<Conv2D>("c", s.conv.spec());
    conv->weights() = s.conv.weights();
    conv->bias() = s.conv.bias();
    net.add(std::move(conv));
    const Tensor dense = s.conv.forward({&s.input});

    const int layer = net.convLayers().at(0);
    std::map<int, std::vector<SpeculationParams>> params;
    params[layer].assign(c.out_ch, testSpec());
    const kernels::Isa saved_isa = kernels::kernelOps().isa;

    for (const bool predictive : {false, true}) {
        const NetworkPlan plan = predictive
            ? makeNetworkPlan(net, params)
            : makeExactNetworkPlan(net);

        // The reference: every window through walkWindow/prefixSum's
        // bounds-checked generic path (no interior offsets), stats
        // tallied in (kernel, y, x) order as the engine merges them.
        const size_t plane = static_cast<size_t>(oh) * ow;
        std::vector<float> walk_out(c.out_ch * plane);
        std::vector<float> fast_out(dense.data(),
                                    dense.data() + dense.size());
        std::vector<uint16_t> ref_ops(walk_out.size());
        LayerExecStats ref;
        for (int o = 0; o < c.out_ch; ++o) {
            const PreparedKernel pk =
                prepareKernel(s.conv, o, plan.at(layer).kernels[o]);
            for (int y = 0; y < oh; ++y) {
                for (int x = 0; x < ow; ++x) {
                    const int iy0 = y * c.stride - c.pad;
                    const int ix0 = x * c.stride - c.pad;
                    const size_t i = o * plane + y * ow + x;
                    const WindowWalk ww = walkWindow(
                        pk, s.input, iy0, ix0, /*need_full=*/true);
                    walk_out[i] = ww.out;
                    ref_ops[i] = static_cast<uint16_t>(ww.ops);
                    ref.macs_performed += ww.ops;
                    if (ww.spec_fired) {
                        ++ref.spec_terminated;
                        if (ww.full_sum > 0.0f) {
                            ++ref.false_negative;
                            ref.fn_values.push_back(ww.full_sum);
                        }
                    } else if (ww.sign_fired) {
                        ++ref.sign_terminated;
                    } else {
                        ++ref.completed;
                    }
                    if (predictive
                        && prefixSum(pk, s.input, iy0, ix0) <= pk.th)
                        fast_out[i] = -1.0f;
                }
            }
        }

        for (const kernels::Isa isa : kernels::availableIsas()) {
            kernels::setActiveIsa(isa);
            for (const int threads : {1, 3}) {
                util::setThreadCount(threads);
                const std::string where = std::string("isa=")
                    + kernels::isaName(isa) + " threads="
                    + std::to_string(threads) + " predictive="
                    + std::to_string(predictive);

                const EngineOut serving =
                    runOneConv(net, plan, ExecMode::Serving, s.input);
                const EngineOut instr = runOneConv(
                    net, plan, ExecMode::Instrumented, s.input);
                const EngineOut fast =
                    runOneConv(net, plan, ExecMode::Fast, s.input);
                for (size_t i = 0; i < walk_out.size(); ++i) {
                    EXPECT_EQ(serving.out[i], walk_out[i])
                        << where << " serving window " << i;
                    EXPECT_EQ(instr.out[i], walk_out[i])
                        << where << " instrumented window " << i;
                    EXPECT_EQ(fast.out[i], fast_out[i])
                        << where << " fast window " << i;
                }
                EXPECT_EQ(instr.ops, ref_ops) << where;
                const LayerExecStats &st = instr.stats;
                EXPECT_EQ(st.windows, walk_out.size()) << where;
                EXPECT_EQ(st.macs_performed, ref.macs_performed)
                    << where;
                EXPECT_EQ(st.spec_terminated, ref.spec_terminated)
                    << where;
                EXPECT_EQ(st.sign_terminated, ref.sign_terminated)
                    << where;
                EXPECT_EQ(st.completed, ref.completed) << where;
                EXPECT_EQ(st.false_negative, ref.false_negative)
                    << where;
                EXPECT_EQ(st.fn_values, ref.fn_values) << where;
            }
        }
    }
    util::setThreadCount(0);
    kernels::setActiveIsa(saved_isa);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, PaddingPaths,
    testing::Values(PadCase{3, 4, 3, 1, 1, 8, 11},
                    PadCase{2, 3, 5, 1, 2, 9, 22},
                    PadCase{4, 2, 3, 2, 1, 10, 33},
                    PadCase{1, 2, 7, 2, 3, 12, 44},
                    // 1x1 and 2x2 outputs: a plane span shorter than
                    // one lane tile, read mostly from the slack.
                    PadCase{8, 9, 3, 1, 1, 1, 55},
                    PadCase{5, 3, 3, 1, 1, 2, 66},
                    // 5x5 outputs at stride 1 (the serving geometry)
                    // and stride 2.
                    PadCase{6, 5, 3, 1, 1, 5, 88},
                    PadCase{4, 3, 5, 1, 2, 5, 99},
                    PadCase{3, 4, 3, 2, 1, 9, 111},
                    // Stride 4 with an 11x11 kernel (AlexNet conv1).
                    PadCase{3, 4, 11, 4, 2, 23, 77},
                    // Pad wider than the wrap-around of a 3x3 kernel.
                    PadCase{2, 2, 3, 1, 2, 3, 122}),
    caseName);
