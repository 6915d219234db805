/**
 * @file
 * Microbenchmarks (google-benchmark) of the functional-simulation
 * primitives: plain convolution, exact-mode walk, predictive walk,
 * and the reordering passes.  These gate the wall-clock cost of the
 * whole experiment suite.
 *
 * On top of the model-level benchmarks, a registered sweep times
 * every compiled kernel variant (scalar and each SIMD tier the CPU
 * supports) against every row kernel over a grid of kernel shapes,
 * so scalar-vs-vector speedups per shape are directly visible, and
 * times Conv2D::forwardInto on model layers that reach each of its
 * paths (stride-1 plane spans, channel-major tiny maps, a strided
 * layer's row spans) at one thread.  Benchmark names encode the
 * axes: <Kernel>/<shape>/<isa>.
 *
 * Run from the repository root, the binary writes its results to
 * BENCH_micro_kernels.json (google-benchmark JSON, which carries the
 * CPU context) unless a --benchmark_out flag overrides it.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "nn/conv.hh"
#include "nn/models/model_zoo.hh"
#include "snapea/engine.hh"
#include "snapea/kernels/kernels.hh"
#include "snapea/reorder.hh"
#include "util/random.hh"
#include "util/thread_pool.hh"

using namespace snapea;

namespace {

struct Fixture
{
    Conv2D conv;
    Tensor input;
    PreparedKernel exact;
    PreparedKernel predictive;

    Fixture()
        : conv("bench", ConvSpec{32, 1, 3, 1, 1, 1}),
          input({32, 32, 32})
    {
        Rng rng(7);
        for (size_t i = 0; i < conv.weights().size(); ++i)
            conv.weights()[i] = static_cast<float>(rng.gaussian());
        conv.bias()[0] = -0.5f;
        for (size_t i = 0; i < input.size(); ++i)
            input[i] = static_cast<float>(rng.uniform());

        exact = prepareKernel(conv, 0, makeExactPlan(conv, 0));
        computeInteriorOffsets(exact, 32, 32);
        SpeculationParams p;
        p.n_groups = 16;
        p.th = 0.0f;
        predictive =
            prepareKernel(conv, 0, makePredictivePlan(conv, 0, p));
        computeInteriorOffsets(predictive, 32, 32);
    }
};

Fixture &
fixture()
{
    static Fixture f;
    return f;
}

void
BM_ExactWalk(benchmark::State &state)
{
    Fixture &f = fixture();
    for (auto _ : state) {
        uint64_t ops = 0;
        for (int y = 0; y < 30; ++y)
            for (int x = 0; x < 30; ++x)
                ops += walkWindow(f.exact, f.input, y, x, false).ops;
        benchmark::DoNotOptimize(ops);
    }
}
BENCHMARK(BM_ExactWalk);

void
BM_PredictiveWalk(benchmark::State &state)
{
    Fixture &f = fixture();
    for (auto _ : state) {
        uint64_t ops = 0;
        for (int y = 0; y < 30; ++y)
            for (int x = 0; x < 30; ++x)
                ops += walkWindow(f.predictive, f.input, y, x,
                                  false).ops;
        benchmark::DoNotOptimize(ops);
    }
}
BENCHMARK(BM_PredictiveWalk);

void
BM_PrefixSum(benchmark::State &state)
{
    Fixture &f = fixture();
    for (auto _ : state) {
        float acc = 0.0f;
        for (int y = 0; y < 30; ++y)
            for (int x = 0; x < 30; ++x)
                acc += prefixSum(f.predictive, f.input, y, x);
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_PrefixSum);

void
BM_ExactReorder(benchmark::State &state)
{
    Fixture &f = fixture();
    for (auto _ : state) {
        KernelPlan plan = makeExactPlan(f.conv, 0);
        benchmark::DoNotOptimize(plan.order.data());
    }
}
BENCHMARK(BM_ExactReorder);

void
BM_PredictiveReorder(benchmark::State &state)
{
    Fixture &f = fixture();
    SpeculationParams p;
    p.n_groups = 16;
    for (auto _ : state) {
        KernelPlan plan = makePredictivePlan(f.conv, 0, p);
        benchmark::DoNotOptimize(plan.order.data());
    }
}
BENCHMARK(BM_PredictiveReorder);

/**
 * One kernel shape of the variant sweep: @p cin input channels, a
 * @p k x @p k kernel, a @p ih x @p iw input, no padding (every
 * window interior) and stride 1, so one row offers iw - k + 1
 * windows to the row kernels.
 */
struct SweepShape
{
    const char *name;
    int cin, k, ih, iw;
};

constexpr SweepShape kSweepShapes[] = {
    {"c3k11_48", 3, 11, 48, 48},   // conv1-like: few channels, big k.
    {"c16k3_80", 16, 3, 80, 80},   // VGG-80 stage 1: 78-window rows.
    {"c16k5_24", 16, 5, 24, 24},   // mid layer.
    {"c32k3_32", 32, 3, 32, 32},   // deep layer, roomy map.
    {"c64k3_12", 64, 3, 12, 12},   // deep layer, tiny map.
};

/** Inputs, packed kernel, and result buffers for one sweep shape. */
struct SweepFixture
{
    Conv2D conv;
    Tensor input;
    kernels::PackedKernel packed;
    int n = 0;                       ///< Windows per interior row.
    std::vector<float> out;
    std::vector<float> full;
    std::vector<int32_t> ops;
    std::vector<uint8_t> flags;
    std::vector<float> wt8;          ///< Tap-major 8-channel weights.
    float bias8[8] = {};
    std::vector<const float *> bases;
    std::vector<float> out8s;

    explicit SweepFixture(const SweepShape &s)
        : conv("sweep", ConvSpec{s.cin, 1, s.k, 1, 0, 1}),
          input({s.cin, s.ih, s.iw})
    {
        Rng rng(11);
        for (size_t i = 0; i < conv.weights().size(); ++i)
            conv.weights()[i] = static_cast<float>(rng.gaussian());
        conv.bias()[0] = -0.25f;
        for (size_t i = 0; i < input.size(); ++i)
            input[i] = static_cast<float>(rng.uniform());

        SpeculationParams p;
        p.n_groups = 16;
        p.th = 0.0f;
        PreparedKernel pk =
            prepareKernel(conv, 0, makePredictivePlan(conv, 0, p));
        computeInteriorOffsets(pk, s.ih, s.iw);
        packed = kernels::packKernel(pk.w, pk.interior_off,
                                     pk.prefix_len, pk.neg_start,
                                     pk.th, pk.bias);

        n = s.iw - s.k + 1;
        out.resize(static_cast<size_t>(n));
        full.resize(static_cast<size_t>(n));
        ops.resize(static_cast<size_t>(n));
        flags.resize(static_cast<size_t>(n));

        // Channel-major data: eight channels sharing the tap table,
        // lanes scaled apart so they stay distinct, over up to 64
        // windows from the top-left of the map.
        const int ks = static_cast<int>(packed.w.size());
        wt8.resize(static_cast<size_t>(ks) * 8);
        for (int t = 0; t < ks; ++t)
            for (int l = 0; l < 8; ++l)
                wt8[static_cast<size_t>(t) * 8 + l] =
                    packed.w[t] * (1.0f + 0.01f * l);
        for (int l = 0; l < 8; ++l)
            bias8[l] = -0.25f + 0.05f * l;
        const int span = s.iw - s.k + 1;
        for (int y = 0; y < s.ih - s.k + 1 && bases.size() < 64; ++y)
            for (int x = 0; x < span && bases.size() < 64; ++x)
                bases.push_back(input.data()
                                + static_cast<size_t>(y) * s.iw + x);
        out8s.resize(bases.size() * 8);
    }
};

SweepFixture &
sweepFixture(size_t shape_idx)
{
    static std::unique_ptr<SweepFixture>
        fixtures[std::size(kSweepShapes)];
    if (!fixtures[shape_idx])
        fixtures[shape_idx] = std::make_unique<SweepFixture>(
            kSweepShapes[shape_idx]);
    return *fixtures[shape_idx];
}

/** A model conv layer timed by the PlainConvForward rows. */
struct DenseLayer
{
    const char *name;
    ModelId model;
    int input_px;
    const char *layer;
};

constexpr DenseLayer kDenseLayers[] = {
    // 10 px map, stride 1: one plane span per channel.
    {"vgg80_conv4_2", ModelId::VGGNet, 80, "conv4_2"},
    // 9 px map, stride 1.
    {"squeezenet80_fire8_expand3x3", ModelId::SqueezeNet, 80,
     "fire8/expand3x3"},
    // 5 px map, 2 groups of 32 channels: channel-major.
    {"alexnet48_conv2", ModelId::AlexNet, 48, "conv2"},
    // Stride 4, 11x11 kernel: one row span per output row.
    {"alexnet48_conv1", ModelId::AlexNet, 48, "conv1"},
};

/** One DenseLayer with seeded weights and a non-negative input. */
struct DenseLayerFixture
{
    std::unique_ptr<Network> net;
    const Conv2D *conv = nullptr;
    Tensor input, out;

    explicit DenseLayerFixture(const DenseLayer &d)
    {
        ModelScale scale = defaultScale(d.model);
        scale.input_size = d.input_px;
        net = buildModel(d.model, scale);
        const int idx = net->layerIndex(d.layer);
        auto &c = static_cast<Conv2D &>(net->layer(idx));
        Rng rng(17);
        for (size_t i = 0; i < c.weights().size(); ++i)
            c.weights()[i] = static_cast<float>(rng.gaussian());
        for (float &b : c.bias())
            b = static_cast<float>(rng.gaussian());
        const int prod = net->producers(idx)[0];
        input = Tensor(prod == Network::kInput ? net->inputShape()
                                               : net->outputShape(prod));
        for (size_t i = 0; i < input.size(); ++i)
            input[i] = static_cast<float>(rng.uniform());
        out = Tensor(net->outputShape(idx));
        conv = &c;
    }
};

DenseLayerFixture &
denseLayerFixture(size_t layer_idx)
{
    static std::unique_ptr<DenseLayerFixture>
        fixtures[std::size(kDenseLayers)];
    if (!fixtures[layer_idx])
        fixtures[layer_idx] = std::make_unique<DenseLayerFixture>(
            kDenseLayers[layer_idx]);
    return *fixtures[layer_idx];
}

/** Dense-matvec operands of one input width, shared across ISAs. */
struct DenseFixture
{
    int n_in, n_out = 64;
    std::vector<float> w, x, bias, out;

    explicit DenseFixture(int n)
        : n_in(n)
    {
        Rng rng(13);
        w.resize(static_cast<size_t>(n_in) * n_out);
        x.resize(static_cast<size_t>(n_in));
        bias.resize(static_cast<size_t>(n_out));
        out.resize(static_cast<size_t>(n_out));
        for (float &v : w)
            v = static_cast<float>(rng.gaussian());
        for (float &v : x)
            v = static_cast<float>(rng.uniform());
        for (float &v : bias)
            v = static_cast<float>(rng.gaussian());
    }
};

DenseFixture &
denseFixture(int n_in)
{
    static std::vector<std::unique_ptr<DenseFixture>> fixtures;
    for (auto &f : fixtures)
        if (f->n_in == n_in)
            return *f;
    fixtures.push_back(std::make_unique<DenseFixture>(n_in));
    return *fixtures.back();
}

void
registerSweepForIsa(kernels::Isa isa)
{
    const kernels::KernelOps *ko = kernels::kernelOpsFor(isa);
    const std::string suffix = std::string("/") + ko->name;

    for (size_t si = 0; si < std::size(kSweepShapes); ++si) {
        const std::string shape =
            std::string("/") + kSweepShapes[si].name;

        benchmark::RegisterBenchmark(
            ("ConvRow" + shape + suffix).c_str(),
            [si, ko](benchmark::State &state) {
                SweepFixture &f = sweepFixture(si);
                const int ks = static_cast<int>(f.packed.w.size());
                for (auto _ : state) {
                    ko->conv_row(f.input.data(), 1, f.n,
                                f.packed.w.data(),
                                f.packed.off.data(), ks,
                                f.packed.panel, f.packed.bias,
                                f.out.data());
                    benchmark::DoNotOptimize(f.out.data());
                }
                state.SetItemsProcessed(
                    state.iterations() * f.n * ks);
            });

        benchmark::RegisterBenchmark(
            ("PrefixRow" + shape + suffix).c_str(),
            [si, ko](benchmark::State &state) {
                SweepFixture &f = sweepFixture(si);
                for (auto _ : state) {
                    ko->prefix_row(f.packed, f.input.data(), 1, f.n,
                                  f.out.data());
                    benchmark::DoNotOptimize(f.out.data());
                }
                state.SetItemsProcessed(state.iterations() * f.n
                                        * f.packed.prefix_len);
            });

        // The walk under both recording policies: Instrumented
        // (WalkRow: out, ops, flags, full) and Serving (WalkServing:
        // out only).  Items are nominal taps, n * ks.
        for (const bool serving : {false, true}) {
            benchmark::RegisterBenchmark(
                ((serving ? "WalkServing" : "WalkRow") + shape + suffix)
                    .c_str(),
                [si, ko, serving](benchmark::State &state) {
                    SweepFixture &f = sweepFixture(si);
                    const kernels::WalkSoa res = serving
                        ? kernels::WalkSoa{f.out.data()}
                        : kernels::WalkSoa{f.out.data(), f.full.data(),
                                           f.ops.data(), f.flags.data()};
                    for (auto _ : state) {
                        ko->walk_row(f.packed, f.input.data(), 1, f.n,
                                     /*nonneg=*/true,
                                     /*need_full=*/false, res);
                        benchmark::DoNotOptimize(f.out.data());
                    }
                    state.SetItemsProcessed(
                        state.iterations() * f.n
                        * static_cast<int>(f.packed.w.size()));
                });
        }

        benchmark::RegisterBenchmark(
            ("ConvChan" + shape + suffix).c_str(),
            [si, ko](benchmark::State &state) {
                SweepFixture &f = sweepFixture(si);
                const int ks = static_cast<int>(f.packed.w.size());
                const int nwin = static_cast<int>(f.bases.size());
                for (auto _ : state) {
                    ko->conv_chan(f.wt8.data(), f.bias8,
                                 f.bases.data(), nwin,
                                 f.packed.off.data(), ks,
                                 f.out8s.data());
                    benchmark::DoNotOptimize(f.out8s.data());
                }
                state.SetItemsProcessed(state.iterations() * nwin
                                        * 8 * ks);
            });
    }

    for (size_t li = 0; li < std::size(kDenseLayers); ++li) {
        benchmark::RegisterBenchmark(
            ("PlainConvForward/" + std::string(kDenseLayers[li].name)
             + suffix)
                .c_str(),
            [li, isa](benchmark::State &state) {
                DenseLayerFixture &f = denseLayerFixture(li);
                kernels::setActiveIsa(isa);
                for (auto _ : state) {
                    f.conv->forwardInto(f.input, f.out);
                    benchmark::DoNotOptimize(f.out.data());
                }
                state.SetItemsProcessed(
                    state.iterations()
                    * static_cast<int64_t>(
                        f.conv->macCount(f.input.shape())));
            });
    }

    for (const int n_in : {256, 1024, 4096}) {
        benchmark::RegisterBenchmark(
            ("Dense/n" + std::to_string(n_in) + suffix).c_str(),
            [n_in, ko](benchmark::State &state) {
                DenseFixture &f = denseFixture(n_in);
                for (auto _ : state) {
                    ko->dense(f.w.data(), f.x.data(), f.bias.data(),
                             f.n_in, f.n_out, f.out.data());
                    benchmark::DoNotOptimize(f.out.data());
                }
                state.SetItemsProcessed(
                    state.iterations()
                    * static_cast<int64_t>(f.n_in) * f.n_out);
            });
    }
}

} // namespace

int
main(int argc, char **argv)
{
    // One thread, so PlainConvForward times the kernels, not the
    // thread pool; the other rows call kernels directly.
    util::setThreadCount(1);
    for (const kernels::Isa isa : kernels::availableIsas())
        registerSweepForIsa(isa);
    benchmark::AddCustomContext(
        "snapea_simd", kernels::kernelOps().name);

    // Default the JSON report to the tracked artifact name so a bare
    // run from the repository root refreshes it.
    std::vector<char *> args(argv, argv + argc);
    std::string out_flag = "--benchmark_out=BENCH_micro_kernels.json";
    std::string fmt_flag = "--benchmark_out_format=json";
    bool has_out = false;
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]).rfind("--benchmark_out", 0) == 0)
            has_out = true;
    if (!has_out) {
        args.push_back(out_flag.data());
        args.push_back(fmt_flag.data());
    }
    int n = static_cast<int>(args.size());
    benchmark::Initialize(&n, args.data());
    if (benchmark::ReportUnrecognizedArguments(n, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
