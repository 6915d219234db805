/**
 * @file
 * Thread-scaling throughput baseline: end-to-end images/sec and
 * engine MACs/sec at 1, 2, and N worker threads, written to
 * BENCH_throughput.json so successive PRs accumulate a perf
 * trajectory.
 *
 * Four measurements per thread count:
 *
 *  - instrumented: the honest per-window walk (Eq. (1) op counts +
 *    Table V statistics), one serial image loop with the engine
 *    parallelizing over output channels internally.
 *  - fast: the Fast-mode engine driven by the parallel dataset loop
 *    of workload/evaluator.cc (the end-to-end accuracy path).
 *  - serving exact / serving predictive: the Serving-mode walk that
 *    snapea_serve runs per request, under the exact plan and under
 *    the synthetic predictive plan, one serial image loop like
 *    instrumented.
 *
 * The run doubles as a determinism check: outputs and statistics at
 * the highest thread count must be bitwise identical to the
 * single-thread run.
 *
 * One pass over the images takes milliseconds, far less than a
 * shared host's scheduling noise, so each (threads, mode) cell repeats
 * its pass for at least kCellSeconds of wall time (and at least
 * --repeats passes) and reports the median pass, with the quartiles of
 * the pass times as its spread.  The JSON records the CPU context the
 * numbers were taken in: the dispatched SIMD level and lane width,
 * cache sizes, and the hardware thread count.  Rows that oversubscribe
 * the hardware (more workers than hardware threads) are flagged so
 * their "speedups" are never read as real.
 *
 * Usage: bench_throughput [--model M] [--input px] [--images N]
 *                         [--repeats R] [--out path]
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "nn/models/model_zoo.hh"
#include "snapea/engine.hh"
#include "snapea/kernels/cpu_features.hh"
#include "snapea/kernels/kernels.hh"
#include "snapea/reorder.hh"
#include "util/random.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"
#include "workload/dataset.hh"
#include "workload/evaluator.hh"
#include "workload/weight_init.hh"

using namespace snapea;

namespace {

double
seconds(std::chrono::steady_clock::time_point a,
        std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/**
 * Minimum wall time of one (threads, mode) cell.  At a few
 * milliseconds per pass this gives each cell over a hundred passes.
 */
constexpr double kCellSeconds = 1.0;

/** Pass times of one cell, in seconds. */
struct Cell
{
    double median = 0.0;
    double q1 = 0.0, q3 = 0.0;  ///< Quartiles.
    int passes = 0;
};

/** Quantile @p q of sorted @p v, interpolating between ranks. */
double
quantile(const std::vector<double> &v, double q)
{
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/**
 * Run @p pass once to warm up, then repeatedly for at least
 * kCellSeconds and @p min_passes passes.
 */
template <class Pass>
Cell
timeCell(Pass &&pass, int min_passes)
{
    pass();
    std::vector<double> secs;
    const auto start = std::chrono::steady_clock::now();
    while (static_cast<int>(secs.size()) < min_passes
           || seconds(start, std::chrono::steady_clock::now())
               < kCellSeconds) {
        const auto t0 = std::chrono::steady_clock::now();
        pass();
        secs.push_back(seconds(t0, std::chrono::steady_clock::now()));
    }
    std::sort(secs.begin(), secs.end());
    return {quantile(secs, 0.5), quantile(secs, 0.25),
            quantile(secs, 0.75), static_cast<int>(secs.size())};
}

struct Run
{
    int threads = 1;
    bool oversubscribed = false;  ///< threads > hardware threads.
    Cell instr, fast, serve_exact, serve_pred;
    double instr_macs_per_sec = 0.0;  ///< At the median pass.
};

/** Instrumented stats + outputs of one pass, for the determinism check. */
struct InstrResult
{
    std::vector<Tensor> outputs;
    size_t macs_performed = 0;
    size_t windows = 0;
    std::vector<float> pos_sample_concat;
};

InstrResult
runInstrumentedPass(const Network &net, const NetworkPlan &plan,
                    const std::vector<Tensor> &images)
{
    SnapeaEngine engine(net, plan);
    engine.setMode(ExecMode::Instrumented);
    InstrResult r;
    for (const Tensor &img : images)
        r.outputs.push_back(net.forward(img, &engine));
    for (const auto &[l, st] : engine.stats()) {
        r.macs_performed += st.macs_performed;
        r.windows += st.windows;
        r.pos_sample_concat.insert(r.pos_sample_concat.end(),
                                   st.pos_sample.begin(),
                                   st.pos_sample.end());
    }
    return r;
}

/** One cell of Serving-mode passes over @p images. */
Cell
timeServingPass(const Network &net, const NetworkPlan &plan,
                const std::vector<Tensor> &images, int min_passes)
{
    SnapeaEngine engine(net, plan);
    engine.setMode(ExecMode::Serving);
    return timeCell(
        [&] {
            for (const Tensor &img : images)
                net.forward(img, &engine);
        },
        min_passes);
}

bool
sameResult(const InstrResult &a, const InstrResult &b)
{
    if (a.macs_performed != b.macs_performed || a.windows != b.windows)
        return false;
    if (a.pos_sample_concat != b.pos_sample_concat)
        return false;
    if (a.outputs.size() != b.outputs.size())
        return false;
    for (size_t i = 0; i < a.outputs.size(); ++i) {
        const Tensor &x = a.outputs[i], &y = b.outputs[i];
        if (x.size() != y.size())
            return false;
        if (std::memcmp(x.data(), y.data(), x.size() * sizeof(float)))
            return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string model_name = "AlexNet";
    std::string out_path = "BENCH_throughput.json";
    int input_px = 48;
    int n_images = 8;
    int repeats = 5;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--model") && i + 1 < argc)
            model_name = argv[++i];
        else if (!std::strcmp(argv[i], "--input") && i + 1 < argc)
            input_px = std::atoi(argv[++i]);
        else if (!std::strcmp(argv[i], "--images") && i + 1 < argc)
            n_images = std::atoi(argv[++i]);
        else if (!std::strcmp(argv[i], "--repeats") && i + 1 < argc)
            repeats = std::atoi(argv[++i]);
        else if (!std::strcmp(argv[i], "--out") && i + 1 < argc)
            out_path = argv[++i];
        else {
            std::fprintf(stderr,
                         "usage: bench_throughput [--model M] "
                         "[--input px] [--images N] [--repeats R] "
                         "[--out path]\n");
            return 1;
        }
    }
    if (repeats < 1)
        repeats = 1;

    std::printf("=== SnaPEA reproduction: thread-scaling throughput "
                "baseline ===\n");

    // User input resolves through the non-terminating lookup; the
    // bench top level owns the error exit.
    const ModelInfo *model = findModelByName(model_name);
    if (!model) {
        std::fprintf(stderr, "bench_throughput: unknown model '%s'\n",
                     model_name.c_str());
        return 1;
    }
    const ModelId id = model->id;
    ModelScale scale = defaultScale(id);
    scale.input_size = input_px;
    auto net = buildModel(id, scale);

    Rng rng(42);
    DatasetSpec cspec;
    cspec.num_classes = 4;
    cspec.images_per_class = 1;
    Rng crng = rng.fork(1);
    Dataset calib = makeDataset(crng, net->inputShape(), cspec);
    WeightInitSpec wspec;
    wspec.neg_fraction = modelInfo(id).neg_fraction_target;
    Rng wrng = rng.fork(2);
    initializeWeights(*net, wrng, calib.images, wspec);

    DatasetSpec dspec;
    dspec.num_classes = n_images;
    dspec.images_per_class = 1;
    Rng drng = rng.fork(3);
    Dataset data = makeDataset(drng, net->inputShape(), dspec);
    selfLabel(*net, data);

    // A synthetic predictive plan (every kernel speculates with
    // n = 8, th = 0) so the instrumented walk exercises the
    // speculation prefix, both termination checks, and the need_full
    // continuation — without paying for an optimizer run.
    std::map<int, std::vector<SpeculationParams>> params;
    for (int l : net->convLayers()) {
        const auto &conv = static_cast<const Conv2D &>(net->layer(l));
        SpeculationParams sp;
        sp.n_groups = 8;
        sp.th = 0.0f;
        params[l].assign(conv.spec().out_channels, sp);
    }
    const NetworkPlan plan = makeNetworkPlan(*net, params);
    const NetworkPlan exact_plan = makeExactNetworkPlan(*net);

    const int hw = util::threadCount();
    std::set<int> counts{1, 2, 8, hw};

    std::vector<Run> runs;
    InstrResult ref, last;
    for (int t : counts) {
        util::setThreadCount(t);
        Run run;
        run.threads = t;
        run.oversubscribed = t > hw;

        // The warm-up pass also spawns the pool's workers.
        InstrResult ir;
        run.instr = timeCell(
            [&] { ir = runInstrumentedPass(*net, plan, data.images); },
            repeats);
        run.instr_macs_per_sec = ir.macs_performed / run.instr.median;

        SnapeaEngine fast(*net, plan);
        fast.setMode(ExecMode::Fast);
        run.fast = timeCell([&] { accuracy(*net, data, &fast); },
                            repeats);

        run.serve_exact =
            timeServingPass(*net, exact_plan, data.images, repeats);
        run.serve_pred =
            timeServingPass(*net, plan, data.images, repeats);

        if (t == 1)
            ref = ir;
        last = std::move(ir);
        runs.push_back(run);
    }
    util::setThreadCount(0);

    const bool deterministic = sameResult(ref, last);
    const Run &r1 = runs.front();
    const Run *r8 = nullptr;
    for (const Run &r : runs)
        if (r.threads == 8)
            r8 = &r;
    // A thread-scaling "speedup" measured with more workers than
    // hardware threads is scheduler noise, not a speedup.  When the
    // host cannot run 8 real workers, fall back to the widest run the
    // hardware does cover so the field is always a number downstream
    // tooling can plot (on a 1-thread host that is 1 thread and the
    // speedup is exactly 1.0), and flag the host so nobody reads the
    // fallback as an 8-thread measurement.
    const bool oversubscribed_host = !r8 || r8->oversubscribed;
    const Run *speedup_run = r8;
    if (oversubscribed_host) {
        speedup_run = &r1;
        for (const Run &r : runs)
            if (!r.oversubscribed
                && r.threads > speedup_run->threads)
                speedup_run = &r;
    }
    const double speedup8 = r1.instr.median / speedup_run->instr.median;

    const kernels::CpuInfo &cpu = kernels::cpuInfo();
    const kernels::KernelOps &kops = kernels::kernelOps();

    const double n_img = static_cast<double>(data.images.size());
    // Images per second at the median pass, with the quartile range.
    const auto rate = [&](const Cell &c) {
        char b[64];
        std::snprintf(b, sizeof(b), "%.1f [%.1f-%.1f]", n_img / c.median,
                      n_img / c.q3, n_img / c.q1);
        return std::string(b);
    };
    Table tbl({"Threads", "Instr img/s", "Instr MMAC/s", "Fast img/s",
               "Serve-exact img/s", "Serve-pred img/s", "Note"});
    for (const Run &r : runs) {
        char mmac[32];
        std::snprintf(mmac, sizeof(mmac), "%.2f",
                      r.instr_macs_per_sec / 1e6);
        tbl.addRow({std::to_string(r.threads), rate(r.instr), mmac,
                    rate(r.fast), rate(r.serve_exact), rate(r.serve_pred),
                    r.oversubscribed ? "oversubscribed" : ""});
    }
    tbl.print();
    std::printf("\nimg/s at the median pass [quartiles]; each cell "
                "timed for >= %.1f s and >= %d passes\n",
                kCellSeconds, repeats);
    std::printf("\nsimd: %s (%d lanes), l1d %zu KiB, l2 %zu KiB, "
                "hardware threads: %d\n",
                kops.name, kops.lanes, cpu.l1d_bytes / 1024,
                cpu.l2_bytes / 1024, hw);
    if (!oversubscribed_host)
        std::printf("instrumented speedup 8 over 1 threads: %.2fx\n",
                    speedup8);
    else
        std::printf("instrumented speedup %d over 1 threads: %.2fx "
                    "(oversubscribed host: only %d hardware "
                    "thread%s)\n",
                    speedup_run->threads, speedup8, hw,
                    hw == 1 ? "" : "s");
    std::printf("deterministic (1 vs max threads, bitwise): %s\n",
                deterministic ? "yes" : "NO");

    std::FILE *f = std::fopen(out_path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"model\": \"%s\",\n", model_name.c_str());
    std::fprintf(f, "  \"input_size\": %d,\n", input_px);
    std::fprintf(f, "  \"images\": %zu,\n", data.images.size());
    std::fprintf(f, "  \"min_passes\": %d,\n", repeats);
    std::fprintf(f, "  \"cell_seconds\": %.1f,\n", kCellSeconds);
    std::fprintf(f, "  \"cpu\": {\"simd\": \"%s\", \"lanes\": %d, "
                 "\"l1d_bytes\": %zu, \"l2_bytes\": %zu, "
                 "\"hardware_threads\": %d},\n",
                 kops.name, kops.lanes, cpu.l1d_bytes, cpu.l2_bytes,
                 hw);
    std::fprintf(f, "  \"hardware_threads\": %d,\n", hw);
    std::fprintf(f, "  \"deterministic_1_vs_max\": %s,\n",
                 deterministic ? "true" : "false");
    std::fprintf(f, "  \"instrumented_speedup_8_over_1\": %.3f,\n",
                 speedup8);
    std::fprintf(f, "  \"oversubscribed_host\": %s,\n",
                 oversubscribed_host ? "true" : "false");
    std::fprintf(f, "  \"speedup_measured_at_threads\": %d,\n",
                 speedup_run->threads);
    std::fprintf(f, "  \"runs\": [\n");
    // Per mode: seconds of the median pass, images per second at it,
    // the images-per-second quartiles and the pass count.
    const auto cellJson = [&](const char *name, const Cell &c) {
        std::fprintf(f,
                     "\"%s_sec\": %.5f, \"%s_images_per_sec\": %.3f, "
                     "\"%s_images_per_sec_q1\": %.3f, "
                     "\"%s_images_per_sec_q3\": %.3f, "
                     "\"%s_passes\": %d",
                     name, c.median, name, n_img / c.median, name,
                     n_img / c.q3, name, n_img / c.q1, name, c.passes);
    };
    for (size_t i = 0; i < runs.size(); ++i) {
        const Run &r = runs[i];
        std::fprintf(f, "    {\"threads\": %d, \"oversubscribed\": %s, ",
                     r.threads, r.oversubscribed ? "true" : "false");
        cellJson("instrumented", r.instr);
        std::fprintf(f, ", \"instrumented_macs_per_sec\": %.0f, ",
                     r.instr_macs_per_sec);
        cellJson("fast", r.fast);
        std::fprintf(f, ", ");
        cellJson("serving_exact", r.serve_exact);
        std::fprintf(f, ", ");
        cellJson("serving_predictive", r.serve_pred);
        std::fprintf(f, "}%s\n", i + 1 < runs.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
    return deterministic ? 0 : 1;
}
