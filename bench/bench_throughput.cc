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
 * Each timing is the best of several repetitions (shared machines
 * jitter far more than the measured interval), and the JSON records
 * the CPU context the numbers were taken in: the dispatched SIMD
 * level and lane width, cache sizes, and the hardware thread count.
 * Rows that oversubscribe the hardware (more workers than hardware
 * threads) are flagged so their "speedups" are never read as real.
 *
 * Usage: bench_throughput [--model M] [--input px] [--images N]
 *                         [--repeats R] [--out path]
 */

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

struct Run
{
    int threads = 1;
    bool oversubscribed = false;  ///< threads > hardware threads.
    double instr_sec = 0.0;
    double instr_imgs_per_sec = 0.0;
    double instr_macs_per_sec = 0.0;
    double fast_sec = 0.0;
    double fast_imgs_per_sec = 0.0;
    double serve_exact_sec = 0.0;
    double serve_pred_sec = 0.0;
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

/** Best-of-@p repeats seconds for one Serving-mode pass over @p images. */
double
timeServingPass(const Network &net, const NetworkPlan &plan,
                const std::vector<Tensor> &images, int repeats)
{
    SnapeaEngine engine(net, plan);
    engine.setMode(ExecMode::Serving);
    net.forward(images[0], &engine);  // warmup
    double best = 0.0;
    for (int rep = 0; rep < repeats; ++rep) {
        auto t0 = std::chrono::steady_clock::now();
        for (const Tensor &img : images)
            net.forward(img, &engine);
        const double sec =
            seconds(t0, std::chrono::steady_clock::now());
        if (rep == 0 || sec < best)
            best = sec;
    }
    return best;
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

        // Warmup (also spawns the pool's workers).
        runInstrumentedPass(*net, plan, {data.images[0]});

        // Best of `repeats`: the measured intervals are far shorter
        // than scheduler noise on a shared machine, and the minimum
        // is the estimator least contaminated by it.
        InstrResult ir;
        for (int rep = 0; rep < repeats; ++rep) {
            auto t0 = std::chrono::steady_clock::now();
            InstrResult cur =
                runInstrumentedPass(*net, plan, data.images);
            auto t1 = std::chrono::steady_clock::now();
            const double sec = seconds(t0, t1);
            if (rep == 0 || sec < run.instr_sec)
                run.instr_sec = sec;
            ir = std::move(cur);
        }
        run.instr_imgs_per_sec = data.images.size() / run.instr_sec;
        run.instr_macs_per_sec = ir.macs_performed / run.instr_sec;

        SnapeaEngine fast(*net, plan);
        fast.setMode(ExecMode::Fast);
        accuracy(*net, data, &fast);  // warmup
        for (int rep = 0; rep < repeats; ++rep) {
            auto t0 = std::chrono::steady_clock::now();
            accuracy(*net, data, &fast);
            auto t1 = std::chrono::steady_clock::now();
            const double sec = seconds(t0, t1);
            if (rep == 0 || sec < run.fast_sec)
                run.fast_sec = sec;
        }
        run.fast_imgs_per_sec = data.images.size() / run.fast_sec;

        run.serve_exact_sec =
            timeServingPass(*net, exact_plan, data.images, repeats);
        run.serve_pred_sec =
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
    const double speedup8 =
        speedup_run->instr_imgs_per_sec / r1.instr_imgs_per_sec;

    const kernels::CpuInfo &cpu = kernels::cpuInfo();
    const kernels::KernelOps &kops = kernels::kernelOps();

    const size_t n_img = data.images.size();
    Table tbl({"Threads", "Instr img/s", "Instr MMAC/s", "Fast img/s",
               "Serve-exact img/s", "Serve-pred img/s", "Note"});
    char buf[6][64];
    for (const Run &r : runs) {
        std::snprintf(buf[0], sizeof(buf[0]), "%d", r.threads);
        std::snprintf(buf[1], sizeof(buf[1]), "%.2f",
                      r.instr_imgs_per_sec);
        std::snprintf(buf[2], sizeof(buf[2]), "%.2f",
                      r.instr_macs_per_sec / 1e6);
        std::snprintf(buf[3], sizeof(buf[3]), "%.2f",
                      r.fast_imgs_per_sec);
        std::snprintf(buf[4], sizeof(buf[4]), "%.2f",
                      n_img / r.serve_exact_sec);
        std::snprintf(buf[5], sizeof(buf[5]), "%.2f",
                      n_img / r.serve_pred_sec);
        tbl.addRow({buf[0], buf[1], buf[2], buf[3], buf[4], buf[5],
                    r.oversubscribed ? "oversubscribed" : ""});
    }
    tbl.print();
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
    std::fprintf(f, "  \"repeats\": %d,\n", repeats);
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
    for (size_t i = 0; i < runs.size(); ++i) {
        const Run &r = runs[i];
        std::fprintf(f,
                     "    {\"threads\": %d, "
                     "\"oversubscribed\": %s, "
                     "\"instrumented_sec\": %.4f, "
                     "\"instrumented_images_per_sec\": %.3f, "
                     "\"instrumented_macs_per_sec\": %.0f, "
                     "\"fast_sec\": %.4f, "
                     "\"fast_images_per_sec\": %.3f, "
                     "\"serving_exact_sec\": %.4f, "
                     "\"serving_exact_images_per_sec\": %.3f, "
                     "\"serving_predictive_sec\": %.4f, "
                     "\"serving_predictive_images_per_sec\": %.3f}%s\n",
                     r.threads, r.oversubscribed ? "true" : "false",
                     r.instr_sec, r.instr_imgs_per_sec,
                     r.instr_macs_per_sec, r.fast_sec,
                     r.fast_imgs_per_sec, r.serve_exact_sec,
                     n_img / r.serve_exact_sec, r.serve_pred_sec,
                     n_img / r.serve_pred_sec,
                     i + 1 < runs.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
    return deterministic ? 0 : 1;
}
