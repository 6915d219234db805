#include "workloads.hh"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <thread>

#include "daemon.hh"
#include "harness/experiment.hh"
#include "harness/result_cache.hh"
#include "loadgen.hh"
#include "nn/models/model_zoo.hh"
#include "profile.hh"
#include "serve/client.hh"
#include "serve/params_cache.hh"
#include "serve/timebase.hh"
#include "snapea/reorder.hh"
#include "util/random.hh"
#include "util/thread_pool.hh"
#include "workload/dataset.hh"
#include "workload/evaluator.hh"
#include "workload/weight_init.hh"

namespace snapea::bench {

namespace {

/** Each workload sets up this many times and reports the median. */
constexpr int kSetupRepeats = 5;

/** Images a traced run's per-layer profile replays. */
constexpr size_t kProfileImages = 16;

// ---- serve_* ------------------------------------------------------------

/** Sent and checked before the measured window, not measured. */
constexpr double kServeWarmupS = 3.0;
constexpr size_t kServeInputs = 64;
constexpr int kIdleRequests = 200;

/** The daemon under test.  --threads 1 keeps two workers, the
 *  supervisor and the bench inside four cores. */
const std::vector<std::string> kServeArgs = {
    "--model", "AlexNet", "--input", "48", "--mu", "0",
    "--groups", "8", "--seed", "42", "--workers", "2",
    "--threads", "1", "--queue", "64", "--batch", "4"};

/** The same model configuration, for the in-process references. */
serve::ServeModelConfig
serveModel()
{
    serve::ServeModelConfig cfg;
    cfg.model = "AlexNet";
    cfg.input_px = 48;
    cfg.mu = 0.0f;
    cfg.spec_groups = 8;
    cfg.seed = 42;
    return cfg;
}

/** serve.* per-layer values; zero where a workload runs no serve code. */
struct ServeLayers
{
    double idle_rtt_ms = 0, idle_server_ms = 0, dispatch_ms = 0;
    double client_overhead_ms = 0, queue_wait_ms = 0;
    double server_p50_ms = 0, server_p99_ms = 0, latency_p99_ms = 0;
    double predictive_share = 0, batch_size_avg = 0, reject_share = 0;
    double shed = 0, failed = 0, retries = 0, worker_restarts = 0;
    double redispatches = 0, supervisor_rss_mb = 0, worker_rss_mb = 0;
    double gen_late_p99_ms = 0;
};

void
reportServeLayers(RunReport &r, const ServeLayers &s)
{
    r.layer("serve.idle_rtt_ms", s.idle_rtt_ms, "ms");
    r.layer("serve.idle_server_ms", s.idle_server_ms, "ms");
    r.layer("serve.dispatch_ms", s.dispatch_ms, "ms");
    r.layer("serve.client_overhead_ms", s.client_overhead_ms, "ms");
    r.layer("serve.queue_wait_ms", s.queue_wait_ms, "ms");
    r.layer("serve.server_p50_ms", s.server_p50_ms, "ms");
    r.layer("serve.server_p99_ms", s.server_p99_ms, "ms");
    r.layer("serve.latency_p99_ms", s.latency_p99_ms, "ms");
    r.layer("serve.predictive_share", s.predictive_share, "share");
    r.layer("serve.batch_size_avg", s.batch_size_avg, "count");
    r.layer("serve.reject_share", s.reject_share, "share");
    r.layer("serve.shed", s.shed, "count");
    r.layer("serve.failed", s.failed, "count");
    r.layer("serve.retries", s.retries, "count");
    r.layer("serve.worker_restarts", s.worker_restarts, "count");
    r.layer("serve.redispatches", s.redispatches, "count");
    r.layer("serve.supervisor_rss_mb", s.supervisor_rss_mb, "MiB");
    r.layer("serve.worker_rss_mb", s.worker_rss_mb, "MiB");
    r.layer("serve.gen_late_p99_ms", s.gen_late_p99_ms, "ms");
}

/** Offline-phase per-layer values; zero outside offline_squeezenet. */
struct OfflineLayers
{
    double experiment_s = 0, profile_s = 0, global_s = 0;
    double candidates_evaluated = 0, global_iterations = 0;
    double accuracy_s = 0, simulate_s = 0, eyeriss_s = 0;
};

void
reportOfflineLayers(RunReport &r, const OfflineLayers &o)
{
    r.layer("harness.experiment_s", o.experiment_s, "s");
    r.layer("optimizer.profile_s", o.profile_s, "s");
    r.layer("optimizer.global_s", o.global_s, "s");
    r.layer("optimizer.candidates_evaluated", o.candidates_evaluated,
            "count");
    r.layer("optimizer.global_iterations", o.global_iterations, "count");
    r.layer("workload.accuracy_s", o.accuracy_s, "s");
    r.layer("harness.simulate_s", o.simulate_s, "s");
    r.layer("sim.eyeriss_s", o.eyeriss_s, "s");
}

double
secondsSince(int64_t t0)
{
    return (serve::nowNs() - t0) / 1e9;
}

double
ownPeakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string
tally(size_t n, const char *what)
{
    return std::to_string(n) + " " + what;
}

Status
runServe(const WorkloadArgs &args, double rate_rps, Tracer &tracer,
         RunReport &report)
{
    util::setThreadCount(1);

    // In-process references: the daemon's model configuration, the
    // Serving engine at each level, and the plain network's top-1.
    StatusOr<std::unique_ptr<serve::ParamsCache>> built =
        serve::ParamsCache::build(serveModel(), false);
    if (!built.ok())
        return built.status();
    const serve::ParamsCache &cache = *built.value();
    const Network &net = cache.net();
    Rng rng(args.seed);
    DatasetSpec dspec;
    dspec.num_classes = 16;
    dspec.images_per_class = static_cast<int>(kServeInputs / 16);
    const Dataset data = makeDataset(rng, net.inputShape(), dspec);
    SnapeaEngine exact(net, cache.plan(serve::ServeLevel::Exact));
    SnapeaEngine pred(net, cache.plan(serve::ServeLevel::Predictive));
    exact.setMode(ExecMode::Serving);
    pred.setMode(ExecMode::Serving);
    std::vector<std::vector<float>> inputs;
    std::array<std::vector<Tensor>, 2> refs;
    size_t top1_diff = 0;
    for (const Tensor &img : data.images) {
        inputs.emplace_back(img.data(), img.data() + img.size());
        refs[0].push_back(net.forward(img, &exact));
        refs[1].push_back(net.forward(img, &pred));
        if (top1(refs[0].back()) != top1(net.forward(img)))
            ++top1_diff;
    }
    report.check("exact_top1_equals_dense", top1_diff == 0,
                 tally(top1_diff, "of 64 inputs differ"));
    const ReplyCheck check = [&refs](uint32_t input, int level,
                                     const std::vector<float> &out) {
        if (level < 0 || level > 1 || input >= refs[0].size())
            return false;
        const Tensor &ref = refs[level][input];
        return out.size() == ref.size() &&
            std::memcmp(out.data(), ref.data(),
                        ref.size() * sizeof(float)) == 0;
    };

    // Set-up: boot the real daemon kSetupRepeats times; the last boot
    // serves.  A traced run measures idle service on the second, fresh
    // daemon, which keeps idle requests out of the loaded daemon's
    // STATS window.
    ServeLayers sl;
    std::vector<double> boot_s;
    std::unique_ptr<Daemon> daemon;
    for (int i = 0; i < kSetupRepeats; ++i) {
        if (daemon) {
            if (Status st = daemon->stop(); !st.ok())
                return st;
        }
        const uint64_t span = tracer.begin("boot", "serve", 0, i);
        StatusOr<std::unique_ptr<Daemon>> d =
            Daemon::start(kServeArgs, args.run_dir);
        tracer.end(span);
        if (!d.ok())
            return d.status();
        daemon = std::move(d).value();
        boot_s.push_back(daemon->bootSeconds());
        if (i != 1 || !tracer.enabled())
            continue;
        StatusOr<serve::ServeClient> c =
            serve::ServeClient::connect("", daemon->port());
        if (!c.ok())
            return c.status();
        std::vector<double> rtt;
        size_t bad = 0;
        const uint64_t idle = tracer.begin("idle", "serve", 0);
        for (int k = 0; k < kIdleRequests; ++k) {
            const uint32_t in = static_cast<uint32_t>(k) % kServeInputs;
            const int64_t t0 = serve::nowNs();
            StatusOr<serve::Reply> r = c.value().infer(inputs[in]);
            const int64_t t1 = serve::nowNs();
            if (!r.ok())
                return r.status();
            if (r.value().status != serve::WireStatus::Ok ||
                !check(in, r.value().level, r.value().output))
                ++bad;
            rtt.push_back((t1 - t0) / 1e6);
            tracer.record("request", "serve", idle, t0, t1, k + 1);
        }
        tracer.end(idle);
        StatusOr<std::string> st = daemon->stats();
        if (!st.ok())
            return st.status();
        sl.idle_rtt_ms = percentile(rtt, 0.5);
        sl.idle_server_ms = jsonNumber(st.value(), "p50");
        report.check("idle_replies_equal_reference", bad == 0,
                     tally(bad, "bad idle replies"));
    }

    LoadSpec ls;
    ls.rate_rps = rate_rps;
    ls.warmup_s = kServeWarmupS;
    ls.measure_s = args.seconds;
    ls.seed = Rng(args.seed).fork(7).nextU64();
    const uint64_t load = tracer.begin("load", "serve", 0);
    StatusOr<std::vector<RequestRecord>> ran =
        runOpenLoop(daemon->port(), ls, inputs, check);
    tracer.end(load);
    if (!ran.ok())
        return ran.status();
    const std::vector<RequestRecord> &recs = ran.value();

    StatusOr<std::string> stats = daemon->stats();
    StatusOr<std::string> health = daemon->health();
    if (!stats.ok())
        return stats.status();
    if (!health.ok())
        return health.status();
    sl.supervisor_rss_mb = peakRssMb(daemon->pid());
    for (pid_t w : workerPids(health.value()))
        sl.worker_rss_mb += peakRssMb(w);
    const Status drained = daemon->stop();
    report.check("daemon_drained_cleanly", drained.ok(),
                 drained.toString());

    size_t unsent = 0, unanswered = 0, mismatched = 0, errors = 0;
    size_t m_sent = 0, m_ok = 0, m_pred = 0, m_rejected = 0;
    std::vector<double> lat_ms, late_ms;
    for (size_t i = 0; i < recs.size(); ++i) {
        const RequestRecord &r = recs[i];
        m_sent += r.measured; // an unsent or unanswered one is a miss
        if (r.sent_ns == 0) {
            ++unsent;
            continue;
        }
        late_ms.push_back((r.sent_ns - r.sched_ns) / 1e6);
        if (r.reply_ns == 0) {
            ++unanswered;
            continue;
        }
        tracer.record("request", "serve", load, r.sent_ns, r.reply_ns,
                      i + 1, 1);
        const bool ok = r.status == serve::WireStatus::Ok;
        if (ok && !r.matches)
            ++mismatched;
        if (!ok && r.status != serve::WireStatus::Overloaded)
            ++errors;
        if (!r.measured)
            continue;
        if (ok && r.matches) {
            ++m_ok;
            m_pred += r.level == 1;
            lat_ms.push_back((r.reply_ns - r.sched_ns) / 1e6);
        }
        m_rejected += r.status == serve::WireStatus::Overloaded;
    }
    report.attempted = recs.size();
    report.failed = unsent + unanswered + mismatched + errors;
    report.check("every_request_sent_and_answered",
                 unsent == 0 && unanswered == 0,
                 tally(unsent, "unsent, ") + tally(unanswered, "unanswered"));
    report.check("ok_replies_equal_reference", mismatched == 0,
                 tally(mismatched, "Ok replies differ"));
    report.check("no_error_replies", errors == 0,
                 tally(errors, "shed/failed/lost replies"));

    addEndToEnd(report, boot_s, lat_ms, m_ok / args.seconds,
                m_sent ? static_cast<double>(m_ok) / m_sent : 0.0,
                sl.supervisor_rss_mb + sl.worker_rss_mb);
    report.context.push_back({"offered_rps", rate_rps, "1/s"});
    report.context.push_back(
        {"measured_requests", static_cast<double>(m_sent), "count"});

    if (!tracer.enabled())
        return Status();
    const double exact_ms =
        profileNetwork(tracer, net, cache.plan(serve::ServeLevel::Exact),
                       cache.plan(serve::ServeLevel::Predictive),
                       data.images, report);
    const std::string &s = stats.value();
    const std::string &h = health.value();
    sl.server_p50_ms = jsonNumber(s, "p50");
    sl.server_p99_ms = jsonNumber(s, "p99");
    sl.dispatch_ms = sl.idle_server_ms - exact_ms;
    sl.client_overhead_ms = percentile(lat_ms, 0.5) - sl.server_p50_ms;
    sl.queue_wait_ms = sl.server_p50_ms - sl.idle_server_ms;
    sl.latency_p99_ms = percentile(lat_ms, 0.99);
    sl.predictive_share = m_ok ? static_cast<double>(m_pred) / m_ok : 0.0;
    sl.batch_size_avg = jsonNumber(s, "batch_size_avg");
    sl.reject_share =
        m_sent ? static_cast<double>(m_rejected) / m_sent : 0.0;
    sl.shed = jsonNumber(s, "shed");
    sl.failed = jsonNumber(s, "failed");
    sl.retries = jsonNumber(s, "retries");
    sl.worker_restarts = jsonNumber(h, "restarts");
    sl.redispatches = jsonNumber(h, "redispatches");
    sl.gen_late_p99_ms = percentile(late_ms, 0.99);
    reportServeLayers(report, sl);
    reportOfflineLayers(report, OfflineLayers());
    return Status();
}

// ---- engine_vgg ---------------------------------------------------------

/** 100 images leave ten beyond the p90 of the per-image times. */
constexpr size_t kEngineImages = 100;
constexpr int kEngineMinRounds = 3;

/**
 * The network with calibrated weights, on the derivation chain every
 * bench and the daemon share: fork(1) calibration, fork(2) weights.
 * Built here, not through serve::ParamsCache, so that engine_vgg runs
 * no serve code at all.
 */
std::unique_ptr<Network>
buildCalibrated(ModelId id, uint64_t seed)
{
    auto net = buildModel(id, defaultScale(id));
    Rng rng(seed);
    DatasetSpec cspec;
    cspec.num_classes = 4;
    cspec.images_per_class = 1;
    Rng crng = rng.fork(1);
    const Dataset calib = makeDataset(crng, net->inputShape(), cspec);
    WeightInitSpec wspec;
    wspec.neg_fraction = modelInfo(id).neg_fraction_target;
    Rng wrng = rng.fork(2);
    initializeWeights(*net, wrng, calib.images, wspec);
    return net;
}

/** Every kernel speculates with N = 8, Th = 0: the prefix, both
 *  termination checks and the continuation all run, no optimizer. */
NetworkPlan
syntheticPredictivePlan(const Network &net)
{
    std::map<int, std::vector<SpeculationParams>> params;
    for (int l : net.convLayers()) {
        SpeculationParams sp;
        sp.n_groups = 8;
        sp.th = 0.0f;
        params[l].assign(
            static_cast<const Conv2D &>(net.layer(l)).spec().out_channels,
            sp);
    }
    return makeNetworkPlan(net, params);
}

struct EngineSetup
{
    std::unique_ptr<Network> net;
    NetworkPlan exact, predictive;
    std::vector<std::unique_ptr<SnapeaEngine>> engines;
};

constexpr std::array<const char *, 4> kEngineModes = {
    "serving_exact", "serving_predictive", "fast", "instrumented"};

EngineSetup
buildEngineSetup()
{
    EngineSetup s;
    s.net = buildCalibrated(ModelId::VGGNet, 42);
    s.exact = makeExactNetworkPlan(*s.net);
    s.predictive = syntheticPredictivePlan(*s.net);
    const std::array<std::pair<const NetworkPlan *, ExecMode>, 4> modes = {
        {{&s.exact, ExecMode::Serving},
         {&s.predictive, ExecMode::Serving},
         {&s.predictive, ExecMode::Fast},
         {&s.predictive, ExecMode::Instrumented}}};
    for (const auto &[plan, mode] : modes) {
        s.engines.push_back(std::make_unique<SnapeaEngine>(*s.net, *plan));
        s.engines.back()->setMode(mode);
    }
    return s;
}

Status
runEngine(const WorkloadArgs &args, Tracer &tracer, RunReport &report)
{
    util::setThreadCount(1);
    std::vector<double> setup_s;
    std::optional<EngineSetup> built;
    for (int i = 0; i < kSetupRepeats; ++i) {
        built.reset();
        const int64_t t0 = serve::nowNs();
        built.emplace(buildEngineSetup());
        setup_s.push_back(secondsSince(t0));
    }
    const EngineSetup &s = *built;
    const Network &net = *s.net;
    Rng rng(args.seed);
    DatasetSpec dspec;
    dspec.num_classes = 20;
    dspec.images_per_class = static_cast<int>(kEngineImages / 20);
    const Dataset data = makeDataset(rng, net.inputShape(), dspec);

    // Rounds interleave the modes so host drift hits all of them
    // alike, and each image's time in a mode is its best over the
    // rounds: the host only ever slows a pass down, and on a shared
    // host the best of three is steadier across runs than the median
    // (4% against 9% quartile spread of the p50 over six seeds).  Each
    // mode's outputs must repeat bit for bit.
    constexpr size_t kModes = kEngineModes.size();
    std::array<std::vector<Tensor>, kModes> first;
    std::vector<std::array<std::vector<double>, kModes>> times(
        kEngineImages);
    size_t mismatched = 0;
    int rounds = 0;
    const int64_t start = serve::nowNs();
    while (rounds < kEngineMinRounds || secondsSince(start) < args.seconds) {
        const uint64_t round = tracer.begin("round", "bench", 0, rounds);
        for (size_t m = 0; m < kModes; ++m) {
            ConvProbe probe(tracer, s.engines[m].get());
            for (size_t i = 0; i < kEngineImages; ++i) {
                const int64_t t0 = serve::nowNs();
                Tensor out = probe.forward(net, data.images[i],
                                           kEngineModes[m], round, i);
                times[i][m].push_back((serve::nowNs() - t0) / 1e6);
                if (rounds == 0)
                    first[m].push_back(std::move(out));
                else if (!sameBits(out, first[m][i]))
                    ++mismatched;
            }
        }
        // Instrumented (the last mode) accumulates statistics with every
        // image; the bench needs none of them.
        s.engines.back()->resetStats();
        tracer.end(round);
        ++rounds;
    }
    std::vector<double> unit_ms(kEngineImages, 0.0);
    std::array<double, kModes> mode_ms{};
    for (size_t i = 0; i < kEngineImages; ++i) {
        for (size_t m = 0; m < kModes; ++m) {
            const double ms = *std::min_element(times[i][m].begin(),
                                                times[i][m].end());
            unit_ms[i] += ms;
            mode_ms[m] += ms;
        }
    }
    const double total_ms =
        std::accumulate(unit_ms.begin(), unit_ms.end(), 0.0);

    size_t top1_diff = 0;
    for (size_t i = 0; i < kEngineImages; ++i)
        if (top1(first[0][i]) != top1(net.forward(data.images[i])))
            ++top1_diff;
    report.attempted =
        static_cast<uint64_t>(rounds) * kEngineImages * kModes;
    report.failed = mismatched + top1_diff;
    report.check("outputs_repeat_bitwise", mismatched == 0,
                 tally(mismatched, "outputs differ from round 1"));
    report.check("serving_exact_top1_equals_dense", top1_diff == 0,
                 tally(top1_diff, "images differ"));
    addEndToEnd(report, setup_s, unit_ms, kEngineImages * 1e3 / total_ms,
                1.0 - static_cast<double>(report.failed) / report.attempted,
                ownPeakRssMb());
    for (size_t m = 0; m < kModes; ++m) {
        report.context.push_back(
            {std::string(kEngineModes[m]) + "_img_s",
             kEngineImages * 1e3 / mode_ms[m], "1/s"});
    }
    report.context.push_back({"rounds", static_cast<double>(rounds),
                              "count"});

    if (!tracer.enabled())
        return Status();
    const std::vector<Tensor> profiled(
        data.images.begin(), data.images.begin() + kProfileImages);
    profileNetwork(tracer, net, s.exact, s.predictive, profiled, report);
    reportServeLayers(report, ServeLayers());
    reportOfflineLayers(report, OfflineLayers());
    return Status();
}

// ---- offline_squeezenet -------------------------------------------------

constexpr double kEpsilon = 0.02;
constexpr int kOfflineMinRepeats = 2;
/** Roughly one reproduction, constructor included, at four threads;
 *  --seconds 20 makes three repeats. */
constexpr double kOfflineRepeatS = 7.0;
constexpr int kOfflineMaxThreads = 4;

/**
 * The reproduction's outputs at its fixed configuration (SqueezeNet,
 * seed 42, benchHarnessConfig, epsilon 0.02).  Deterministic across
 * thread counts and runs; a change that moves them changed what the
 * reproduction computes.
 */
constexpr double kExpectedMacRatio = 0.806368879;
constexpr double kExpectedSpeedup = 1.281942086;
constexpr double kExpectedTolerance = 1e-8;

/** The outputs one reproduction must repeat exactly. */
struct Reproduction
{
    double exact_accuracy = 0, accuracy = 0, mac_ratio = 0, speedup = 0;
    int candidates = 0, iterations = 0;

    bool operator==(const Reproduction &) const = default;
};

/**
 * benchHarnessConfig at its seed (42) whatever --seed says: another
 * experiment seed changes how much work Algorithm 1 does (6 to 12 s
 * per reproduction over seeds 1-3 and 42), not just its inputs.
 */
HarnessConfig
offlineConfig()
{
    HarnessConfig cfg = benchHarnessConfig();
    cfg.cache_dir = "";  // every repeat runs Algorithm 1 for real
    return cfg;
}

/** The reproduction split at the public calls of each layer. */
Status
offlinePhases(const HarnessConfig &cfg, Tracer &tracer,
              const Reproduction &ref, RunReport &report)
{
    OfflineLayers o;
    const uint64_t phase = tracer.begin("phases", "bench", 0);
    auto timed = [&](const char *name, const char *layer, auto &&fn) {
        const uint64_t span = tracer.begin(name, layer, phase);
        const int64_t t0 = serve::nowNs();
        fn();
        tracer.end(span);
        return secondsSince(t0);
    };
    std::unique_ptr<Experiment> exp;
    o.experiment_s = timed("experiment", "harness", [&] {
        exp = std::make_unique<Experiment>(ModelId::SqueezeNet, cfg);
    });
    std::unique_ptr<SpeculationOptimizer> opt;
    o.profile_s = timed("profile", "optimizer", [&] {
        opt = std::make_unique<SpeculationOptimizer>(
            exp->net(), exp->data(), exp->config().opt_cfg);
    });
    std::optional<StatusOr<OptimizerResult>> res;
    o.global_s = timed("global", "optimizer",
                       [&] { res.emplace(opt->tryRun(kEpsilon)); });
    if (!res->ok())
        return res->status();
    const OptimizerResult &result = res->value();
    const NetworkPlan plan = makeNetworkPlan(exp->net(), result.params);
    double acc = 0.0;
    o.accuracy_s = timed("accuracy", "workload", [&] {
        SnapeaEngine fast(exp->net(), plan);
        fast.setMode(ExecMode::Fast);
        acc = accuracy(exp->net(), exp->data(), &fast);
    });
    o.simulate_s = timed("simulate", "harness", [&] {
        exp->simulateHardware(result.params, exp->config().snapea_cfg);
    });
    o.eyeriss_s = timed("eyeriss", "sim", [&] { exp->simulateEyeriss(); });
    tracer.end(phase);
    o.candidates_evaluated = result.stats.candidates_evaluated;
    o.global_iterations = result.stats.global_iterations;
    report.check("phases_match_reproduction",
                 acc == ref.accuracy &&
                     result.stats.candidates_evaluated == ref.candidates &&
                     result.stats.global_iterations == ref.iterations,
                 "accuracy and optimizer counts of the split run");

    std::vector<Tensor> images(
        exp->data().images.begin(),
        exp->data().images.begin() +
            std::min(kProfileImages, exp->data().images.size()));
    profileNetwork(tracer, exp->net(), makeExactNetworkPlan(exp->net()),
                   plan, images, report);
    reportServeLayers(report, ServeLayers());
    reportOfflineLayers(report, o);
    return Status();
}

Status
runOffline(const WorkloadArgs &args, Tracer &tracer, RunReport &report)
{
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const int threads =
        std::min(kOfflineMaxThreads, static_cast<int>(hw));
    util::setThreadCount(threads);
    const HarnessConfig cfg = offlineConfig();
    if (Status st = validateHarnessConfig(cfg); !st.ok())
        return st;

    // A fixed count, not "until --seconds", so a repeat that ends just
    // past the mark cannot add a whole reproduction to one run only.
    const int repeats = std::max(
        kOfflineMinRepeats,
        static_cast<int>(args.seconds / kOfflineRepeatS + 0.5));
    std::vector<double> setup_s, unit_ms;
    std::vector<Reproduction> runs;
    const int64_t start = serve::nowNs();
    for (int i = 0; i < repeats; ++i) {
        const uint64_t rep = tracer.begin("reproduction", "bench", 0, i);
        const int64_t t0 = serve::nowNs();
        const uint64_t ctor = tracer.begin("experiment", "harness", rep);
        Experiment exp(ModelId::SqueezeNet, cfg);
        tracer.end(ctor);
        const int64_t t1 = serve::nowNs();
        const uint64_t ex_span = tracer.begin("exact", "harness", rep);
        StatusOr<ModeResult> ex = exp.tryRunExact();
        tracer.end(ex_span);
        const uint64_t pr_span = tracer.begin("predictive", "harness", rep);
        StatusOr<ModeResult> pr = exp.tryRunPredictive(kEpsilon);
        tracer.end(pr_span);
        tracer.end(rep);
        setup_s.push_back((t1 - t0) / 1e9);
        unit_ms.push_back((serve::nowNs() - t1) / 1e6);
        if (!ex.ok())
            return ex.status();
        if (!pr.ok())
            return pr.status();
        Reproduction r;
        r.exact_accuracy = ex.value().accuracy;
        r.accuracy = pr.value().accuracy;
        r.mac_ratio = pr.value().mac_ratio;
        r.speedup = pr.value().speedup();
        r.candidates = pr.value().opt_stats.candidates_evaluated;
        r.iterations = pr.value().opt_stats.global_iterations;
        runs.push_back(r);
    }
    const double measured_s = secondsSince(start);

    size_t bad = 0;
    for (const Reproduction &r : runs)
        bad += !(r == runs.front()) || r.exact_accuracy < 1.0 ||
            r.accuracy < 1.0 - kEpsilon;
    const Reproduction &r0 = runs.front();
    char detail[160];
    std::snprintf(detail, sizeof(detail),
                  "exact acc %.4f, predictive acc %.4f, MAC ratio %.9f, "
                  "speedup %.9f",
                  r0.exact_accuracy, r0.accuracy, r0.mac_ratio, r0.speedup);
    report.check("exact_lossless_predictive_within_budget",
                 r0.exact_accuracy >= 1.0 && r0.accuracy >= 1.0 - kEpsilon,
                 detail);
    report.check("mac_ratio_and_speedup_as_expected",
                 std::abs(r0.mac_ratio - kExpectedMacRatio) <
                         kExpectedTolerance &&
                     std::abs(r0.speedup - kExpectedSpeedup) <
                         kExpectedTolerance,
                 "expected MAC ratio 0.806368879, speedup 1.281942086");
    report.check("reproductions_repeat_exactly", bad == 0,
                 tally(bad, "repeats differ or miss the budget"));
    report.attempted = runs.size();
    report.failed = bad;
    addEndToEnd(report, setup_s, unit_ms, runs.size() / measured_s,
                1.0 - static_cast<double>(bad) / runs.size(),
                ownPeakRssMb());
    report.context.push_back({"threads", static_cast<double>(threads),
                              "count"});
    report.context.push_back({"mac_ratio", r0.mac_ratio, "share"});
    report.context.push_back({"speedup", r0.speedup, "x"});
    report.context.push_back({"predictive_accuracy", r0.accuracy,
                              "share"});

    if (!tracer.enabled())
        return Status();
    return offlinePhases(cfg, tracer, r0, report);
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "serve_steady", "serve_overload", "engine_vgg",
        "offline_squeezenet"};
    return names;
}

Status
runWorkload(const WorkloadArgs &args, Tracer &tracer, RunReport &report)
{
    if (args.name == "serve_steady")
        return runServe(args, 120.0, tracer, report);
    if (args.name == "serve_overload")
        return runServe(args, 800.0, tracer, report);
    if (args.name == "engine_vgg")
        return runEngine(args, tracer, report);
    if (args.name == "offline_squeezenet")
        return runOffline(args, tracer, report);
    return statusf(StatusCode::InvalidArgument, "unknown workload '%s'",
                   args.name.c_str());
}

} // namespace snapea::bench
