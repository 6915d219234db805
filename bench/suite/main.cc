/**
 * @file
 * snapea_bench: the repository's benchmark binary.  One run sets up,
 * measures and checks one workload, prints every metric by name with
 * its unit, and exits non-zero when a correctness check fails.
 *
 * Usage: snapea_bench --workload <name> --seed <n> [--seconds <s>]
 *                     [--trace-out <file>] [--out <file>]
 *
 * --trace-out makes the run a traced run: spans are recorded around
 * every call into the repository's layers, the per-layer metrics are
 * added, and the spans are written there as Chrome trace-event JSON.
 * End-to-end numbers are only comparable between untraced runs.
 * --out writes the whole report (metrics, per-layer metrics, checks,
 * host context) as JSON.  Run it from a directory the bench may write
 * in: daemon port files go next to the binary.
 */

#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "report.hh"
#include "serve/timebase.hh"
#include "snapea/kernels/cpu_features.hh"
#include "snapea/kernels/kernels.hh"
#include "trace.hh"
#include "util/io.hh"
#include "util/stats.hh"
#include "workloads.hh"

using namespace snapea;
using namespace snapea::bench;

namespace {

constexpr int kExitUsage = 2;
constexpr double kDefaultSeconds = 20.0;

/** Canary drift beyond this share marks the run as host-disturbed. */
constexpr double kCanaryTolerance = 0.05;

volatile uint64_t g_canary_sink = 0;

/**
 * A fixed pure-ALU loop that is no project code: it moves only when
 * the host does, so comparisons can set disturbed runs aside.  Median
 * of five, in ms.
 */
double
canaryMs(uint64_t seed)
{
    std::vector<double> ms;
    for (int rep = 0; rep < 5; ++rep) {
        uint64_t x = seed | 1;
        const int64_t t0 = serve::nowNs();
        for (int i = 0; i < 20'000'000; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        ms.push_back((serve::nowNs() - t0) / 1e6);
        g_canary_sink = x;
    }
    return percentile(ms, 0.5);
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "snapea_bench: %s\n"
                 "usage: snapea_bench --workload <name> --seed <n> "
                 "[--seconds <s>] [--trace-out <file>] [--out <file>]\n"
                 "workloads:",
                 why);
    for (const std::string &w : workloadNames())
        std::fprintf(stderr, " %s", w.c_str());
    std::fprintf(stderr, "\n");
    std::exit(kExitUsage);
}

/** Full-string parse of a number in [lo, hi]. */
double
parseNumber(const char *flag, const char *text, double lo, double hi)
{
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(text, &end);
    if (*text == '\0' || *end != '\0' || errno != 0 || !(v >= lo) ||
        !(v <= hi)) {
        std::string why = std::string(flag) + ": '" + text +
            "' is not a number in range";
        usage(why.c_str());
    }
    return v;
}

/** The directory holding this binary (daemon port files go below). */
std::string
exeDir()
{
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        return ".";
    buf[n] = '\0';
    return std::filesystem::path(buf).parent_path().string();
}

void
printMetrics(const char *title, const std::vector<Metric> &ms)
{
    std::printf("%s\n", title);
    for (const Metric &m : ms)
        std::printf("  %-40s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    WorkloadArgs args;
    args.seconds = kDefaultSeconds;
    bool have_seed = false;
    std::string trace_out, out_path;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        if (a == "--workload") {
            args.name = v;
        } else if (a == "--seed") {
            args.seed = static_cast<uint64_t>(
                parseNumber("--seed", v, 0, 4294967295.0));
            have_seed = true;
        } else if (a == "--seconds") {
            args.seconds = parseNumber("--seconds", v, 1, 120);
        } else if (a == "--trace-out") {
            trace_out = v;
        } else if (a == "--out") {
            out_path = v;
        } else {
            usage(("unknown option " + a).c_str());
        }
    }
    bool known = false;
    for (const std::string &w : workloadNames())
        known |= w == args.name;
    if (!known)
        usage("--workload names no workload");
    if (!have_seed)
        usage("--seed is required");

    args.run_dir = exeDir() + "/run";
    std::error_code ec;
    std::filesystem::create_directories(args.run_dir, ec);

    const bool traced = !trace_out.empty();
    Tracer tracer(traced);
    RunReport report;
    const double canary_before = canaryMs(args.seed);
    Status st = runWorkload(args, tracer, report);
    const double canary_after = canaryMs(args.seed);
    if (!st.ok()) {
        std::fprintf(stderr, "snapea_bench: %s: %s\n", args.name.c_str(),
                     st.toString().c_str());
        return 1;
    }

    const kernels::CpuInfo &cpu = kernels::cpuInfo();
    report.simd = kernels::kernelOps().name;
    const bool disturbed =
        std::abs(canary_after - canary_before) >
        kCanaryTolerance * canary_before;
    report.context.push_back({"host.canary_before_ms", canary_before,
                              "ms"});
    report.context.push_back({"host.canary_ms", canary_after, "ms"});
    report.context.push_back({"host.disturbed", disturbed ? 1.0 : 0.0,
                              "bool"});
    report.context.push_back(
        {"nproc", static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN)),
         "count"});
    report.context.push_back(
        {"simd_lanes", static_cast<double>(kernels::kernelOps().lanes),
         "count"});
    report.context.push_back(
        {"l1d_bytes", static_cast<double>(cpu.l1d_bytes), "bytes"});
    report.context.push_back(
        {"l2_bytes", static_cast<double>(cpu.l2_bytes), "bytes"});

    if (traced) {
        const Status written = tracer.writeChrome(trace_out);
        report.check("trace_written", written.ok(), written.toString());
    }

    std::printf("=== snapea_bench %s, seed %llu, %.0f s%s ===\n",
                args.name.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                traced ? ", traced" : "");
    printMetrics("end-to-end:", report.metrics);
    if (traced)
        printMetrics("per-layer:", report.per_layer);
    printMetrics("context:", report.context);
    std::printf("simd: %s\n", report.simd.c_str());
    if (disturbed)
        std::printf("host canary moved %.1f%%: this run is disturbed\n",
                    100.0 * (canary_after - canary_before) / canary_before);
    std::printf("checks:\n");
    for (const Check &c : report.checks)
        std::printf("  [%s] %s: %s\n", c.ok ? "ok" : "FAIL",
                    c.name.c_str(), c.detail.c_str());
    std::printf("attempted %llu, failed %llu, correct %s\n",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed),
                report.correct() ? "yes" : "NO");
    std::fflush(stdout);

    if (!out_path.empty()) {
        const Status w = atomicWriteFile(
            out_path,
            report.toJson(args.name, args.seed, args.seconds, traced));
        if (!w.ok()) {
            std::fprintf(stderr, "snapea_bench: %s\n",
                         w.toString().c_str());
            return 1;
        }
    }
    return report.correct() ? 0 : 1;
}
