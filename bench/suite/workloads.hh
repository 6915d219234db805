/**
 * @file
 * The benchmark's workloads.  README.md in this directory says why
 * each exists and which layer each one stresses.
 */

#ifndef SNAPEA_BENCH_SUITE_WORKLOADS_HH
#define SNAPEA_BENCH_SUITE_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "report.hh"
#include "trace.hh"
#include "util/status.hh"

namespace snapea::bench {

/** What the command line fixes for one run. */
struct WorkloadArgs
{
    std::string name;
    uint64_t seed = 0;
    double seconds = 0.0;  ///< Length of the measured phase.
    std::string run_dir;   ///< Where daemon port files go.
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/**
 * Run one workload: set up, measure, check, and fill @p report.  With
 * @p tracer enabled the run also records spans and adds every
 * per-layer metric.  An error Status means the run could not finish;
 * failed checks are recorded in the report instead.
 */
Status runWorkload(const WorkloadArgs &args, Tracer &tracer,
                   RunReport &report);

} // namespace snapea::bench

#endif // SNAPEA_BENCH_SUITE_WORKLOADS_HH
