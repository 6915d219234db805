/**
 * @file
 * What one snapea_bench run reports: named metrics with units,
 * correctness checks, and the attempted/failed tallies, plus the JSON
 * form written by --out.
 */

#ifndef SNAPEA_BENCH_SUITE_REPORT_HH
#define SNAPEA_BENCH_SUITE_REPORT_HH

#include <cstdint>
#include <string>
#include <vector>

namespace snapea::bench {

/** One named measurement with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** One correctness check; a failed check fails the run. */
struct Check
{
    std::string name;
    bool ok = false;
    std::string detail;
};

/** Everything one run measured and checked. */
struct RunReport
{
    std::vector<Metric> metrics;   ///< End-to-end metrics.
    std::vector<Metric> per_layer; ///< Per-layer metrics (traced runs).
    std::vector<Check> checks;
    std::vector<Metric> context;   ///< Host facts, canary, counts.
    std::string simd;              ///< Dispatched kernel ISA.
    uint64_t attempted = 0;
    uint64_t failed = 0;

    void metric(const std::string &name, double value,
                const std::string &unit);
    void layer(const std::string &name, double value,
               const std::string &unit);
    void check(const std::string &name, bool ok,
               const std::string &detail);

    bool correct() const;

    /** The --out document. */
    std::string toJson(const std::string &workload, uint64_t seed,
                       double seconds, bool traced) const;
};

/** q-quantile (linear interpolation); 0 for an empty sample. */
double percentile(const std::vector<double> &xs, double q);

/**
 * Adds the end-to-end metrics every workload reports.  @p unit_ms
 * holds one duration per unit of work (a request, an image, a
 * reproduction); the bench's README names the unit of each workload.
 */
void addEndToEnd(RunReport &report, const std::vector<double> &setup_s,
                 const std::vector<double> &unit_ms, double goodput,
                 double ok_share, double rss_mb);

} // namespace snapea::bench

#endif // SNAPEA_BENCH_SUITE_REPORT_HH
