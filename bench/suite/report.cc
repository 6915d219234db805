#include "report.hh"

#include <cstdio>

#include "util/stats.hh"

namespace snapea::bench {

namespace {

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

/** Full precision, so runs compare on every digit measured. */
std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
metricsJson(const std::vector<Metric> &ms)
{
    std::string out = "{";
    for (size_t i = 0; i < ms.size(); ++i) {
        out += (i ? ", " : "") + jsonString(ms[i].name) +
            ": {\"value\": " + jsonNumber(ms[i].value) +
            ", \"unit\": " + jsonString(ms[i].unit) + "}";
    }
    return out + "}";
}

} // namespace

void
RunReport::metric(const std::string &name, double value,
                  const std::string &unit)
{
    metrics.push_back({name, value, unit});
}

void
RunReport::layer(const std::string &name, double value,
                 const std::string &unit)
{
    per_layer.push_back({name, value, unit});
}

void
RunReport::check(const std::string &name, bool ok,
                 const std::string &detail)
{
    checks.push_back({name, ok, detail});
}

bool
RunReport::correct() const
{
    for (const Check &c : checks)
        if (!c.ok)
            return false;
    return !checks.empty();
}

std::string
RunReport::toJson(const std::string &workload, uint64_t seed,
                  double seconds, bool traced) const
{
    std::string out = "{\"workload\": " + jsonString(workload) +
        ", \"seed\": " + std::to_string(seed) +
        ", \"seconds\": " + jsonNumber(seconds) +
        ", \"traced\": " + (traced ? "true" : "false") +
        ", \"correct\": " + (correct() ? "true" : "false") +
        ", \"attempted\": " + std::to_string(attempted) +
        ", \"failed\": " + std::to_string(failed) +
        ", \"simd\": " + jsonString(simd) +
        ",\n \"metrics\": " + metricsJson(metrics) +
        ",\n \"per_layer\": " + metricsJson(per_layer) +
        ",\n \"context\": " + metricsJson(context) +
        ",\n \"checks\": [";
    for (size_t i = 0; i < checks.size(); ++i) {
        out += std::string(i ? ", " : "") + "{\"name\": " +
            jsonString(checks[i].name) + ", \"ok\": " +
            (checks[i].ok ? "true" : "false") + ", \"detail\": " +
            jsonString(checks[i].detail) + "}";
    }
    return out + "]}\n";
}

double
percentile(const std::vector<double> &xs, double q)
{
    return xs.empty() ? 0.0 : quantile(xs, q);
}

void
addEndToEnd(RunReport &report, const std::vector<double> &setup_s,
            const std::vector<double> &unit_ms, double goodput,
            double ok_share, double rss_mb)
{
    report.metric("setup_s", percentile(setup_s, 0.5), "s");
    report.metric("latency_p50_ms", percentile(unit_ms, 0.5), "ms");
    report.metric("latency_p90_ms", percentile(unit_ms, 0.9), "ms");
    report.metric("goodput_per_s", goodput, "1/s");
    report.metric("ok_share", ok_share, "share");
    report.metric("rss_mb", rss_mb, "MiB");
    report.context.push_back(
        {"setup_samples", static_cast<double>(setup_s.size()), "count"});
    report.context.push_back(
        {"latency_samples", static_cast<double>(unit_ms.size()),
         "count"});
}

} // namespace snapea::bench
