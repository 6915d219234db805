/**
 * @file
 * The bench's span recorder.  Spans are recorded only around calls
 * the bench makes into the repository's layers (a request on the
 * wire, one image's forward pass, one conv call, one offline phase),
 * kept in memory, and written once at exit as Chrome trace-event
 * JSON, which chrome://tracing and the Perfetto UI open as is.
 *
 * A disabled tracer records nothing and reads no clock, so untraced
 * runs pay one branch per would-be span.
 */

#ifndef SNAPEA_BENCH_SUITE_TRACE_HH
#define SNAPEA_BENCH_SUITE_TRACE_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.hh"

namespace snapea::bench {

/** One timed interval. */
struct Span
{
    uint64_t id = 0;      ///< 1-based; 0 means "no span".
    uint64_t parent = 0;  ///< The span that caused this one, or 0.
    std::string name;
    std::string layer;    ///< Repository module the span times.
    int64_t start_ns = 0;
    int64_t end_ns = -1;  ///< -1 while open.
    uint64_t key = 0;     ///< Request id, image index, or layer index.
    int tid = 0;          ///< 0: main thread, 1: reply reader.
};

/** In-memory span store; safe to record from several threads. */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span starting now; returns its id (0 when disabled). */
    uint64_t begin(const std::string &name, const std::string &layer,
                   uint64_t parent, uint64_t key = 0);

    /** Close span @p id now (no-op for id 0). */
    void end(uint64_t id);

    /** Record a finished span; returns its id (0 when disabled). */
    uint64_t record(const std::string &name, const std::string &layer,
                    uint64_t parent, int64_t start_ns, int64_t end_ns,
                    uint64_t key = 0, int tid = 0);

    /** Snapshot of every span recorded so far, in id order. */
    std::vector<Span> spans() const;

    /**
     * Self time of each span in @p spans: its duration minus the part
     * of it that its direct children cover.
     */
    static std::vector<int64_t> selfNs(const std::vector<Span> &spans);

    /** Write every span as Chrome trace-event JSON. */
    Status writeChrome(const std::string &path) const;

  private:
    const bool enabled_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

} // namespace snapea::bench

#endif // SNAPEA_BENCH_SUITE_TRACE_HH
