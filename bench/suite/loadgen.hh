/**
 * @file
 * Open-loop load generator over one snapea_serve connection.
 *
 * Arrivals are Poisson at a fixed absolute rate, drawn from the seed
 * before the first send, so two commits receive the same schedule no
 * matter how fast either serves it.  A reply reader thread drains
 * replies concurrently and matches them by request id.  Latency is
 * timed from each request's *scheduled* send, so a stall in the
 * sender or the server counts against every request it delayed, and
 * the sender's own lateness is reported separately.
 */

#ifndef SNAPEA_BENCH_SUITE_LOADGEN_HH
#define SNAPEA_BENCH_SUITE_LOADGEN_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "serve/protocol.hh"
#include "util/status.hh"

namespace snapea::bench {

/** One open-loop phase. */
struct LoadSpec
{
    double rate_rps = 0.0;   ///< Mean arrival rate.
    double warmup_s = 0.0;   ///< Sent and checked, not measured.
    double measure_s = 0.0;  ///< The measured window after warm-up.
    uint64_t seed = 0;       ///< Arrival times and input choice.
};

/** One scheduled request and what became of it. */
struct RequestRecord
{
    int64_t sched_ns = 0;  ///< When the schedule said to send.
    int64_t sent_ns = 0;   ///< When it was sent (0: never sent).
    int64_t reply_ns = 0;  ///< When its reply arrived (0: none).
    uint32_t input = 0;    ///< Index into the input set.
    serve::WireStatus status = serve::WireStatus::Internal;
    int level = 0;         ///< ServeLevel of the reply.
    bool measured = false; ///< Scheduled inside the measured window.
    bool matches = false;  ///< Ok reply equal to the reference.
};

/** Compares an Ok reply to the reference for (input, level). */
using ReplyCheck = std::function<bool(
    uint32_t input, int level, const std::vector<float> &output)>;

/**
 * Run one open-loop phase against 127.0.0.1:@p port, choosing each
 * request's input uniformly from @p inputs.  Returns every scheduled
 * request; sends that got no reply keep reply_ns == 0.
 */
StatusOr<std::vector<RequestRecord>>
runOpenLoop(uint16_t port, const LoadSpec &spec,
            const std::vector<std::vector<float>> &inputs,
            const ReplyCheck &check);

} // namespace snapea::bench

#endif // SNAPEA_BENCH_SUITE_LOADGEN_HH
