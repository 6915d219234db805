#include "loadgen.hh"

#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>

#include "serve/client.hh"
#include "serve/net.hh"
#include "serve/timebase.hh"
#include "util/random.hh"

namespace snapea::bench {

namespace {

/** Lead time between drawing the schedule and its first send. */
constexpr int64_t kStartDelayNs = 20'000'000;

/** How long replies may trail the last send before the phase fails. */
constexpr int64_t kDrainTimeoutNs = 30'000'000'000;

std::chrono::steady_clock::time_point
asTimePoint(int64_t ns)
{
    return std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(ns));
}

} // namespace

StatusOr<std::vector<RequestRecord>>
runOpenLoop(uint16_t port, const LoadSpec &spec,
            const std::vector<std::vector<float>> &inputs,
            const ReplyCheck &check)
{
    if (spec.rate_rps <= 0.0 || inputs.empty()) {
        return Status(StatusCode::InvalidArgument,
                      "open loop needs a positive rate and inputs");
    }
    StatusOr<serve::ServeClient> client =
        serve::ServeClient::connect("", port);
    if (!client.ok())
        return client.status();
    serve::ServeClient &conn = client.value();

    // The whole schedule is drawn before the first send.
    Rng rng(spec.seed);
    std::vector<RequestRecord> recs;
    const int64_t start = serve::nowNs() + kStartDelayNs;
    const double total_s = spec.warmup_s + spec.measure_s;
    for (double t = 0.0;;) {
        t += -std::log(1.0 - rng.uniform()) / spec.rate_rps;
        if (t >= total_s)
            break;
        RequestRecord r;
        r.sched_ns = start + static_cast<int64_t>(t * 1e9);
        r.input = static_cast<uint32_t>(rng.uniformInt(inputs.size()));
        r.measured = t >= spec.warmup_s;
        recs.push_back(r);
    }

    // The reader owns reply_ns/status/level/matches of each record and
    // the sender owns sent_ns; neither touches the other's fields.
    std::atomic<size_t> n_sent{0};
    std::atomic<bool> done_sending{false};
    std::atomic<bool> reader_done{false};
    std::thread reader([&] {
        size_t received = 0;
        while (!(done_sending.load() && received >= n_sent.load())) {
            StatusOr<serve::Reply> rr = conn.readReply();
            if (!rr.ok())
                break; // connection closed: unanswered sends show
            const serve::Reply &r = rr.value();
            if (r.req_id == 0 || r.req_id > recs.size() ||
                recs[r.req_id - 1].reply_ns != 0)
                continue; // not ours or a duplicate: stays unmatched
            RequestRecord &rec = recs[r.req_id - 1];
            rec.reply_ns = serve::nowNs();
            rec.status = r.status;
            rec.level = r.level;
            rec.matches = r.status == serve::WireStatus::Ok &&
                check(rec.input, r.level, r.output);
            ++received;
        }
        reader_done.store(true);
    });

    Status send_status;
    for (size_t i = 0; i < recs.size(); ++i) {
        std::this_thread::sleep_until(asTimePoint(recs[i].sched_ns));
        recs[i].sent_ns = serve::nowNs();
        const std::vector<float> &in = inputs[recs[i].input];
        send_status = conn.sendInfer(i + 1, in.data(), in.size());
        if (!send_status.ok()) {
            recs[i].sent_ns = 0;
            break;
        }
        n_sent.fetch_add(1);
    }
    done_sending.store(true);
    conn.finishSending();

    // A daemon that stops answering fails the phase instead of
    // hanging the bench: past the drain budget the socket is shut,
    // which pops the reader out of its blocking read.
    const int64_t drain_deadline = serve::nowNs() + kDrainTimeoutNs;
    while (!reader_done.load() && serve::nowNs() < drain_deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (!reader_done.load())
        serve::shutdownBoth(conn.fd());
    reader.join();
    if (!send_status.ok())
        return send_status;
    return recs;
}

} // namespace snapea::bench
