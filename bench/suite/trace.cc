#include "trace.hh"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "serve/timebase.hh"
#include "util/io.hh"

namespace snapea::bench {

uint64_t
Tracer::begin(const std::string &name, const std::string &layer,
              uint64_t parent, uint64_t key)
{
    if (!enabled_)
        return 0;
    return record(name, layer, parent, serve::nowNs(), -1, key);
}

void
Tracer::end(uint64_t id)
{
    if (id == 0)
        return;
    const int64_t now = serve::nowNs();
    std::lock_guard lock(mu_);
    if (id <= spans_.size())
        spans_[id - 1].end_ns = now;
}

uint64_t
Tracer::record(const std::string &name, const std::string &layer,
               uint64_t parent, int64_t start_ns, int64_t end_ns,
               uint64_t key, int tid)
{
    if (!enabled_)
        return 0;
    std::lock_guard lock(mu_);
    Span s;
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.name = name;
    s.layer = layer;
    s.start_ns = start_ns;
    s.end_ns = end_ns;
    s.key = key;
    s.tid = tid;
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard lock(mu_);
    return spans_;
}

std::vector<int64_t>
Tracer::selfNs(const std::vector<Span> &spans)
{
    // Children of each span as [start, end) intervals; the union of
    // them is what the parent did not spend itself.
    std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(
        spans.size());
    for (const Span &s : spans) {
        if (s.parent == 0 || s.parent > spans.size() || s.end_ns < 0)
            continue;
        kids[s.parent - 1].emplace_back(s.start_ns, s.end_ns);
    }
    std::vector<int64_t> self(spans.size(), 0);
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        if (s.end_ns < 0)
            continue;
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        int64_t covered = 0, cur_lo = 0, cur_hi = 0;
        bool open = false;
        for (auto [lo, hi] : iv) {
            lo = std::max(lo, s.start_ns);
            hi = std::min(hi, s.end_ns);
            if (hi <= lo)
                continue;
            if (open && lo <= cur_hi) {
                cur_hi = std::max(cur_hi, hi);
                continue;
            }
            if (open)
                covered += cur_hi - cur_lo;
            cur_lo = lo;
            cur_hi = hi;
            open = true;
        }
        if (open)
            covered += cur_hi - cur_lo;
        self[i] = (s.end_ns - s.start_ns) - covered;
    }
    return self;
}

Status
Tracer::writeChrome(const std::string &path) const
{
    const std::vector<Span> all = spans();
    const std::vector<int64_t> self = selfNs(all);
    const int64_t t0 = all.empty() ? 0 : all.front().start_ns;
    std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    char buf[512];
    for (size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        if (s.end_ns < 0)
            continue;
        std::snprintf(
            buf, sizeof(buf),
            "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
            "\"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
            "\"args\": {\"id\": %llu, \"parent\": %llu, \"key\": %llu, "
            "\"self_us\": %.3f}}",
            out.back() == '[' ? "" : ",", s.name.c_str(),
            s.layer.c_str(), s.tid, (s.start_ns - t0) / 1e3,
            (s.end_ns - s.start_ns) / 1e3,
            static_cast<unsigned long long>(s.id),
            static_cast<unsigned long long>(s.parent),
            static_cast<unsigned long long>(s.key), self[i] / 1e3);
        out += buf;
    }
    out += "\n]}\n";
    return atomicWriteFile(path, out);
}

} // namespace snapea::bench
