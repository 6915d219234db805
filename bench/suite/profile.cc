#include "profile.hh"

#include <algorithm>
#include <array>
#include <cstring>
#include <map>

#include "serve/timebase.hh"

namespace snapea::bench {

namespace {

constexpr int kStages = 5;

/** Passes of the profile, in the order each image runs them. */
enum Pass { kServingExact, kServingPredictive, kFast, kInstrumented,
            kDense, kPasses };

constexpr std::array<const char *, kPasses> kPassNames = {
    "serving_exact", "serving_predictive", "fast", "instrumented",
    "dense"};

/**
 * Stage (0-based) of every conv layer: the conv layers in execution
 * order, cut into kStages contiguous groups of near-equal count, so
 * every network of five or more conv layers fills every stage.
 * @p width gets each stage's widest output map.
 */
std::map<int, int>
stageOfLayer(const Network &net, std::array<int, kStages> &width)
{
    const std::vector<int> &convs = net.convLayers();
    std::map<int, int> stage;
    width.fill(0);
    for (size_t i = 0; i < convs.size(); ++i) {
        const int k = static_cast<int>(i * kStages / convs.size());
        stage[convs[i]] = k;
        width[k] = std::max(width[k], net.outputShape(convs[i])[2]);
    }
    return stage;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

bool
ConvProbe::runConv(int layer_idx, const Conv2D &conv, const Tensor &in,
                   Tensor &out)
{
    const int64_t t0 = serve::nowNs();
    if (!engine_ || !engine_->runConv(layer_idx, conv, in, out))
        conv.forwardInto(in, out);
    tracer_.record(conv.name(), engine_ ? "engine" : "nn", image_span_,
                   t0, serve::nowNs(), static_cast<uint64_t>(layer_idx));
    return true;
}

Tensor
ConvProbe::forward(const Network &net, const Tensor &image,
                   const std::string &pass, uint64_t parent,
                   uint64_t image_idx)
{
    if (!tracer_.enabled())
        return net.forward(image, engine_);
    image_span_ = tracer_.begin(pass, engine_ ? "engine" : "nn", parent,
                                image_idx);
    Tensor out = net.forward(image, this);
    tracer_.end(image_span_);
    return out;
}

double
profileNetwork(Tracer &tracer, const Network &net,
               const NetworkPlan &exact, const NetworkPlan &predictive,
               const std::vector<Tensor> &images, RunReport &report)
{
    SnapeaEngine serving_exact(net, exact);
    SnapeaEngine serving_pred(net, predictive);
    SnapeaEngine fast(net, predictive);
    SnapeaEngine instr(net, predictive);
    SnapeaEngine instr_exact(net, exact);
    serving_exact.setMode(ExecMode::Serving);
    serving_pred.setMode(ExecMode::Serving);
    fast.setMode(ExecMode::Fast);
    instr.setMode(ExecMode::Instrumented);
    instr_exact.setMode(ExecMode::Instrumented);
    const std::array<SnapeaEngine *, kPasses> engines = {
        &serving_exact, &serving_pred, &fast, &instr, nullptr};

    // Warm every engine's scratch, then count the exact plan's MACs
    // untimed; the timed Instrumented pass counts the predictive one.
    for (SnapeaEngine *e : engines)
        net.forward(images.front(), e);
    instr.resetStats();
    for (const Tensor &img : images)
        net.forward(img, &instr_exact);

    // Pass-major, like a serving worker that runs one engine: an
    // image-major order would time each engine with caches the other
    // passes just filled with their own weights.
    const uint64_t phase = tracer.begin("profile", "bench", 0);
    for (int p = 0; p < kPasses; ++p) {
        ConvProbe probe(tracer, engines[p]);
        for (size_t i = 0; i < images.size(); ++i)
            probe.forward(net, images[i], kPassNames[p], phase, i);
    }
    tracer.end(phase);

    std::array<int, kStages> width{};
    const std::map<int, int> stage = stageOfLayer(net, width);
    const std::vector<Span> spans = tracer.spans();
    const std::vector<int64_t> self = Tracer::selfNs(spans);
    std::array<double, kPasses> pass_ns{}, conv_ns{};
    std::array<std::array<double, kStages>, kPasses> stage_ns{};
    double dense_self_ns = 0.0;
    std::vector<double> exact_ms;
    std::map<uint64_t, int> pass_of_span;
    for (size_t i = phase; i < spans.size(); ++i) {
        const Span &s = spans[i];
        const double dur = static_cast<double>(s.end_ns - s.start_ns);
        if (s.parent == phase) {
            const int p = static_cast<int>(
                std::find(kPassNames.begin(), kPassNames.end(), s.name) -
                kPassNames.begin());
            pass_of_span[s.id] = p;
            pass_ns[p] += dur;
            if (p == kServingExact)
                exact_ms.push_back(dur / 1e6);
            if (p == kDense)
                dense_self_ns += self[i];
            continue;
        }
        auto it = pass_of_span.find(s.parent);
        if (it == pass_of_span.end())
            continue;
        conv_ns[it->second] += dur;
        stage_ns[it->second][stage.at(static_cast<int>(s.key))] += dur;
    }

    double full = 0, perf_exact = 0, perf_pred = 0, windows = 0;
    double spec_fired = 0, sign_fired = 0, true_neg = 0;
    std::array<double, kStages> st_full{}, st_exact{}, st_pred{};
    for (const auto &[l, st] : instr_exact.stats()) {
        full += st.macs_full;
        perf_exact += st.macs_performed;
        st_full[stage.at(l)] += st.macs_full;
        st_exact[stage.at(l)] += st.macs_performed;
    }
    for (const auto &[l, st] : instr.stats()) {
        perf_pred += st.macs_performed;
        windows += st.windows;
        spec_fired += st.spec_terminated;
        sign_fired += st.sign_terminated;
        true_neg += st.true_negative;
        st_pred[stage.at(l)] += st.macs_performed;
    }

    const double n = static_cast<double>(images.size());
    report.layer("engine.exact_ms_per_img",
                 pass_ns[kServingExact] / n / 1e6, "ms");
    report.layer("engine.predictive_ms_per_img",
                 pass_ns[kServingPredictive] / n / 1e6, "ms");
    report.layer("engine.fast_ms_per_img", pass_ns[kFast] / n / 1e6, "ms");
    report.layer("engine.instrumented_ms_per_img",
                 pass_ns[kInstrumented] / n / 1e6, "ms");
    report.layer("engine.exact_ns_per_mac",
                 ratio(conv_ns[kServingExact], perf_exact), "ns");
    report.layer("engine.predictive_ns_per_mac",
                 ratio(conv_ns[kServingPredictive], perf_pred), "ns");
    report.layer("engine.mac_ratio_exact", ratio(perf_exact, full),
                 "share");
    report.layer("engine.mac_ratio_predictive", ratio(perf_pred, full),
                 "share");
    report.layer("engine.spec_fire_rate", ratio(spec_fired, windows),
                 "share");
    report.layer("engine.sign_fire_rate", ratio(sign_fired, windows),
                 "share");
    report.layer("engine.spec_useful_share", ratio(true_neg, spec_fired),
                 "share");
    report.layer("nn.dense_ms_per_img", pass_ns[kDense] / n / 1e6, "ms");
    report.layer("nn.dense_ns_per_mac", ratio(conv_ns[kDense], full),
                 "ns");
    report.layer("nn.nonconv_ms_per_img", dense_self_ns / n / 1e6, "ms");
    for (int k = 0; k < kStages; ++k) {
        const std::string stage_name = "stage" + std::to_string(k + 1);
        const std::string e = "engine." + stage_name + ".";
        const std::string d = "nn." + stage_name + ".";
        report.layer(e + "exact_us", stage_ns[kServingExact][k] / n / 1e3,
                     "us");
        report.layer(e + "predictive_us",
                     stage_ns[kServingPredictive][k] / n / 1e3, "us");
        report.layer(e + "fast_us", stage_ns[kFast][k] / n / 1e3, "us");
        report.layer(e + "instrumented_us",
                     stage_ns[kInstrumented][k] / n / 1e3, "us");
        report.layer(e + "exact_ns_per_mac",
                     ratio(stage_ns[kServingExact][k], st_exact[k]), "ns");
        report.layer(e + "mac_ratio_exact", ratio(st_exact[k], st_full[k]),
                     "share");
        report.layer(e + "mac_ratio_predictive",
                     ratio(st_pred[k], st_full[k]), "share");
        report.layer(d + "dense_us", stage_ns[kDense][k] / n / 1e3, "us");
        report.layer(d + "dense_ns_per_mac",
                     ratio(stage_ns[kDense][k], st_full[k]), "ns");
        report.context.push_back({stage_name + ".map_px",
                                  static_cast<double>(width[k]), "px"});
        report.context.push_back({stage_name + ".macs_full",
                                  st_full[k] / n, "count"});
    }
    return percentile(exact_ms, 0.5);
}

size_t
top1(const Tensor &t)
{
    const float *v = t.data();
    return static_cast<size_t>(std::max_element(v, v + t.size()) - v);
}

bool
sameBits(const Tensor &a, const Tensor &b)
{
    return a.size() == b.size() &&
        std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

} // namespace snapea::bench
