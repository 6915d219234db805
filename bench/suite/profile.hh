/**
 * @file
 * Per-layer timing of the engine and nn layers, measured from outside:
 * a ConvOverride wrapper times every conv call of a forward pass as a
 * child span of the pass's image span, so an image span's self time
 * is its non-conv layers.
 */

#ifndef SNAPEA_BENCH_SUITE_PROFILE_HH
#define SNAPEA_BENCH_SUITE_PROFILE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "nn/network.hh"
#include "report.hh"
#include "snapea/engine.hh"
#include "trace.hh"

namespace snapea::bench {

/**
 * Runs convs through @p engine (or, when it is null, the plain
 * Conv2D of the nn layer) and records one span per conv call.  With
 * tracing off it adds nothing: forward() calls straight through.
 */
class ConvProbe final : public ConvOverride
{
  public:
    ConvProbe(Tracer &tracer, SnapeaEngine *engine)
        : tracer_(tracer), engine_(engine)
    {
    }

    bool runConv(int layer_idx, const Conv2D &conv, const Tensor &in,
                 Tensor &out) override;

    /** @p image through @p net as span @p pass under @p parent. */
    Tensor forward(const Network &net, const Tensor &image,
                   const std::string &pass, uint64_t parent,
                   uint64_t image_idx);

  private:
    Tracer &tracer_;
    SnapeaEngine *engine_;
    uint64_t image_span_ = 0;
};

/**
 * The traced per-layer profile of one network: every image through
 * Serving-exact, Serving-predictive, Fast and Instrumented (the
 * latter two on @p predictive) and the dense network, adding the
 * engine.* and nn.* per-layer metrics to @p report.  Per-stage
 * metrics cut the conv layers, in execution order, into five groups
 * of near-equal count.  Returns the median Serving-exact time per
 * image in ms.
 */
double profileNetwork(Tracer &tracer, const Network &net,
                      const NetworkPlan &exact,
                      const NetworkPlan &predictive,
                      const std::vector<Tensor> &images,
                      RunReport &report);

/** Top-1 class of an output tensor. */
size_t top1(const Tensor &t);

/** Bitwise equality of two tensors. */
bool sameBits(const Tensor &a, const Tensor &b);

} // namespace snapea::bench

#endif // SNAPEA_BENCH_SUITE_PROFILE_HH
