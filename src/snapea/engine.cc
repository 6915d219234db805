#include "snapea/engine.hh"

#include <algorithm>

#include "util/check.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace snapea {

PreparedKernel
prepareKernel(const Conv2D &conv, int out_ch, const KernelPlan &plan)
{
    const auto &spec = conv.spec();
    const int ks = conv.kernelSize();
    SNAPEA_ASSERT(static_cast<int>(plan.order.size()) == ks);

    const int cin_g = spec.in_channels / spec.groups;
    const int cout_g = spec.out_channels / spec.groups;
    const int ic0 = (out_ch / cout_g) * cin_g;

    PreparedKernel pk;
    pk.w.resize(ks);
    pk.ic.resize(ks);
    pk.dy.resize(ks);
    pk.dx.resize(ks);
    pk.prefix_len = plan.prefix_len;
    pk.neg_start = plan.neg_start;
    pk.th = plan.params.th;
    pk.bias = conv.bias()[out_ch];
    pk.kernel_w = spec.kernel;

    for (int i = 0; i < ks; ++i) {
        const int idx = plan.order[i];
        int ic_rel, ky, kx;
        conv.decodeIndex(idx, ic_rel, ky, kx);
        pk.w[i] = conv.weightAt(out_ch, idx);
        pk.ic[i] = ic0 + ic_rel;
        pk.dy[i] = ky;
        pk.dx[i] = kx;
        // Index-buffer entries drive raw pointer arithmetic in the
        // window walk; a stale plan (wrong layer, wrong group) shows
        // up here before it can read out of bounds.
        SNAPEA_CHECK(pk.ic[i] >= ic0 && pk.ic[i] < ic0 + cin_g
                     && pk.ic[i] < spec.in_channels);
        SNAPEA_CHECK(ky >= 0 && ky < spec.kernel
                     && kx >= 0 && kx < spec.kernel);
    }
    return pk;
}

void
computeInteriorOffsets(PreparedKernel &pk, int ih, int iw)
{
    pk.interior_off.resize(pk.w.size());
    for (size_t i = 0; i < pk.w.size(); ++i) {
        pk.interior_off[i] = (pk.ic[i] * ih + pk.dy[i]) * iw + pk.dx[i];
    }
}

namespace {

/** True if the window at (iy0, ix0) has no out-of-bounds taps. */
bool
isInterior(const PreparedKernel &pk, int ih, int iw, int iy0, int ix0)
{
    return iy0 >= 0 && ix0 >= 0
        && iy0 + pk.kernel_w <= ih && ix0 + pk.kernel_w <= iw;
}

/** One input tap; out-of-bounds taps read as zero (padding). */
inline float
tapValue(const PreparedKernel &pk, const Tensor &in, int ih, int iw,
         int iy0, int ix0, size_t i)
{
    const int iy = iy0 + pk.dy[i];
    const int ix = ix0 + pk.dx[i];
    if (iy < 0 || iy >= ih || ix < 0 || ix >= iw)
        return 0.0f;
    return in.data()[(static_cast<size_t>(pk.ic[i]) * ih + iy) * iw + ix];
}

} // namespace

float
prefixSum(const PreparedKernel &pk, const Tensor &in, int iy0, int ix0)
{
    const int ih = in.dim(1), iw = in.dim(2);
    float psum = pk.bias;
    if (isInterior(pk, ih, iw, iy0, ix0) && !pk.interior_off.empty()) {
        const float *base = in.data()
            + static_cast<size_t>(iy0) * iw + ix0;
        for (int i = 0; i < pk.prefix_len; ++i) {
            SNAPEA_DCHECK(static_cast<size_t>(base - in.data())
                              + static_cast<size_t>(pk.interior_off[i])
                          < in.size());
            psum += pk.w[i] * base[pk.interior_off[i]];
        }
    } else {
        for (int i = 0; i < pk.prefix_len; ++i)
            psum += pk.w[i] * tapValue(pk, in, ih, iw, iy0, ix0, i);
    }
    return psum;
}

WindowWalk
walkWindow(const PreparedKernel &pk, const Tensor &in, int iy0, int ix0,
           bool need_full)
{
    const int ih = in.dim(1), iw = in.dim(2);
    const int ks = static_cast<int>(pk.w.size());
    const bool interior = isInterior(pk, ih, iw, iy0, ix0)
        && !pk.interior_off.empty();
    const float *base = interior
        ? in.data() + static_cast<size_t>(iy0) * iw + ix0 : nullptr;

    auto tap = [&](int i) {
        // The interior fast path indexes the flat activation buffer
        // directly; check the precomputed offset lands inside it.
        SNAPEA_DCHECK(!interior
                      || static_cast<size_t>(base - in.data())
                              + static_cast<size_t>(pk.interior_off[i])
                          < in.size());
        return interior ? base[pk.interior_off[i]]
                        : tapValue(pk, in, ih, iw, iy0, ix0, i);
    };

    WindowWalk res;
    float psum = pk.bias;
    int i = 0;

    // Phase 1: speculation prefix plus the PAU threshold check.
    for (; i < pk.prefix_len; ++i)
        psum += pk.w[i] * tap(i);
    if (pk.prefix_len > 0 && psum <= pk.th) {
        res.ops = pk.prefix_len;
        res.spec_fired = true;
        // The PE emits a negative surrogate so the downstream ReLU
        // yields zero (Fig. 4c emits "-1").
        res.out = -1.0f;
        if (need_full) {
            // Continue (without counting ops) until the true sign
            // settles: once the partial sum goes negative inside the
            // negative-weight run it can only decrease further.
            float full = psum;
            for (int j = i; j < ks; ++j) {
                // Same monotonicity property as phase 3 below: the
                // early return on a settled negative sign is only
                // sound if later terms cannot push the sum back up.
                SNAPEA_DCHECK(j < pk.neg_start
                              || pk.w[j] * tap(j) <= 0.0f);
                full += pk.w[j] * tap(j);
                if (j >= pk.neg_start && full < 0.0f) {
                    res.full_sum = full;
                    res.full_known = true;
                    return res;
                }
            }
            res.full_sum = full;
            res.full_known = true;
        }
        return res;
    }

    // Phase 2: remaining positive weights, no checks needed.
    for (; i < pk.neg_start; ++i)
        psum += pk.w[i] * tap(i);

    // Phase 3: negative weights with the single-bit sign check.
    for (; i < ks; ++i) {
        // The paper's exactness argument (Section III): weights here
        // are negative and activations non-negative, so every term
        // is <= 0 and the partial sum is monotonically non-
        // increasing — a sign once negative is final.  A positive
        // weight (bad plan) or a negative activation (non-ReLU
        // input) would void the argument; catch both.
        SNAPEA_DCHECK(pk.w[i] < 0.0f);
        SNAPEA_DCHECK(pk.w[i] * tap(i) <= 0.0f);
        psum += pk.w[i] * tap(i);
        if (psum < 0.0f) {
            res.ops = i + 1;
            res.sign_fired = true;
            res.out = psum;
            // Monotonicity makes the sign exact; the full value is
            // not needed (ReLU zeroes it either way).
            res.full_known = false;
            return res;
        }
    }

    res.ops = ks;
    res.out = psum;
    res.full_sum = psum;
    res.full_known = true;
    return res;
}

namespace {

/** One span of walk results in SoA form (kernels::WalkSoa). */
struct WalkRow
{
    std::vector<float> out, full;
    std::vector<int32_t> ops;
    std::vector<uint8_t> flags;

    kernels::WalkSoa soa(size_t n)
    {
        if (out.size() < n) {
            out.resize(n);
            full.resize(n);
            ops.resize(n);
            flags.resize(n);
        }
        return {out.data(), full.data(), ops.data(), flags.data()};
    }
};

/**
 * Each pool worker's span of walk results.  The padded input copy
 * (padInput, nn/conv.hh) belongs to the thread that makes the conv
 * call.
 */
thread_local WalkRow tl_span;

} // namespace

SnapeaEngine::PreparedLayer
SnapeaEngine::prepareLayer(int idx, const LayerPlan &lp) const
{
    SNAPEA_ASSERT(net_.layer(idx).kind() == LayerKind::Conv);
    const auto &conv = static_cast<const Conv2D &>(net_.layer(idx));
    SNAPEA_ASSERT(static_cast<int>(lp.kernels.size())
                  == conv.spec().out_channels);

    // Tap offsets index the zero-padded copy of the layer's input,
    // whose geometry is known statically from the graph.
    const int prod = net_.producers(idx)[0];
    const auto &in_shape = prod == Network::kInput
        ? net_.inputShape() : net_.outputShape(prod);
    const int pad = conv.spec().pad;

    // Kernel preparation is bounded per-layer work with no dataset
    // dependence; cancellable drivers poll between layers (the
    // optimizer's profiling and global passes, runMode's accuracy
    // check).
    PreparedLayer pl;
    pl.in_h = in_shape[1];
    pl.in_w = in_shape[2];
    pl.packed.resize(lp.kernels.size());
    util::parallel_for(
        0, conv.spec().out_channels, 1, [&](std::int64_t o) {
            PreparedKernel pk = prepareKernel(
                conv, static_cast<int>(o), lp.kernels[o]);
            computeInteriorOffsets(pk, pl.in_h + 2 * pad,
                                   pl.in_w + 2 * pad);
            pl.packed[o] = kernels::packKernel(
                pk.w, pk.interior_off, pk.prefix_len, pk.neg_start,
                pk.th, pk.bias);
        });
    for (const auto &kp : lp.kernels)
        pl.any_predictive |= kp.params.predictive();
    return pl;
}

SnapeaEngine::SnapeaEngine(const Network &net, NetworkPlan plan)
    : net_(net),
      plan_(std::move(plan))
{
    for (const auto &[idx, lp] : plan_)
        prepared_.emplace(idx, prepareLayer(idx, lp));
}

void
SnapeaEngine::setLayerPlan(int idx, LayerPlan lp)
{
    prepared_.insert_or_assign(idx, prepareLayer(idx, lp));
    plan_.insert_or_assign(idx, std::move(lp));
}

void
SnapeaEngine::beginImage()
{
    if (collect_traces_)
        traces_.emplace_back();
}

void
SnapeaEngine::resetStats()
{
    stats_.clear();
}

void
SnapeaEngine::clearTraces()
{
    traces_.clear();
}

bool
SnapeaEngine::runConv(int layer_idx, const Conv2D &conv, const Tensor &in,
                      Tensor &out)
{
    auto it = prepared_.find(layer_idx);
    if (it == prepared_.end())
        return false;
    const PreparedLayer &pl = it->second;

    // Layers with no speculating kernel produce bit-identical Fast
    // output to the plain convolution; skip the override.
    if (mode_ == ExecMode::Fast && !pl.any_predictive)
        return false;

    SNAPEA_ASSERT(in.dim(1) == pl.in_h && in.dim(2) == pl.in_w);
    const PaddedWalk pw = padInput(in, conv.spec());
    if (mode_ == ExecMode::Fast)
        runFast(pl, conv, pw, out);
    else if (mode_ == ExecMode::Serving)
        runServing(pl, pw, out);
    else
        runInstrumented(layer_idx, pl, conv, in, pw, out);
    return true;
}

void
SnapeaEngine::runFast(const PreparedLayer &pl, const Conv2D &conv,
                      const PaddedWalk &pw, Tensor &out)
{
    // The dense pass walks the same padded copy as the squash below
    // (one copy per conv call) and writes straight into the caller's
    // tensor; speculated windows are squashed in place.
    conv.forwardPadded(pw, out);

    const kernels::KernelOps &kops = kernels::kernelOps();
    const size_t plane = static_cast<size_t>(pw.oh) * pw.ow;

    // Kernels write disjoint output planes; the per-window prefix
    // sums are unchanged, so the squashing decisions are identical
    // for any thread count.  prefix_row only ever writes the -1.0f
    // surrogate, so a zeroed span marks exactly the squashed windows.
    util::parallel_for(
        0, static_cast<std::int64_t>(pl.packed.size()), 1,
        [&](std::int64_t o) {
            const kernels::PackedKernel &pp = pl.packed[o];
            if (pp.prefix_len == 0)
                return;
            float *res = tl_span.soa(pw.n).out;
            float *dst = out.data() + o * plane;
            pw.forEachSpan(
                [&](size_t first) {
                    std::fill_n(res, pw.n, 0.0f);
                    kops.prefix_row(pp, pw.in + first, pw.stride, pw.n,
                                    res);
                },
                [&](int y, size_t i0) {
                    float *orow = dst + static_cast<size_t>(y) * pw.ow;
                    for (int x = 0; x < pw.ow; ++x) {
                        if (res[i0 + x] < 0.0f)
                            orow[x] = -1.0f;
                    }
                });
        });
}

void
SnapeaEngine::runServing(const PreparedLayer &pl, const PaddedWalk &pw,
                         Tensor &out)
{
    const kernels::KernelOps &kops = kernels::kernelOps();
    const size_t plane = static_cast<size_t>(pw.oh) * pw.ow;

    // The same honest walk as instrumented mode, reduced to what a
    // deployed PE does: the Serving policy records only the value
    // written, so a terminated window stops paying MACs right there,
    // and no counters or samples — wall clock tracks Eq. (1) instead
    // of the full convolution.  Kernels write disjoint output planes,
    // so outputs are bitwise identical for any thread count, same as
    // the other modes.
    util::parallel_for(
        0, static_cast<std::int64_t>(pl.packed.size()), 1,
        [&](std::int64_t o) {
            const kernels::PackedKernel &pp = pl.packed[o];
            const kernels::WalkSoa soa{tl_span.soa(pw.n).out};
            float *dst = out.data() + o * plane;
            pw.forEachSpan(
                [&](size_t first) {
                    kops.walk_row(pp, pw.in + first, pw.stride, pw.n,
                                  pw.nonneg, /*need_full=*/false, soa);
                },
                [&](int y, size_t i0) {
                    std::copy_n(soa.out + i0, pw.ow,
                                dst + static_cast<size_t>(y) * pw.ow);
                });
        });
}

void
SnapeaEngine::runInstrumented(int layer_idx, const PreparedLayer &pl,
                              const Conv2D &conv, const Tensor &in,
                              const PaddedWalk &pw, Tensor &out)
{
    const int oh = pw.oh, ow = pw.ow;
    const int ks = conv.kernelSize();

    LayerExecStats &st = stats_[layer_idx];
    if (st.name.empty())
        st.name = conv.name();

    ConvLayerTrace *trace = nullptr;
    if (collect_traces_) {
        SNAPEA_ASSERT(!traces_.empty());
        traces_.back().conv_layers.emplace_back();
        trace = &traces_.back().conv_layers.back();
        trace->layer_idx = layer_idx;
        trace->name = conv.name();
        trace->out_channels = conv.spec().out_channels;
        trace->out_h = oh;
        trace->out_w = ow;
        trace->kernel_size = ks;
        trace->kernel_w = conv.spec().kernel;
        trace->stride = conv.spec().stride;
        trace->in_channels = in.dim(0);
        trace->in_h = in.dim(1);
        trace->in_w = in.dim(2);
        trace->predictive = pl.any_predictive;
        trace->ops.resize(static_cast<size_t>(conv.spec().out_channels)
                          * oh * ow);
    }

    const kernels::KernelOps &kops = kernels::kernelOps();

    // One partial per kernel.  Instrumented images run one at a time,
    // so reusing the member is safe, and assigning empty partials
    // keeps their vectors' capacity across layers and images.
    const std::int64_t n_ch =
        static_cast<std::int64_t>(pl.packed.size());
    parts_.assign(n_ch, LayerExecStats{});

    // Kernels walk in parallel into per-kernel partials which are
    // merged below on this thread in kernel order.  Every partial
    // depends only on its own kernel's windows and the merge order
    // is fixed, so outputs, counters, fn_values, and the positive
    // sample are bitwise identical for any thread count (including
    // the serial path, which runs the very same code).  Each span is
    // walked into SoA scratch by the SIMD walk kernel (one window per
    // lane, termination via vector masks), then consumed into outputs
    // and statistics in (y, x) order.
    util::parallel_for(0, n_ch, 1, [&](std::int64_t o) {
        LayerExecStats &p = parts_[o];
        const kernels::PackedKernel &pp = pl.packed[o];
        const kernels::WalkSoa soa = tl_span.soa(pw.n);
        uint16_t *trace_ops = trace
            ? trace->ops.data() + static_cast<size_t>(o) * oh * ow
            : nullptr;
        float *plane = out.data() + static_cast<size_t>(o) * oh * ow;
        size_t widx = 0;
        pw.forEachSpan(
            [&](size_t first) {
                kops.walk_row(pp, pw.in + first, pw.stride, pw.n,
                              pw.nonneg, /*need_full=*/true, soa);
            },
            [&](int y, size_t i0) {
                float *orow = plane + static_cast<size_t>(y) * ow;
                for (int x = 0; x < ow; ++x, ++widx) {
                    const size_t i = i0 + x;
                    const int wops = soa.ops[i];
                    const uint8_t fl = soa.flags[i];
                    const bool spec_fired = fl & kernels::kWalkSpecFired;
                    const bool sign_fired = fl & kernels::kWalkSignFired;
                    orow[x] = soa.out[i];

                    ++p.windows;
                    p.macs_performed += wops;
                    if (trace_ops) {
                        trace_ops[widx] = static_cast<uint16_t>(
                            std::min(wops, 65535));
                    }

                    bool actual_neg;
                    if (sign_fired) {
                        actual_neg = true;  // sign check is exact
                    } else if (spec_fired) {
                        SNAPEA_ASSERT(fl & kernels::kWalkFullKnown);
                        actual_neg = soa.full[i] <= 0.0f;
                    } else {
                        actual_neg = soa.out[i] <= 0.0f;
                    }
                    if (actual_neg)
                        ++p.actual_negative;
                    else
                        ++p.actual_positive;

                    if (spec_fired) {
                        ++p.spec_terminated;
                        if (actual_neg) {
                            ++p.true_negative;
                        } else {
                            ++p.false_negative;
                            p.fn_values.push_back(soa.full[i]);
                        }
                    } else if (sign_fired) {
                        ++p.sign_terminated;
                    } else {
                        ++p.completed;
                        if (soa.out[i] > 0.0f) {
                            // Fixed-stride sample of positive
                            // magnitudes for the "errors land on small
                            // positives" statistic of Section VI-B:
                            // every kPosSampleStride-th positive of
                            // this kernel, in (y, x) order.  Unlike a
                            // count-keyed reservoir, the stride sample
                            // depends only on this kernel's own
                            // windows, so it survives the per-kernel
                            // merge unchanged.
                            if (p.pos_seen
                                        % LayerExecStats::kPosSampleStride
                                    == 0
                                && p.pos_sample.size()
                                       < LayerExecStats::kPosSampleCap) {
                                p.pos_sample.push_back(soa.out[i]);
                            }
                            ++p.pos_seen;
                        }
                    }
                }
            });
    });

    size_t macs_performed = 0;
    for (std::int64_t o = 0; o < n_ch; ++o) {
        const LayerExecStats &p = parts_[o];
        st.windows += p.windows;
        st.macs_full += p.windows * static_cast<size_t>(ks);
        st.macs_performed += p.macs_performed;
        st.spec_terminated += p.spec_terminated;
        st.sign_terminated += p.sign_terminated;
        st.completed += p.completed;
        st.actual_negative += p.actual_negative;
        st.actual_positive += p.actual_positive;
        st.true_negative += p.true_negative;
        st.false_negative += p.false_negative;
        st.fn_values.insert(st.fn_values.end(), p.fn_values.begin(),
                            p.fn_values.end());
        for (float v : p.pos_sample) {
            if (st.pos_sample.size() < LayerExecStats::kPosSampleCap)
                st.pos_sample.push_back(v);
        }
        st.pos_seen += p.pos_seen;
        macs_performed += p.macs_performed;
    }
    if (trace) {
        trace->macs_performed = macs_performed;
        trace->macs_full = static_cast<size_t>(ks) * pl.packed.size()
            * oh * ow;
    }
}

} // namespace snapea
