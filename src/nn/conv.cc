#include "nn/conv.hh"

#include <algorithm>

#include "snapea/kernels/kernels.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace snapea {

namespace {

/**
 * The calling thread's padded input copy (padInput).  One conv call
 * pads on the thread that makes it, and Fast mode is re-entrant from
 * the evaluator's parallel image loop, so one buffer per layer or
 * engine would race.
 */
thread_local std::vector<float> tl_padded;

/** Each pool worker's span of conv_row results. */
thread_local std::vector<float> tl_span;

/**
 * Flat offset of every tap in (ic, ky, kx) order — the accumulation
 * order of the plain loop — in the padded geometry of @p pw.
 * Group-relative: the group's channel base lands in the window base
 * pointer.
 */
std::vector<int32_t>
tapOffsets(int cin_g, int k, const PaddedWalk &pw)
{
    std::vector<int32_t> off(static_cast<size_t>(cin_g) * k * k);
    size_t t = 0;
    for (int ic = 0; ic < cin_g; ++ic)
        for (int ky = 0; ky < k; ++ky)
            for (int kx = 0; kx < k; ++kx, ++t)
                off[t] = static_cast<int32_t>(
                    ic * pw.plane + static_cast<size_t>(ky) * pw.iwp
                    + kx);
    return off;
}

/** Shared read-only context of one dense walk over a padded input. */
struct DenseWalk
{
    const PaddedWalk &pw;
    Tensor &out;
    const Tensor &weights;
    const std::vector<float> &bias;
    int cin_g, cout_g, ks, panel;
    std::vector<int32_t> off;
    const kernels::KernelOps &kops;

    /** Padded input of output channel @p o's group. */
    const float *groupBase(int o) const
    {
        return pw.in + static_cast<size_t>(o / cout_g) * cin_g * pw.plane;
    }
};

/**
 * Window-per-lane path for output channel @p o: the row kernel walks
 * each span of the padded plane, and the kept windows are copied out
 * row by row.
 */
void
rowPathChannel(const DenseWalk &d, int o)
{
    const PaddedWalk &pw = d.pw;
    const float *base = d.groupBase(o);
    const float *w = d.weights.data() + static_cast<size_t>(o) * d.ks;
    if (tl_span.size() < static_cast<size_t>(pw.n))
        tl_span.resize(pw.n);
    float *res = tl_span.data();
    float *dst = d.out.data() + static_cast<size_t>(o) * pw.oh * pw.ow;
    pw.forEachSpan(
        [&](size_t first) {
            d.kops.conv_row(base + first, pw.stride, pw.n, w,
                            d.off.data(), d.ks, d.panel, d.bias[o], res);
        },
        [&](int y, size_t i0) {
            std::copy_n(res + i0, pw.ow,
                        dst + static_cast<size_t>(y) * pw.ow);
        });
}

/**
 * Feature maps up to this many windows run channel-major: eight
 * output channels per lane-register instead of eight windows, since
 * on 2-5 px maps a span leaves most lanes of the row kernels empty.
 */
constexpr int kChanMajorMaxWindows = 64;

/** Origin offset of every output window, in (y, x) order. */
std::vector<size_t>
windowOrigins(const PaddedWalk &pw)
{
    std::vector<size_t> origins;
    origins.reserve(static_cast<size_t>(pw.oh) * pw.ow);
    for (int y = 0; y < pw.oh; ++y)
        for (int x = 0; x < pw.ow; ++x)
            origins.push_back(pw.origin(y, x));
    SNAPEA_DCHECK(origins.back() + static_cast<size_t>(pw.max_off)
                  < pw.size);
    return origins;
}

/**
 * Run one chunk of eight output channels, from @p o0, through the
 * channel-major kernel: transpose the chunk's weights to tap-major
 * form and walk every window of the map in one call.
 */
void
chanMajorChunk(const DenseWalk &d, const std::vector<size_t> &origins,
               int o0)
{
    const float *base = d.groupBase(o0);
    std::vector<float> wt(static_cast<size_t>(d.ks) * 8);
    float bias8[8];
    for (int l = 0; l < 8; ++l) {
        const float *w = d.weights.data()
            + static_cast<size_t>(o0 + l) * d.ks;
        for (int t = 0; t < d.ks; ++t)
            wt[static_cast<size_t>(t) * 8 + l] = w[t];
        bias8[l] = d.bias[o0 + l];
    }

    const int nwin = static_cast<int>(origins.size());
    std::vector<const float *> bases(origins.size());
    for (int w = 0; w < nwin; ++w)
        bases[w] = base + origins[w];
    std::vector<float> out8s(origins.size() * 8);
    d.kops.conv_chan(wt.data(), bias8, bases.data(), nwin, d.off.data(),
                     d.ks, out8s.data());

    const size_t plane = origins.size();
    float *out0 = d.out.data() + static_cast<size_t>(o0) * plane;
    for (int w = 0; w < nwin; ++w)
        for (int l = 0; l < 8; ++l)
            out0[l * plane + w] = out8s[static_cast<size_t>(w) * 8 + l];
}

} // namespace

PaddedWalk
padInput(const Tensor &in, const ConvSpec &spec)
{
    const int ch = in.dim(0), ih = in.dim(1), iw = in.dim(2);
    const int pad = spec.pad, k = spec.kernel, stride = spec.stride;
    const int ihp = ih + 2 * pad;
    const int lanes = kernels::kernelOps().lanes;

    PaddedWalk pw;
    pw.iwp = iw + 2 * pad;
    pw.plane = static_cast<size_t>(ihp) * pw.iwp;
    pw.oh = (ihp - k) / stride + 1;
    pw.ow = (pw.iwp - k) / stride + 1;
    pw.stride = stride;
    pw.rows = stride == 1 ? pw.oh : 1;
    const int span = (pw.rows - 1) * pw.iwp + pw.ow;
    pw.n = (span + lanes - 1) / lanes * lanes;
    pw.max_off = static_cast<int32_t>(
        ((ch - 1) * static_cast<size_t>(ihp) + k - 1) * pw.iwp + k - 1);

    tl_padded.assign(
        ch * pw.plane + static_cast<size_t>(pw.n - span) * stride, 0.0f);
    int negative = 0;
    for (int c = 0; c < ch; ++c) {
        for (int y = 0; y < ih; ++y) {
            const float *src =
                in.data() + (static_cast<size_t>(c) * ih + y) * iw;
            float *dst = tl_padded.data() + c * pw.plane
                + static_cast<size_t>(y + pad) * pw.iwp + pad;
            for (int x = 0; x < iw; ++x) {
                dst[x] = src[x];
                negative |= !(src[x] >= 0.0f);
            }
        }
    }
    pw.nonneg = !negative;
    pw.in = tl_padded.data();
    pw.size = tl_padded.size();
    return pw;
}

Conv2D::Conv2D(std::string name, const ConvSpec &spec)
    : Layer(std::move(name), LayerKind::Conv),
      spec_(spec)
{
    SNAPEA_ASSERT(spec_.in_channels > 0 && spec_.out_channels > 0);
    SNAPEA_ASSERT(spec_.kernel > 0 && spec_.stride > 0 && spec_.pad >= 0);
    SNAPEA_ASSERT(spec_.groups > 0);
    SNAPEA_ASSERT(spec_.in_channels % spec_.groups == 0);
    SNAPEA_ASSERT(spec_.out_channels % spec_.groups == 0);
    weights_ = Tensor({spec_.out_channels, spec_.in_channels / spec_.groups,
                       spec_.kernel, spec_.kernel});
    bias_.assign(spec_.out_channels, 0.0f);
}

int
Conv2D::kernelSize() const
{
    return (spec_.in_channels / spec_.groups) * spec_.kernel * spec_.kernel;
}

float
Conv2D::weightAt(int out_ch, int idx) const
{
    return weights_[static_cast<size_t>(out_ch) * kernelSize() + idx];
}

void
Conv2D::setWeightAt(int out_ch, int idx, float v)
{
    weights_[static_cast<size_t>(out_ch) * kernelSize() + idx] = v;
}

void
Conv2D::decodeIndex(int idx, int &ic, int &ky, int &kx) const
{
    const int k = spec_.kernel;
    kx = idx % k;
    ky = (idx / k) % k;
    ic = idx / (k * k);
}

int
Conv2D::outDim(int n) const
{
    return (n + 2 * spec_.pad - spec_.kernel) / spec_.stride + 1;
}

size_t
Conv2D::macCount(const std::vector<int> &in_shape) const
{
    SNAPEA_ASSERT(in_shape.size() == 3);
    const size_t oh = outDim(in_shape[1]);
    const size_t ow = outDim(in_shape[2]);
    return oh * ow * spec_.out_channels * static_cast<size_t>(kernelSize());
}

std::vector<int>
Conv2D::outputShape(const std::vector<std::vector<int>> &in_shapes) const
{
    SNAPEA_ASSERT(in_shapes.size() == 1);
    const auto &s = in_shapes[0];
    SNAPEA_ASSERT(s.size() == 3);
    if (s[0] != spec_.in_channels) {
        panic("conv layer %s expects %d input channels, got %d",
              name().c_str(), spec_.in_channels, s[0]);
    }
    const int oh = outDim(s[1]);
    const int ow = outDim(s[2]);
    if (oh <= 0 || ow <= 0) {
        panic("conv layer %s output would be empty for input %dx%d",
              name().c_str(), s[1], s[2]);
    }
    return {spec_.out_channels, oh, ow};
}

Tensor
Conv2D::forward(const std::vector<const Tensor *> &inputs) const
{
    SNAPEA_ASSERT(inputs.size() == 1);
    const Tensor &in = *inputs[0];
    Tensor out(outputShape({in.shape()}));
    forwardInto(in, out);
    return out;
}

void
Conv2D::forwardInto(const Tensor &in, Tensor &out) const
{
    SNAPEA_ASSERT(in.dim(0) == spec_.in_channels);
    SNAPEA_ASSERT(out.dim(0) == spec_.out_channels
                  && out.dim(1) == outDim(in.dim(1))
                  && out.dim(2) == outDim(in.dim(2)));
    forwardPadded(padInput(in, spec_), out);
}

void
Conv2D::forwardPadded(const PaddedWalk &pw, Tensor &out) const
{
    SNAPEA_ASSERT(out.dim(0) == spec_.out_channels && out.dim(1) == pw.oh
                  && out.dim(2) == pw.ow && pw.stride == spec_.stride);
    SNAPEA_ASSERT(pw.plane * spec_.in_channels <= pw.size);
    const int cin_g = spec_.in_channels / spec_.groups;
    const int cout_g = spec_.out_channels / spec_.groups;
    const int ks = kernelSize();

    // Every window of the padded input is interior, so every tap is
    // one flat offset from the window origin, the same for every
    // window and output channel: one table for the whole layer.
    const DenseWalk d{pw, out, weights_, bias_, cin_g, cout_g, ks,
                      kernels::panelTaps(ks),
                      tapOffsets(cin_g, spec_.kernel, pw),
                      kernels::kernelOps()};

    // Output channels write disjoint planes, so the per-channel
    // arithmetic (and thus the result bits) does not depend on the
    // thread count.
    if (pw.oh * pw.ow > kChanMajorMaxWindows || cout_g < 8) {
        util::parallel_for(0, spec_.out_channels, 1,
                           [&](std::int64_t o) {
                               rowPathChannel(d, static_cast<int>(o));
                           });
        return;
    }

    // Tiny maps run channel-major: chunks of eight output channels
    // ride the lanes and share each window's taps.  Channels past the
    // last full chunk of a group take the row path.
    const std::vector<size_t> origins = windowOrigins(pw);
    const int chunks = cout_g / 8;
    const int rem = cout_g % 8;
    const std::int64_t nchunk =
        static_cast<std::int64_t>(spec_.groups) * chunks;
    util::parallel_for(
        0, nchunk + static_cast<std::int64_t>(spec_.groups) * rem, 1,
        [&](std::int64_t i) {
            if (i < nchunk) {
                const int g = static_cast<int>(i / chunks);
                const int chunk = static_cast<int>(i % chunks);
                chanMajorChunk(d, origins, g * cout_g + chunk * 8);
            } else {
                const std::int64_t j = i - nchunk;
                const int g = static_cast<int>(j / rem);
                const int r = static_cast<int>(j % rem);
                rowPathChannel(d, g * cout_g + chunks * 8 + r);
            }
        });
}

} // namespace snapea
