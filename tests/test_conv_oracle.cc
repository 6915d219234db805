/**
 * @file
 * The dense convolution against a plain loop, over generated
 * geometries.
 *
 * Conv2D::forwardInto walks a zero-padded copy of its input on the
 * row kernels (or, on tiny maps, the channel-major kernel), so a
 * padding tap adds w * 0.0f.  Its contract (conv.hh) is the plain
 * (ic, ky, kx) loop that reads 0.0f for a padding tap, bitwise, on
 * every ISA and at any thread count.  A loop that skips padding taps
 * instead agrees bitwise except where the bias is -0.0; a hand-built
 * case pins that difference, and the NaN a non-finite weight on a
 * padding tap makes.
 *
 * The generator covers kernels 1-11, strides 1-4, padding 0..k-1,
 * 1-4 groups, widths that are not a multiple of 8, maps down to 1x1,
 * and channel-major maps with remainder channels.  A failure prints
 * the case's seed and geometry.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "nn/conv.hh"
#include "snapea/kernels/kernels.hh"
#include "util/random.hh"
#include "util/thread_pool.hh"

using namespace snapea;

namespace {

constexpr uint64_t kSeedBase = 23000;
constexpr int kCases = 320;

/** One generated layer: spec, input size and the seed behind both. */
struct Geometry
{
    ConvSpec spec;
    int ih = 1, iw = 1;
    uint64_t seed = 0;
    bool signed_input = false;

    std::string str() const
    {
        return "seed=" + std::to_string(seed) + " cin="
            + std::to_string(spec.in_channels) + " cout="
            + std::to_string(spec.out_channels) + " k="
            + std::to_string(spec.kernel) + " stride="
            + std::to_string(spec.stride) + " pad="
            + std::to_string(spec.pad) + " groups="
            + std::to_string(spec.groups) + " in="
            + std::to_string(ih) + "x" + std::to_string(iw)
            + (signed_input ? " signed" : " relu");
    }
};

int
pick(Rng &rng, int lo, int hi)
{
    return lo + static_cast<int>(rng.uniformInt(hi - lo + 1));
}

/**
 * Case @p i: every fourth case a channel-major map (at most 4x4
 * outputs, 9-19 channels per group, so most groups leave remainder
 * channels), every fourth a map of one or two output rows and
 * columns, the rest maps up to 26 px.
 */
Geometry
makeGeometry(int i)
{
    Geometry g;
    g.seed = kSeedBase + i;
    Rng rng(g.seed);
    ConvSpec &s = g.spec;
    s.kernel = pick(rng, 1, 11);
    s.stride = pick(rng, 1, 4);
    s.pad = pick(rng, 0, s.kernel - 1);
    s.groups = pick(rng, 1, 4);
    s.in_channels = s.groups * pick(rng, 1, 3);
    const int min_in = std::max(1, s.kernel - 2 * s.pad);
    int max_out = 26;
    int cout_g = pick(rng, 1, 5);
    if (i % 4 == 0) {
        max_out = 4;
        cout_g = pick(rng, 9, 19);
    } else if (i % 4 == 1) {
        max_out = 2;
    }
    // Input sizes whose output has at most max_out rows/columns.
    const int max_in = min_in + (max_out - 1) * s.stride
        + s.stride - 1;
    g.ih = pick(rng, min_in, std::min(max_in, 26));
    g.iw = pick(rng, min_in, std::min(max_in, 26));
    s.out_channels = s.groups * cout_g;
    g.signed_input = rng.uniformInt(2) == 1;
    return g;
}

/** Seeded weights and biases, with some exact zeros and negatives. */
void
fillConv(Conv2D &conv, Rng &rng)
{
    for (size_t i = 0; i < conv.weights().size(); ++i) {
        conv.weights()[i] = rng.uniformInt(9) == 0
            ? 0.0f : static_cast<float>(rng.gaussian());
    }
    for (float &b : conv.bias())
        b = static_cast<float>(rng.gaussian(-0.2, 0.5));
}

Tensor
makeInput(const Geometry &g, Rng &rng)
{
    Tensor t({g.spec.in_channels, g.ih, g.iw});
    for (size_t i = 0; i < t.size(); ++i) {
        const float v = static_cast<float>(rng.gaussian(0.1, 1.0));
        t[i] = g.signed_input ? v : std::max(0.0f, v);
    }
    return t;
}

/**
 * The plain loop: bias, then every tap in (ic, ky, kx) order with
 * separate mul and add.  With @p skip_padding a padding tap is
 * skipped; without, it reads 0.0f.
 */
Tensor
plainConv(const Conv2D &conv, const Tensor &in, bool skip_padding)
{
    const ConvSpec &s = conv.spec();
    const int ih = in.dim(1), iw = in.dim(2);
    const int oh = conv.outDim(ih), ow = conv.outDim(iw);
    const int cin_g = s.in_channels / s.groups;
    const int cout_g = s.out_channels / s.groups;
    Tensor out({s.out_channels, oh, ow});
    for (int o = 0; o < s.out_channels; ++o) {
        const int ic0 = o / cout_g * cin_g;
        for (int y = 0; y < oh; ++y) {
            for (int x = 0; x < ow; ++x) {
                float acc = conv.bias()[o];
                int idx = 0;
                for (int ic = 0; ic < cin_g; ++ic)
                    for (int ky = 0; ky < s.kernel; ++ky)
                        for (int kx = 0; kx < s.kernel; ++kx, ++idx) {
                            const int iy = y * s.stride - s.pad + ky;
                            const int ix = x * s.stride - s.pad + kx;
                            const bool inside = iy >= 0 && iy < ih
                                && ix >= 0 && ix < iw;
                            if (!inside && skip_padding)
                                continue;
                            const float v = inside
                                ? in.at(ic0 + ic, iy, ix) : 0.0f;
                            acc += conv.weightAt(o, idx) * v;
                        }
                out.at(o, y, x) = acc;
            }
        }
    }
    return out;
}

/** Bit patterns of the two zeros. */
constexpr uint32_t kPlusZero = 0x00000000u;
constexpr uint32_t kMinusZero = 0x80000000u;

uint32_t
bits(float v)
{
    return std::bit_cast<uint32_t>(v);
}

/** Restore the dispatched ISA and the thread count on scope exit. */
struct DispatchGuard
{
    kernels::Isa saved = kernels::kernelOps().isa;
    ~DispatchGuard()
    {
        kernels::setActiveIsa(saved);
        util::setThreadCount(0);
    }
};

/** forwardInto on every ISA at 1 and 4 threads, each against @p ref. */
void
expectForwardMatches(const Conv2D &conv, const Tensor &in,
                     const Tensor &ref, const std::string &where)
{
    for (const kernels::Isa isa : kernels::availableIsas()) {
        kernels::setActiveIsa(isa);
        for (const int threads : {1, 4}) {
            util::setThreadCount(threads);
            Tensor got(ref.shape());
            got.fill(7.0f);
            conv.forwardInto(in, got);
            EXPECT_EQ(std::memcmp(ref.data(), got.data(),
                                  ref.size() * sizeof(float)),
                      0)
                << where << " isa=" << kernels::isaName(isa)
                << " threads=" << threads;
        }
    }
}

} // namespace

/**
 * Conv2D::forwardInto is bitwise the plain loop that reads 0.0f for
 * padding taps, on every ISA at 1 and 4 threads; the skip-padding
 * loop agrees bitwise, since no generated bias is -0.0.
 */
TEST(ConvOracle, ForwardMatchesPlainLoopOnGeneratedGeometries)
{
    DispatchGuard guard;
    int chan_major = 0, remainder = 0, unit_maps = 0;
    for (int i = 0; i < kCases; ++i) {
        const Geometry g = makeGeometry(i);
        Rng rng(g.seed ^ 0x5eed);
        Conv2D conv("oracle", g.spec);
        fillConv(conv, rng);
        const Tensor in = makeInput(g, rng);

        const Tensor ref = plainConv(conv, in, /*skip_padding=*/false);
        const Tensor skip = plainConv(conv, in, /*skip_padding=*/true);
        const int cout_g = g.spec.out_channels / g.spec.groups;
        if (ref.dim(1) * ref.dim(2) <= 64 && cout_g >= 8) {
            ++chan_major;
            remainder += cout_g % 8 != 0;
        }
        unit_maps += ref.dim(1) == 1 && ref.dim(2) == 1;

        for (const float b : conv.bias())
            ASSERT_NE(bits(b), kMinusZero) << g.str();
        EXPECT_EQ(std::memcmp(ref.data(), skip.data(),
                              ref.size() * sizeof(float)),
                  0)
            << g.str() << " skip-padding loop";
        expectForwardMatches(conv, in, ref, g.str());
        if (HasFailure())
            return;
    }
    // The generator reaches the paths it is meant to reach.
    EXPECT_GE(chan_major, kCases / 5);
    EXPECT_GE(remainder, kCases / 8);
    EXPECT_GE(unit_maps, 10);
    std::printf("%d cases: %d channel-major (%d with remainder channels), "
                "%d with 1x1 outputs\n",
                kCases, chan_major, remainder, unit_maps);
}

/**
 * The contract's two cases where a padding tap's w * 0.0f differs
 * from skipping the tap.  One output window of a 1x1 input, 3x3
 * kernel, padding 1: only the centre tap is inside.
 *
 *  - (b) With a -0.0 bias and a centre product of -0.0, skipping the
 *    padding gives -0.0; a padding tap with a positive weight adds
 *    +0.0 and the result is +0.0.  With every padding weight
 *    negative each padding product is -0.0 and the result stays -0.0.
 *  - (a) An infinite weight on a padding tap makes the window NaN.
 */
TEST(ConvOracle, PaddingTapContractCases)
{
    DispatchGuard guard;
    Conv2D conv("contract", ConvSpec{1, 3, 3, 1, 1, 1});
    const int centre = 4;
    for (int t = 0; t < 9; ++t) {
        conv.setWeightAt(0, t, t == centre ? -1.0f : 1.0f);
        conv.setWeightAt(1, t, -1.0f);
        conv.setWeightAt(2, t, t == 0
                                   ? std::numeric_limits<float>::infinity()
                                   : 1.0f);
    }
    conv.bias() = {-0.0f, -0.0f, 0.5f};
    Tensor in({1, 1, 1});
    in[0] = 0.0f;

    const Tensor skip = plainConv(conv, in, /*skip_padding=*/true);
    EXPECT_EQ(bits(skip[0]), kMinusZero);
    EXPECT_EQ(bits(skip[1]), kMinusZero);
    EXPECT_EQ(skip[2], 0.5f);

    const Tensor ref = plainConv(conv, in, /*skip_padding=*/false);
    EXPECT_EQ(bits(ref[0]), kPlusZero);
    EXPECT_EQ(bits(ref[1]), kMinusZero);
    EXPECT_TRUE(std::isnan(ref[2]));
    expectForwardMatches(conv, in, ref, "contract case");
}
