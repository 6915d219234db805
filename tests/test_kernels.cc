/**
 * @file
 * Scalar-vs-SIMD equality for the row kernels of snapea/kernels/.
 * The module's determinism contract says every compiled variant is
 * bitwise identical to the scalar reference in default mode — same
 * output bits, same early-termination decisions, same op counts —
 * including the ragged row tails the vector registers cannot cover.
 * These tests check that contract at three levels: raw row kernels
 * over the padding-paths geometries and over hand-built kernels aimed
 * at the walk's block sign checks, the dense-convolution fallback
 * (row path and channel-major path), and full engine runs in the
 * Fast, Instrumented and Serving modes.
 */

#include <cstring>

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "nn/conv.hh"
#include "nn/models/model_zoo.hh"
#include "snapea/engine.hh"
#include "snapea/kernels/kernels.hh"
#include "snapea/reorder.hh"
#include "util/random.hh"
#include "workload/dataset.hh"
#include "workload/weight_init.hh"

using namespace snapea;

namespace {

/** Restore the CPUID-dispatched kernel set on scope exit. */
struct IsaGuard
{
    kernels::Isa saved = kernels::kernelOps().isa;
    ~IsaGuard() { kernels::setActiveIsa(saved); }
};

/** The non-scalar variants available on this machine. */
std::vector<kernels::Isa>
simdIsas()
{
    std::vector<kernels::Isa> isas = kernels::availableIsas();
    isas.erase(std::remove(isas.begin(), isas.end(),
                           kernels::Isa::Scalar),
               isas.end());
    return isas;
}

struct KernelCase
{
    int in_ch, out_ch, k, stride, pad;
    int in_hw;
    uint64_t seed;
};

std::string
caseName(const testing::TestParamInfo<KernelCase> &info)
{
    const KernelCase &c = info.param;
    return "ic" + std::to_string(c.in_ch) + "oc"
        + std::to_string(c.out_ch) + "k" + std::to_string(c.k) + "s"
        + std::to_string(c.stride) + "p" + std::to_string(c.pad)
        + "hw" + std::to_string(c.in_hw);
}

void
fillConv(Conv2D &conv, Rng &rng)
{
    for (size_t i = 0; i < conv.weights().size(); ++i)
        conv.weights()[i] = static_cast<float>(rng.gaussian());
    for (auto &b : conv.bias())
        b = static_cast<float>(rng.gaussian(-0.2, 0.5));
}

/** Post-ReLU input, as the early-termination math assumes. */
Tensor
reluInput(Rng &rng, int ch, int hw)
{
    Tensor t({ch, hw, hw});
    for (size_t i = 0; i < t.size(); ++i)
        t[i] = std::max(0.0f,
                        static_cast<float>(rng.gaussian(0.1, 1.0)));
    return t;
}

/** Per-window walk result buffers. */
struct WalkBufs
{
    std::vector<float> out, full;
    std::vector<int32_t> ops;
    std::vector<uint8_t> flags;

    explicit WalkBufs(int n)
        : out(static_cast<size_t>(n), 7.0f),
          full(static_cast<size_t>(n), 7.0f),
          ops(static_cast<size_t>(n), -7),
          flags(static_cast<size_t>(n), 0xee)
    {
    }

    kernels::WalkSoa soa()
    {
        return {out.data(), full.data(), ops.data(), flags.data()};
    }

    /** The Serving policy's row: out only. */
    kernels::WalkSoa servingSoa() { return {out.data()}; }
};

/** The walk's recording policies, as the engine calls them. */
struct WalkPolicy
{
    const char *name;
    bool instrumented, need_full;
};

constexpr WalkPolicy kWalkPolicies[] = {
    {"serving", false, false},
    {"instrumented", true, false},
    {"instrumented+full", true, true},
};

/** Run one walk row under @p pol into @p b. */
void
walkInto(const kernels::KernelOps &ko, const kernels::PackedKernel &pk,
         const float *win0, int stride, int n, bool nonneg,
         const WalkPolicy &pol, WalkBufs &b)
{
    ko.walk_row(pk, win0, stride, n, nonneg, pol.need_full,
                pol.instrumented ? b.soa() : b.servingSoa());
}

/**
 * The first @p n windows of two walk rows are bitwise equal in every
 * field @p pol records (out only for the Serving policy).
 */
void
expectWalkRowsEqual(const WalkBufs &ref, const WalkBufs &got, int n,
                    const WalkPolicy &pol, const std::string &where)
{
    const size_t nn = static_cast<size_t>(n);
    EXPECT_EQ(std::memcmp(ref.out.data(), got.out.data(),
                          nn * sizeof(float)),
              0)
        << where << " out";
    if (!pol.instrumented)
        return;
    EXPECT_EQ(std::memcmp(ref.full.data(), got.full.data(),
                          nn * sizeof(float)),
              0)
        << where << " full";
    EXPECT_EQ(std::memcmp(ref.ops.data(), got.ops.data(),
                          nn * sizeof(int32_t)),
              0)
        << where << " ops";
    EXPECT_EQ(std::memcmp(ref.flags.data(), got.flags.data(), nn), 0)
        << where << " flags";
}

} // namespace

class KernelRows : public testing::TestWithParam<KernelCase>
{
};

/**
 * conv_row, prefix_row, and walk_row of every compiled SIMD variant
 * produce the scalar reference's bits for every output row of the
 * zero-padded input, border rows included — all span lengths from 1
 * to the full row, so every ragged-tail shape each register width
 * can see is covered — for exact and predictive plans and every walk
 * recording policy.
 */
TEST_P(KernelRows, SimdVariantsMatchScalarBitwise)
{
    const KernelCase &c = GetParam();
    Rng rng(c.seed);
    Conv2D conv("c", ConvSpec{c.in_ch, c.out_ch, c.k, c.stride, c.pad,
                              /*groups=*/1});
    fillConv(conv, rng);
    const Tensor input = reluInput(rng, c.in_ch, c.in_hw);
    const PaddedWalk pw = padInput(input, conv.spec());
    const int ihp = c.in_hw + 2 * c.pad;

    SpeculationParams sp;
    sp.n_groups = 4;
    sp.th = 0.1f;
    const kernels::KernelOps &sc =
        *kernels::kernelOpsFor(kernels::Isa::Scalar);

    for (int o = 0; o < c.out_ch; ++o) {
        for (const bool predictive : {false, true}) {
            const KernelPlan plan = predictive
                ? makePredictivePlan(conv, o, sp)
                : makeExactPlan(conv, o);
            PreparedKernel pk = prepareKernel(conv, o, plan);
            computeInteriorOffsets(pk, ihp, pw.iwp);
            const kernels::PackedKernel packed = kernels::packKernel(
                pk.w, pk.interior_off, pk.prefix_len, pk.neg_start,
                pk.th, pk.bias);
            const int ks = static_cast<int>(packed.w.size());

            for (int y = 0; y < pw.oh; ++y) {
                const float *win0 = pw.in + pw.origin(y, 0);
                for (int n = 1; n <= pw.ow; ++n) {
                    WalkBufs ref(n);
                    sc.conv_row(win0, c.stride, n, packed.w.data(),
                                packed.off.data(), ks, packed.panel,
                                packed.bias, ref.out.data());
                    for (const kernels::Isa isa : simdIsas()) {
                        const kernels::KernelOps &ko =
                            *kernels::kernelOpsFor(isa);
                        WalkBufs got(n);
                        ko.conv_row(win0, c.stride, n,
                                    packed.w.data(),
                                    packed.off.data(), ks,
                                    packed.panel, packed.bias,
                                    got.out.data());
                        EXPECT_EQ(std::memcmp(ref.out.data(),
                                              got.out.data(),
                                              n * sizeof(float)),
                                  0)
                            << "conv_row " << kernels::isaName(isa)
                            << " o=" << o << " y=" << y
                            << " n=" << n;
                    }

                    if (predictive) {
                        WalkBufs pref(n);
                        sc.prefix_row(packed, win0, c.stride, n,
                                      pref.out.data());
                        for (const kernels::Isa isa : simdIsas()) {
                            const kernels::KernelOps &ko =
                                *kernels::kernelOpsFor(isa);
                            WalkBufs pgot(n);
                            ko.prefix_row(packed, win0, c.stride, n,
                                          pgot.out.data());
                            EXPECT_EQ(
                                std::memcmp(pref.out.data(),
                                            pgot.out.data(),
                                            n * sizeof(float)),
                                0)
                                << "prefix_row "
                                << kernels::isaName(isa) << " o=" << o
                                << " y=" << y << " n=" << n;
                        }
                    }

                    for (const WalkPolicy &pol : kWalkPolicies) {
                        WalkBufs wref(n);
                        walkInto(sc, packed, win0, c.stride, n,
                                 /*nonneg=*/true, pol, wref);
                        for (const kernels::Isa isa : simdIsas()) {
                            WalkBufs wgot(n);
                            walkInto(*kernels::kernelOpsFor(isa), packed,
                                     win0, c.stride, n, /*nonneg=*/true,
                                     pol, wgot);
                            expectWalkRowsEqual(
                                wref, wgot, n, pol,
                                std::string("walk_row ")
                                    + kernels::isaName(isa) + " "
                                    + pol.name + " o=" + std::to_string(o)
                                    + " y=" + std::to_string(y)
                                    + " n=" + std::to_string(n));
                        }
                    }
                }
            }
        }
    }
}

/**
 * The row kernels' early-termination decisions (which check fired,
 * after how many ops) on the zero-padded input equal those of
 * walkWindow's bounds-checked path on the unpadded input, for every
 * window, border windows included, per variant.
 */
TEST_P(KernelRows, TerminationDecisionsMatchWalkWindow)
{
    const KernelCase &c = GetParam();
    Rng rng(c.seed + 1);
    Conv2D conv("c", ConvSpec{c.in_ch, c.out_ch, c.k, c.stride, c.pad,
                              /*groups=*/1});
    fillConv(conv, rng);
    const Tensor input = reluInput(rng, c.in_ch, c.in_hw);
    const PaddedWalk pw = padInput(input, conv.spec());

    SpeculationParams sp;
    sp.n_groups = 4;
    sp.th = 0.1f;
    for (int o = 0; o < c.out_ch; ++o) {
        // Without interior offsets walkWindow reads every tap through
        // its bounds check.
        const PreparedKernel generic =
            prepareKernel(conv, o, makePredictivePlan(conv, o, sp));
        PreparedKernel pk = generic;
        computeInteriorOffsets(pk, c.in_hw + 2 * c.pad, pw.iwp);
        const kernels::PackedKernel packed = kernels::packKernel(
            pk.w, pk.interior_off, pk.prefix_len, pk.neg_start, pk.th,
            pk.bias);
        for (int y = 0; y < pw.oh; ++y) {
            const int n = pw.ow;
            const float *win0 = pw.in + pw.origin(y, 0);
            for (const kernels::Isa isa : kernels::availableIsas()) {
                const kernels::KernelOps &ko =
                    *kernels::kernelOpsFor(isa);
                WalkBufs got(n);
                ko.walk_row(packed, win0, c.stride, n, /*nonneg=*/true,
                            /*need_full=*/false, got.soa());
                for (int x = 0; x < n; ++x) {
                    const WindowWalk ww = walkWindow(
                        generic, input, y * c.stride - c.pad,
                        x * c.stride - c.pad, false);
                    const std::string where =
                        std::string(kernels::isaName(isa))
                        + " o=" + std::to_string(o)
                        + " y=" + std::to_string(y)
                        + " x=" + std::to_string(x);
                    EXPECT_EQ(got.ops[x], ww.ops) << where;
                    EXPECT_EQ(got.out[x], ww.out) << where;
                    EXPECT_EQ((got.flags[x] & kernels::kWalkSpecFired)
                                  != 0,
                              ww.spec_fired)
                        << where;
                    EXPECT_EQ((got.flags[x] & kernels::kWalkSignFired)
                                  != 0,
                              ww.sign_fired)
                        << where;
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, KernelRows,
    testing::Values(KernelCase{3, 4, 3, 1, 1, 8, 11},
                    KernelCase{2, 3, 5, 1, 2, 9, 22},
                    KernelCase{4, 2, 3, 2, 1, 10, 33},
                    KernelCase{1, 2, 7, 2, 3, 12, 44},
                    // Wide row: spans longer than any register so
                    // every variant sees full blocks plus a tail.
                    KernelCase{3, 2, 3, 1, 1, 32, 55},
                    // Spans past 32 windows: the walk's and conv_row's
                    // 4-tile groups, at stride 1 and at stride 2.
                    KernelCase{2, 2, 3, 1, 1, 48, 66},
                    KernelCase{2, 2, 3, 2, 1, 80, 77}),
    caseName);

namespace {

/**
 * A hand-built kernel for the walk's block checks.  Window x reads
 * tap t at in[x + t * kHandPitch], so every window's taps are set
 * independently.  Weights are +1 before @c neg_start and -1 from it
 * on; the data (handInput) puts each window's prefix on either side
 * of the threshold and makes its negative run fire on a chosen tap.
 */
struct HandCase
{
    const char *name;
    int ks, prefix_len, neg_start;
    float th, bias;
};

constexpr int kHandPitch = 80;   ///< Floats between taps of a window.
constexpr int kHandMaxN = 72;    ///< Windows per row, up to.

/** How a hand case breaks the block check's precondition. */
enum class Taint { None, Negative, NaN, InfWeight };

/** Negative-run tap that Taint::InfWeight weighs -inf. */
int
handInfTap(const HandCase &hc)
{
    return hc.neg_start + 2;
}

kernels::PackedKernel
handKernel(const HandCase &hc, Taint taint)
{
    std::vector<float> w(static_cast<size_t>(hc.ks));
    std::vector<int> off(static_cast<size_t>(hc.ks));
    for (int t = 0; t < hc.ks; ++t) {
        w[t] = t < hc.neg_start ? 1.0f : -1.0f;
        off[t] = t * kHandPitch;
    }
    if (taint == Taint::InfWeight && handInfTap(hc) < hc.ks)
        w[handInfTap(hc)] = -std::numeric_limits<float>::infinity();
    return kernels::packKernel(w, off, hc.prefix_len, hc.neg_start,
                               hc.th, hc.bias);
}

/**
 * Tap at which window @p x's negative run is built to fire, or
 * hc.ks for a window that completes; cycles through every position
 * of the run, so every block's first and last taps fire somewhere.
 */
int
handFireTap(const HandCase &hc, int x)
{
    const int run = hc.ks - hc.neg_start;
    return hc.neg_start + (x * 5) % (run + 1);
}

/**
 * Inputs for handKernel: every third window speculates (prefix sum
 * bias <= th; the others reach bias + 1), every fourth enters the
 * negative run without the positive bump of 6 (so with a negative
 * bias it enters negative), and the negative run drifts down by
 * 1/1024 per tap until the big value at handFireTap.  With @p taint,
 * some windows then read a negative value or a NaN on the tap after
 * the firing one, or every window reads 0 at the -inf weight, any of
 * which would raise (or poison) the sum before a block ends.
 */
std::vector<float>
handInput(const HandCase &hc, Taint taint)
{
    std::vector<float> in(static_cast<size_t>(hc.ks) * kHandPitch,
                          0.0f);
    for (int x = 0; x < kHandMaxN; ++x) {
        const auto at = [&](int t) -> float & {
            return in[static_cast<size_t>(t) * kHandPitch + x];
        };
        if (hc.prefix_len > 0 && x % 3 != 0)
            at(0) = 1.0f;
        if (hc.prefix_len < hc.neg_start && x % 4 != 1)
            at(hc.prefix_len) = 6.0f;
        const int f = handFireTap(hc, x);
        for (int t = hc.neg_start; t < hc.ks; ++t)
            at(t) = t == f ? 64.0f : 1.0f / 1024.0f;
        if (taint == Taint::InfWeight) {
            if (handInfTap(hc) < hc.ks && handInfTap(hc) != f)
                at(handInfTap(hc)) = 0.0f;
        } else if (f + 1 < hc.ks && taint != Taint::None && x % 2 == 0) {
            at(f + 1) = taint == Taint::Negative
                ? -256.0f : std::numeric_limits<float>::quiet_NaN();
        }
    }
    return in;
}

constexpr HandCase kHandCases[] = {
    // ks not a multiple of 8; neg_start on, before and after a
    // multiple of 8, and a run whose length leaves every remainder
    // mod 8 across the cases.
    {"ks29_ns8", 29, 3, 8, 0.5f, 0.25f},
    {"ks29_ns7", 29, 3, 7, 0.5f, 0.25f},
    {"ks29_ns9", 29, 3, 9, 0.5f, 0.25f},
    {"ks32_ns16", 32, 2, 16, 0.5f, 0.25f},
    {"ks40_ns15", 40, 4, 15, 0.5f, 0.25f},
    {"ks40_ns17", 40, 4, 17, 0.5f, 0.25f},
    // A negative bias: windows without the bump enter the negative
    // run below zero and fire on its first tap.
    {"negative_bias", 29, 3, 8, -3.5f, -4.0f},
    // No speculation prefix; no positive run; no negative run.
    {"no_prefix", 27, 0, 5, 0.0f, 0.25f},
    {"no_positive_run", 21, 2, 2, 0.5f, 0.25f},
    {"no_negative_run", 12, 2, 12, 0.5f, 0.25f},
    // Every lane speculates: Serving settles nothing, need_full
    // settles every lane, in different blocks.
    {"all_speculated", 33, 3, 6, 1.0e30f, 0.25f},
};

} // namespace

/**
 * The vector walks' block sign checks reproduce the scalar per-tap
 * walk bitwise on hand-built kernels: lanes firing on the first and
 * last tap of a block, ragged last blocks, sums already negative on
 * entering the negative run, no prefix, every lane speculated, and
 * need_full lanes settling in different blocks — for every row length
 * up to 72 windows (4-, 2- and 1-tile groups plus tails) and every
 * recording policy.  Inputs with a negative value or a NaN after a
 * firing tap, where a block check would miss the fire, match too when
 * the walk is told its input is not non-negative, and so does a -inf
 * weight meeting a zero input, which the packed kernel flags itself.
 */
TEST(KernelWalk, BlockChecksMatchPerTapWalk)
{
    const kernels::KernelOps &sc =
        *kernels::kernelOpsFor(kernels::Isa::Scalar);
    for (const HandCase &hc : kHandCases) {
        for (const Taint taint : {Taint::None, Taint::Negative,
                                  Taint::NaN, Taint::InfWeight}) {
            const kernels::PackedKernel pk = handKernel(hc, taint);
            const std::vector<float> in = handInput(hc, taint);
            const bool nonneg =
                taint == Taint::None || taint == Taint::InfWeight;

            // The data does what it was built to: each unspeculated
            // window fires on its tap (or on the run's first tap when
            // it enters negative), or completes.
            WalkBufs ref(kHandMaxN);
            sc.walk_row(pk, in.data(), 1, kHandMaxN, nonneg, false,
                        ref.soa());
            for (int x = 0; x < kHandMaxN && taint == Taint::None; ++x) {
                if (ref.flags[x] & kernels::kWalkSpecFired)
                    continue;
                const int f = handFireTap(hc, x);
                const bool enters_negative = hc.bias < 0.0f
                    && x % 4 == 1;
                const int want = enters_negative && hc.neg_start < hc.ks
                    ? hc.neg_start + 1
                    : std::min(f + 1, hc.ks);
                ASSERT_EQ(ref.ops[x], want) << hc.name << " x=" << x;
            }

            for (const WalkPolicy &pol : kWalkPolicies) {
                for (int n = 1; n <= kHandMaxN; ++n) {
                    WalkBufs wref(n);
                    walkInto(sc, pk, in.data(), 1, n, nonneg, pol, wref);
                    for (const kernels::Isa isa : simdIsas()) {
                        WalkBufs wgot(n);
                        walkInto(*kernels::kernelOpsFor(isa), pk,
                                 in.data(), 1, n, nonneg, pol, wgot);
                        expectWalkRowsEqual(
                            wref, wgot, n, pol,
                            std::string(hc.name) + " "
                                + kernels::isaName(isa) + " " + pol.name
                                + " taint="
                                + std::to_string(static_cast<int>(taint))
                                + " n=" + std::to_string(n));
                    }
                }
            }
        }
    }
}

/**
 * The dense matvec kernel is bitwise identical across variants for
 * widths covering every remainder mod 8.
 */
TEST(KernelDense, VariantsMatchScalarBitwise)
{
    Rng rng(5);
    const kernels::KernelOps &sc =
        *kernels::kernelOpsFor(kernels::Isa::Scalar);
    for (const int n_in : {1, 2, 3, 5, 7, 8, 9, 15, 16, 63, 64, 200}) {
        const int n_out = 13;
        std::vector<float> w(static_cast<size_t>(n_in) * n_out);
        std::vector<float> x(static_cast<size_t>(n_in));
        std::vector<float> bias(static_cast<size_t>(n_out));
        for (float &v : w)
            v = static_cast<float>(rng.gaussian());
        for (float &v : x)
            v = static_cast<float>(rng.gaussian());
        for (float &v : bias)
            v = static_cast<float>(rng.gaussian());

        std::vector<float> ref(static_cast<size_t>(n_out));
        sc.dense(w.data(), x.data(), bias.data(), n_in, n_out,
                 ref.data());
        for (const kernels::Isa isa : simdIsas()) {
            std::vector<float> got(static_cast<size_t>(n_out), -9.0f);
            kernels::kernelOpsFor(isa)->dense(w.data(), x.data(),
                                              bias.data(), n_in,
                                              n_out, got.data());
            EXPECT_EQ(std::memcmp(ref.data(), got.data(),
                                  ref.size() * sizeof(float)),
                      0)
                << kernels::isaName(isa) << " n_in=" << n_in;
        }
    }
}

/**
 * The channel-major kernel matches both the scalar variant and the
 * plain (ic, ky, kx) convolution loop bitwise.
 */
TEST(KernelConvChan, VariantsMatchPlainLoopBitwise)
{
    Rng rng(6);
    const int cin = 3, k = 3, ih = 7, iw = 7;
    const int ks = cin * k * k;
    std::vector<float> wt(static_cast<size_t>(ks) * 8);
    float bias8[8];
    for (float &v : wt)
        v = static_cast<float>(rng.gaussian());
    for (float &b : bias8)
        b = static_cast<float>(rng.gaussian());
    std::vector<float> in(static_cast<size_t>(cin) * ih * iw);
    for (float &v : in)
        v = static_cast<float>(rng.uniform());

    // Full-kernel offsets in plain-loop order.
    std::vector<int32_t> off;
    for (int ic = 0; ic < cin; ++ic)
        for (int ky = 0; ky < k; ++ky)
            for (int kx = 0; kx < k; ++kx)
                off.push_back((ic * ih + ky) * iw + kx);

    // Window count covers full lane blocks plus ragged tails.
    for (const int nwin : {1, 2, 3, 4, 5, 8, 9}) {
        std::vector<const float *> bases;
        for (int wi = 0; wi < nwin; ++wi)
            bases.push_back(in.data() + wi % (iw - k + 1));

        // Plain serial loop, the module's ground truth.
        std::vector<float> ref(static_cast<size_t>(nwin) * 8);
        for (int wi = 0; wi < nwin; ++wi)
            for (int l = 0; l < 8; ++l) {
                float acc = bias8[l];
                for (int j = 0; j < ks; ++j)
                    acc += wt[static_cast<size_t>(j) * 8 + l]
                        * bases[wi][off[j]];
                ref[static_cast<size_t>(wi) * 8 + l] = acc;
            }

        for (const kernels::Isa isa : kernels::availableIsas()) {
            std::vector<float> got(static_cast<size_t>(nwin) * 8,
                                   -9.0f);
            kernels::kernelOpsFor(isa)->conv_chan(
                wt.data(), bias8, bases.data(), nwin, off.data(), ks,
                got.data());
            EXPECT_EQ(std::memcmp(ref.data(), got.data(),
                                  ref.size() * sizeof(float)),
                      0)
                << kernels::isaName(isa) << " nwin=" << nwin;
        }
    }
}

/**
 * Conv2D::forwardInto is bitwise identical under every dispatched
 * variant, on both a large map (row path) and a tiny map with many
 * output channels (channel-major path, including its remainder
 * channels).
 */
TEST(KernelConvLayer, ForwardBitwiseIdenticalAcrossIsas)
{
    if (simdIsas().empty())
        GTEST_SKIP() << "only the scalar variant is available";
    IsaGuard guard;
    struct LayerCase
    {
        ConvSpec spec;
        int in_hw;
    };
    const LayerCase cases[] = {
        {{3, 4, 3, 1, 1, 1}, 32},    // row path
        {{8, 19, 3, 1, 1, 1}, 8},    // channel-major + remainder
        {{4, 16, 5, 2, 2, 2}, 9},    // grouped, channel-major
    };
    Rng rng(9);
    for (const LayerCase &lc : cases) {
        Conv2D conv("c", lc.spec);
        fillConv(conv, rng);
        const Tensor input = reluInput(rng, lc.spec.in_channels,
                                       lc.in_hw);

        kernels::setActiveIsa(kernels::Isa::Scalar);
        const Tensor ref = conv.forward({&input});
        for (const kernels::Isa isa : simdIsas()) {
            kernels::setActiveIsa(isa);
            const Tensor got = conv.forward({&input});
            ASSERT_EQ(ref.shape(), got.shape());
            EXPECT_EQ(std::memcmp(ref.data(), got.data(),
                                  ref.size() * sizeof(float)),
                      0)
                << kernels::isaName(isa) << " k=" << lc.spec.kernel
                << " hw=" << lc.in_hw;
        }
    }
}

namespace {

/** Small calibrated AlexNet + dataset for the engine-level test. */
struct EngineContext
{
    std::unique_ptr<Network> net;
    Dataset data;

    EngineContext()
    {
        ModelScale scale;
        scale.input_size = 40;
        net = buildModel(ModelId::AlexNet, scale);
        Rng rng(17);
        DatasetSpec cspec;
        cspec.num_classes = 4;
        cspec.images_per_class = 1;
        Rng crng = rng.fork(1);
        Dataset calib = makeDataset(crng, net->inputShape(), cspec);
        WeightInitSpec wspec;
        wspec.neg_fraction = 0.55;
        Rng wrng = rng.fork(2);
        initializeWeights(*net, wrng, calib.images, wspec);

        DatasetSpec dspec;
        dspec.num_classes = 4;
        dspec.images_per_class = 1;
        Rng drng = rng.fork(3);
        data = makeDataset(drng, net->inputShape(), dspec);
    }
};

EngineContext &
engineCtx()
{
    static EngineContext c;
    return c;
}

NetworkPlan
predictivePlan(const Network &net)
{
    std::map<int, std::vector<SpeculationParams>> params;
    for (int l : net.convLayers()) {
        const auto &conv = static_cast<const Conv2D &>(net.layer(l));
        SpeculationParams sp;
        sp.n_groups = 8;
        sp.th = 0.05f;
        params[l].assign(conv.spec().out_channels, sp);
    }
    return makeNetworkPlan(net, params);
}

struct EngineRun
{
    std::vector<Tensor> outputs;
    std::map<int, LayerExecStats> stats;
};

EngineRun
runEngine(ExecMode mode)
{
    EngineRun run;
    SnapeaEngine engine(*engineCtx().net,
                        predictivePlan(*engineCtx().net));
    engine.setMode(mode);
    for (const Tensor &img : engineCtx().data.images)
        run.outputs.push_back(engineCtx().net->forward(img, &engine));
    run.stats = engine.stats();
    return run;
}

} // namespace

/**
 * A full engine run — Fast, Instrumented and Serving — produces
 * identical output bits and identical termination statistics
 * whichever kernel variant dispatches: every available ISA against
 * scalar.
 */
TEST(KernelEngine, EveryIsaRunsBitwiseIdentical)
{
    const std::vector<kernels::Isa> simd = simdIsas();
    if (simd.empty())
        GTEST_SKIP() << "only the scalar variant is available";
    IsaGuard guard;

    for (const ExecMode mode :
         {ExecMode::Fast, ExecMode::Instrumented, ExecMode::Serving}) {
        kernels::setActiveIsa(kernels::Isa::Scalar);
        const EngineRun ref = runEngine(mode);
        for (const kernels::Isa isa : simd) {
            kernels::setActiveIsa(isa);
            const EngineRun got = runEngine(mode);
            const std::string where = std::string(kernels::isaName(isa))
                + " mode " + std::to_string(static_cast<int>(mode));

            ASSERT_EQ(ref.outputs.size(), got.outputs.size());
            for (size_t i = 0; i < ref.outputs.size(); ++i) {
                ASSERT_EQ(ref.outputs[i].shape(),
                          got.outputs[i].shape());
                EXPECT_EQ(std::memcmp(ref.outputs[i].data(),
                                      got.outputs[i].data(),
                                      ref.outputs[i].size()
                                          * sizeof(float)),
                          0)
                    << where << " image " << i;
            }
            ASSERT_EQ(ref.stats.size(), got.stats.size());
            for (const auto &[l, st] : ref.stats) {
                ASSERT_TRUE(got.stats.count(l));
                const LayerExecStats &gs = got.stats.at(l);
                EXPECT_EQ(st.macs_performed, gs.macs_performed) << where;
                EXPECT_EQ(st.spec_terminated, gs.spec_terminated)
                    << where;
                EXPECT_EQ(st.sign_terminated, gs.sign_terminated)
                    << where;
                EXPECT_EQ(st.completed, gs.completed) << where;
                EXPECT_EQ(st.true_negative, gs.true_negative) << where;
                EXPECT_EQ(st.false_negative, gs.false_negative)
                    << where;
                EXPECT_EQ(st.fn_values, gs.fn_values) << where;
                EXPECT_EQ(st.pos_sample, gs.pos_sample) << where;
            }
        }
    }
}

/**
 * A client's negative pixels, or a NaN, reach the first conv layer
 * unclamped.  The engine notices while it pads the input and has the
 * walk check every tap, so Serving on every ISA gives the scalar
 * per-tap walk's bits, for exact and predictive plans alike.
 */
TEST(KernelEngine, ServingMatchesPerTapWalkOnNegativeAndNaNInputs)
{
    const std::vector<kernels::Isa> simd = simdIsas();
    if (simd.empty())
        GTEST_SKIP() << "only the scalar variant is available";
    IsaGuard guard;
    Rng rng(23);
    const int hw = 24;
    Network net("signed", {3, hw, hw});
    auto conv = std::make_unique<Conv2D>("c", ConvSpec{3, 6, 3, 1, 1, 1});
    fillConv(*conv, rng);
    net.add(std::move(conv));
    const int layer = net.convLayers().at(0);

    Tensor negative({3, hw, hw});
    for (size_t i = 0; i < negative.size(); ++i)
        negative[i] = static_cast<float>(rng.gaussian(0.1, 1.0));
    Tensor nan = reluInput(rng, 3, hw);
    for (size_t i = 5; i < nan.size(); i += 37)
        nan[i] = std::numeric_limits<float>::quiet_NaN();

    SpeculationParams sp;
    sp.n_groups = 4;
    sp.th = 0.1f;
    std::map<int, std::vector<SpeculationParams>> params;
    params[layer].assign(6, sp);
    const NetworkPlan plans[] = {makeExactNetworkPlan(net),
                                 makeNetworkPlan(net, params)};

    const auto serve = [&](const NetworkPlan &plan, const Tensor &in) {
        SnapeaEngine engine(net, plan);
        engine.setMode(ExecMode::Serving);
        return net.forward(in, &engine);
    };
    for (const NetworkPlan &plan : plans) {
        for (const Tensor *in : {&negative, &nan}) {
            kernels::setActiveIsa(kernels::Isa::Scalar);
            const Tensor ref = serve(plan, *in);
            for (const kernels::Isa isa : simd) {
                kernels::setActiveIsa(isa);
                const Tensor got = serve(plan, *in);
                ASSERT_EQ(ref.shape(), got.shape());
                EXPECT_EQ(std::memcmp(ref.data(), got.data(),
                                      ref.size() * sizeof(float)),
                          0)
                    << kernels::isaName(isa) << " "
                    << (in == &nan ? "nan" : "negative") << " input, "
                    << (plan.at(layer).kernels[0].params.predictive()
                            ? "predictive"
                            : "exact")
                    << " plan";
            }
        }
    }
}
