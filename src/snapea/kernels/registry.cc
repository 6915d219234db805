/**
 * @file
 * Runtime kernel dispatch: pick the best compiled variant the host
 * CPU supports, honor the SNAPEA_SIMD environment override (falling
 * back with a warning when the request cannot be satisfied), and
 * pack PreparedKernel data into the SoA panel layout the row
 * kernels consume.
 */

#include "snapea/kernels/kernels.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "snapea/kernels/cpu_features.hh"
#include "util/check.hh"
#include "util/logging.hh"

namespace snapea::kernels {

// Variant tables, one per compiled TU (see src/snapea/CMakeLists.txt
// for which are built; SNAPEA_KERNELS_* mirror the CMake options).
const KernelOps &scalarKernelOps();
#if SNAPEA_KERNELS_AVX2
const KernelOps &avx2KernelOps(bool relaxed);
#endif

namespace {

/** Compiled-in and supported by this CPU? */
bool
isaUsable(Isa isa)
{
    switch (isa) {
    case Isa::Scalar:
        return true;
    case Isa::Avx2:
#if SNAPEA_KERNELS_AVX2
        // The relaxed variants use FMA; AVX2 CPUs without FMA are
        // essentially nonexistent, but gate on it anyway.
        return cpuInfo().has_avx2
            && (!relaxedAccum() || cpuInfo().has_fma);
#else
        return false;
#endif
    }
    return false;
}

const KernelOps &
opsTable(Isa isa)
{
    switch (isa) {
#if SNAPEA_KERNELS_AVX2
    case Isa::Avx2:
        return avx2KernelOps(relaxedAccum());
#endif
    default:
        return scalarKernelOps();
    }
}

Isa
bestUsable()
{
    return isaUsable(Isa::Avx2) ? Isa::Avx2 : Isa::Scalar;
}

/** Resolve the SNAPEA_SIMD override against what is usable. */
Isa
initialIsa()
{
    const char *env = std::getenv("SNAPEA_SIMD");
    if (!env || !*env || !std::strcmp(env, "auto"))
        return bestUsable();
    Isa want;
    if (!std::strcmp(env, "scalar"))
        want = Isa::Scalar;
    else if (!std::strcmp(env, "avx2"))
        want = Isa::Avx2;
    else {
        warn("SNAPEA_SIMD=%s is not auto|scalar|avx2; "
             "using auto dispatch", env);
        return bestUsable();
    }
    if (!isaUsable(want)) {
        const Isa fallback = bestUsable();
        warn("SNAPEA_SIMD=%s requested but that variant is not "
             "compiled in or not supported by this CPU; using %s",
             env, isaName(fallback));
        return fallback;
    }
    return want;
}

Isa &
activeIsa()
{
    static Isa isa = initialIsa();
    return isa;
}

} // namespace

const char *
isaName(Isa isa)
{
    switch (isa) {
    case Isa::Scalar:
        return "scalar";
    case Isa::Avx2:
        return "avx2";
    }
    return "?";
}

bool
relaxedAccum()
{
    static const bool relaxed = [] {
        const char *env = std::getenv("SNAPEA_RELAXED_ACCUM");
        return env && *env && std::strcmp(env, "0") != 0;
    }();
    return relaxed;
}

const KernelOps &
kernelOps()
{
    return opsTable(activeIsa());
}

const KernelOps *
kernelOpsFor(Isa isa)
{
    return isaUsable(isa) ? &opsTable(isa) : nullptr;
}

std::vector<Isa>
availableIsas()
{
    std::vector<Isa> out;
    for (Isa isa : {Isa::Scalar, Isa::Avx2})
        if (isaUsable(isa))
            out.push_back(isa);
    return out;
}

void
setActiveIsa(Isa isa)
{
    SNAPEA_ASSERT(isaUsable(isa));
    activeIsa() = isa;
}

int
panelTaps(int ks)
{
    SNAPEA_ASSERT(ks > 0);
    // A panel streams its weights + offsets (8 bytes per tap) while
    // the row of windows sweeps by; budget half the L1d for them so
    // the input rows being gathered keep the other half.
    const size_t budget = cpuInfo().l1d_bytes / 2;
    const int taps = static_cast<int>(
        budget / (sizeof(float) + sizeof(int32_t)));
    return std::clamp(taps, 64, std::max(64, ks));
}

PackedKernel
packKernel(const std::vector<float> &w,
           const std::vector<int> &interior_off, int prefix_len,
           int neg_start, float th, float bias)
{
    SNAPEA_ASSERT(w.size() == interior_off.size());
    SNAPEA_ASSERT(prefix_len >= 0 && neg_start >= prefix_len
                  && neg_start <= static_cast<int>(w.size()));
    PackedKernel pk;
    pk.w = w;
    pk.off.assign(interior_off.begin(), interior_off.end());
    pk.prefix_len = prefix_len;
    pk.neg_start = neg_start;
    pk.th = th;
    pk.bias = bias;
    pk.panel = panelTaps(static_cast<int>(w.size()));
    for (size_t i = static_cast<size_t>(neg_start); i < w.size(); ++i)
        pk.neg_finite &= std::isfinite(w[i]);
    return pk;
}

} // namespace snapea::kernels
