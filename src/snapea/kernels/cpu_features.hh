/**
 * @file
 * Host CPU description for kernel dispatch and benchmark context:
 * which SIMD tiers the processor supports, its cache capacities
 * (used to size the packed tap panels), and the hardware thread
 * count (used by the benches to flag meaningless scaling rows).
 */

#ifndef SNAPEA_SNAPEA_KERNELS_CPU_FEATURES_HH
#define SNAPEA_SNAPEA_KERNELS_CPU_FEATURES_HH

#include <cstddef>

namespace snapea::kernels {

/** What the host CPU offers; values are best-effort with fallbacks. */
struct CpuInfo
{
    bool has_avx2 = false;
    bool has_fma = false;
    size_t l1d_bytes = 0;       ///< L1 data cache capacity.
    size_t l2_bytes = 0;        ///< L2 cache capacity.
    int hardware_threads = 1;   ///< Online logical processors.
};

/** Detected host description (probed once, then cached). */
const CpuInfo &cpuInfo();

} // namespace snapea::kernels

#endif // SNAPEA_SNAPEA_KERNELS_CPU_FEATURES_HH
