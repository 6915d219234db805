#include "snapea/kernels/cpu_features.hh"

#include <unistd.h>

namespace snapea::kernels {

namespace {

/** sysconf with a fallback for absent/zero-reporting kernels. */
size_t
sysconfBytes(int name, size_t fallback)
{
    const long v = ::sysconf(name);
    return v > 0 ? static_cast<size_t>(v) : fallback;
}

CpuInfo
probe()
{
    CpuInfo info;
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
    info.has_avx2 = __builtin_cpu_supports("avx2");
    info.has_fma = __builtin_cpu_supports("fma");
#endif
    // Container kernels commonly report zero cache sizes; fall back
    // to conservative capacities (any x86-64 of the last two decades
    // has at least 32 KiB L1d / 256 KiB L2).
#ifdef _SC_LEVEL1_DCACHE_SIZE
    info.l1d_bytes = sysconfBytes(_SC_LEVEL1_DCACHE_SIZE, 32 * 1024);
#else
    info.l1d_bytes = 32 * 1024;
#endif
#ifdef _SC_LEVEL2_CACHE_SIZE
    info.l2_bytes = sysconfBytes(_SC_LEVEL2_CACHE_SIZE, 256 * 1024);
#else
    info.l2_bytes = 256 * 1024;
#endif
    const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
    info.hardware_threads = n > 0 ? static_cast<int>(n) : 1;
    return info;
}

} // namespace

const CpuInfo &
cpuInfo()
{
    static const CpuInfo info = probe();
    return info;
}

} // namespace snapea::kernels
