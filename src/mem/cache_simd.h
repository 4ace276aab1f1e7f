/**
 * @file
 * Entry points of the AVX2 cache-probe kernel.
 *
 * The kernel lives in its own translation unit compiled with -mavx2
 * (cache_simd_avx2.cc) so the intrinsics compile while the rest of
 * the tree stays at the baseline ISA; the bodies only ever execute
 * after Cache's runtime CPUID dispatch has confirmed host support.
 * The declarations are unconditional; the definitions exist only in
 * HISS_SIMD_X86 builds, and cache.cc references them only under that
 * gate.
 */

#ifndef HISS_MEM_CACHE_SIMD_H_
#define HISS_MEM_CACHE_SIMD_H_

#include "mem/cache_run.h"

namespace hiss {
namespace cache_detail {

std::uint64_t runAvx2Record(RunState &state, const Addr *addrs,
                            std::size_t n, std::uint8_t *hits_out);
std::uint64_t runAvx2Plain(RunState &state, const Addr *addrs,
                           std::size_t n, std::uint8_t *hits_out);

} // namespace cache_detail
} // namespace hiss

#endif // HISS_MEM_CACHE_SIMD_H_
