/**
 * @file
 * Runtime-dispatched SIMD kernels for the bit-plane hot paths
 * (DESIGN.md §14). One binary carries every implementation — a portable
 * scalar word loop, AVX2, and NEON — and the active table is selected at
 * runtime from SystemConfig::simd, the INFS_SIMD environment variable, or
 * cpuid/compile-time detection. Every table computes bit-identical
 * results; the tests in tests/bitserial/test_simd_paths.cc certify each
 * reachable path differentially against the portable one.
 *
 * Two kernel families live here:
 *  - row kernels: one pass over a BitRow's packed words (full adder,
 *    majority, select, predicated merge — the PR 4 fused word loops);
 *  - block kernels: 32x32 bit-matrix transpose and 64-lane fp32 ops, the
 *    building blocks of the chunked bit transpose (loadArray/storeArray)
 *    and the blocked fpBinary path in ComputeSram.
 */

#ifndef INFS_BITSERIAL_SIMD_HH
#define INFS_BITSERIAL_SIMD_HH

#include <cstddef>
#include <cstdint>

#include "sim/config.hh"

namespace infs::simd {

/** fp32 lane operation selector for SimdKernels::fpLanes. */
enum class FpOp : std::uint8_t { Add, Sub, Mul, Div, Max, Min };

/**
 * One resolved kernel table. All function pointers are non-null; `isa`
 * names the implementation for stats/bench attribution.
 */
struct SimdKernels {
    SimdIsa isa = SimdIsa::Portable;

    /** sum' = sum ^ addend ^ carry; carry' = maj(sum, addend, carry). */
    void (*rowFullAdder)(std::uint64_t *sum, const std::uint64_t *addend,
                         std::uint64_t *carry, std::size_t n);
    /** dst = (a & b) | (dst & (a ^ b)) — the carry half alone. */
    void (*rowMaj)(std::uint64_t *dst, const std::uint64_t *a,
                   const std::uint64_t *b, std::size_t n);
    /** dst = (a & pred) | (b & ~pred). */
    void (*rowSelect)(std::uint64_t *dst, const std::uint64_t *a,
                      const std::uint64_t *b, const std::uint64_t *pred,
                      std::size_t n);
    /** dst = (dst & ~mask) | (val & mask). */
    void (*rowMergeMasked)(std::uint64_t *dst, const std::uint64_t *val,
                           const std::uint64_t *mask, std::size_t n);
    /** dst = a & b (dst may alias either input). */
    void (*rowAssignAnd)(std::uint64_t *dst, const std::uint64_t *a,
                         const std::uint64_t *b, std::size_t n);
    /** dst = ~a & m (dst may alias either input). */
    void (*rowNotAnd)(std::uint64_t *dst, const std::uint64_t *a,
                      const std::uint64_t *m, std::size_t n);
    /** dst &= src / dst |= src / dst ^= src. */
    void (*rowAnd)(std::uint64_t *dst, const std::uint64_t *src,
                   std::size_t n);
    void (*rowOr)(std::uint64_t *dst, const std::uint64_t *src,
                  std::size_t n);
    void (*rowXor)(std::uint64_t *dst, const std::uint64_t *src,
                   std::size_t n);

    /**
     * Plain 32x32 bit-matrix transpose: out[c] bit r == in[r] bit c
     * (LSB-first bit numbering on both sides). in and out must not alias.
     */
    void (*transpose32)(const std::uint32_t *in, std::uint32_t *out);

    /**
     * 64 independent fp32 lane ops on raw bit patterns: r[i] =
     * op(bit_cast<float>(a[i]), bit_cast<float>(b[i])). Exactly one IEEE
     * operation per lane — Max/Min use the scalar `a > b ? a : b` /
     * `a < b ? a : b` semantics (NaN and signed-zero behavior included),
     * so every ISA produces the same bit pattern.
     */
    void (*fpLanes)(FpOp op, const std::uint32_t *a, const std::uint32_t *b,
                    std::uint32_t *r, unsigned n);

    /** Bit i of the result == (float)a[i] < (float)b[i] (ordered). */
    std::uint64_t (*fpLtMask)(const std::uint32_t *a, const std::uint32_t *b,
                              unsigned n);
};

/** Best ISA the running host supports (compile-time + cpuid). */
SimdIsa detect();

/** Whether @p isa can execute on this host (Portable always can). */
bool available(SimdIsa isa);

/**
 * Resolve a requested ISA to a concrete one: Auto consults INFS_SIMD then
 * detect(); a concrete request unavailable on this host falls back to the
 * detected best with a warning (unknown *names* are the caller's exit-2
 * concern — this only sees parsed values).
 */
SimdIsa resolve(SimdIsa requested);

/** Install the kernel table for @p isa (resolved first). Called by
 * InfinitySystem's constructor and by tests forcing a path. */
void setActive(SimdIsa isa);

/** The active kernel table (lazily resolved from Auto on first use). */
const SimdKernels &active();

/** ISA of the active table. */
inline SimdIsa activeIsa() { return active().isa; }

/** The table for a specific ISA (differential tests); must be
 * available(). */
const SimdKernels &kernelsFor(SimdIsa isa);

// ---------------------------------------------------------------------
// Block-transpose helpers shared by the chunked load/store paths and the
// blocked fp32 kernels: 64 fp32 lanes <-> 32 bit planes of 64 bits.
// ---------------------------------------------------------------------

/** planes[b] bit e = lanes[e] bit b, e in [0, 64). */
inline void
lanesToPlanes(const SimdKernels &k, const std::uint32_t lanes[64],
              std::uint64_t planes[32])
{
    std::uint32_t lo[32], hi[32];
    k.transpose32(lanes, lo);
    k.transpose32(lanes + 32, hi);
    for (unsigned b = 0; b < 32; ++b)
        planes[b] = static_cast<std::uint64_t>(lo[b]) |
                    (static_cast<std::uint64_t>(hi[b]) << 32);
}

/** Inverse of lanesToPlanes. */
inline void
planesToLanes(const SimdKernels &k, const std::uint64_t planes[32],
              std::uint32_t lanes[64])
{
    std::uint32_t lo[32], hi[32];
    for (unsigned b = 0; b < 32; ++b) {
        lo[b] = static_cast<std::uint32_t>(planes[b]);
        hi[b] = static_cast<std::uint32_t>(planes[b] >> 32);
    }
    k.transpose32(lo, lanes);
    k.transpose32(hi, lanes + 32);
}

} // namespace infs::simd

#endif // INFS_BITSERIAL_SIMD_HH
