#include "bitserial/simd.hh"

#include <atomic>
#include <bit>
#include <cstdlib>
#include <string>

#include "sim/logging.hh"

#if defined(__x86_64__) || defined(__i386__)
#define INFS_SIMD_X86 1
#include <immintrin.h>
#endif
#if defined(__ARM_NEON)
#define INFS_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace infs::simd {

// =====================================================================
// Portable kernels: the same fused word loops PR 4 inlined into BitRow,
// now behind the dispatch table so every ISA shares one call shape.
// =====================================================================

namespace {

void
portRowFullAdder(std::uint64_t *sum, const std::uint64_t *addend,
                 std::uint64_t *carry, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t aw = sum[i];
        const std::uint64_t bw = addend[i];
        const std::uint64_t cw = carry[i];
        const std::uint64_t axb = aw ^ bw;
        sum[i] = axb ^ cw;
        carry[i] = (aw & bw) | (cw & axb);
    }
}

void
portRowMaj(std::uint64_t *dst, const std::uint64_t *a,
           const std::uint64_t *b, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t aw = a[i], bw = b[i];
        dst[i] = (aw & bw) | (dst[i] & (aw ^ bw));
    }
}

void
portRowSelect(std::uint64_t *dst, const std::uint64_t *a,
              const std::uint64_t *b, const std::uint64_t *pred,
              std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t p = pred[i];
        dst[i] = (a[i] & p) | (b[i] & ~p);
    }
}

void
portRowMergeMasked(std::uint64_t *dst, const std::uint64_t *val,
                   const std::uint64_t *mask, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t m = mask[i];
        dst[i] = (dst[i] & ~m) | (val[i] & m);
    }
}

void
portRowAssignAnd(std::uint64_t *dst, const std::uint64_t *a,
                 const std::uint64_t *b, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        dst[i] = a[i] & b[i];
}

void
portRowNotAnd(std::uint64_t *dst, const std::uint64_t *a,
              const std::uint64_t *m, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        dst[i] = ~a[i] & m[i];
}

void
portRowAnd(std::uint64_t *dst, const std::uint64_t *src, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        dst[i] &= src[i];
}

void
portRowOr(std::uint64_t *dst, const std::uint64_t *src, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        dst[i] |= src[i];
}

void
portRowXor(std::uint64_t *dst, const std::uint64_t *src, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        dst[i] ^= src[i];
}

/**
 * LSB-first recursive block-swap transpose (Hacker's Delight 7-3 adapted
 * to LSB-first bit order): swaps bit (k|j) of row k with bit k of row
 * (k|j) one power-of-two block at a time.
 */
void
portTranspose32(const std::uint32_t *in, std::uint32_t *out)
{
    std::uint32_t x[32];
    for (unsigned i = 0; i < 32; ++i)
        x[i] = in[i];
    std::uint32_t m = 0x0000FFFFu;
    for (unsigned j = 16; j != 0; j >>= 1, m ^= m << j) {
        for (unsigned k = 0; k < 32; k = (k + j + 1) & ~j) {
            const std::uint32_t t = ((x[k] >> j) ^ x[k | j]) & m;
            x[k] ^= t << j;
            x[k | j] ^= t;
        }
    }
    for (unsigned i = 0; i < 32; ++i)
        out[i] = x[i];
}

inline float
fpApply(FpOp op, float a, float b)
{
    switch (op) {
      case FpOp::Add: return a + b;
      case FpOp::Sub: return a - b;
      case FpOp::Mul: return a * b;
      case FpOp::Div: return a / b;
      case FpOp::Max: return a > b ? a : b;
      case FpOp::Min: return a < b ? a : b;
    }
    return 0.0f;
}

void
portFpLanes(FpOp op, const std::uint32_t *a, const std::uint32_t *b,
            std::uint32_t *r, unsigned n)
{
    for (unsigned i = 0; i < n; ++i)
        r[i] = std::bit_cast<std::uint32_t>(
            fpApply(op, std::bit_cast<float>(a[i]),
                    std::bit_cast<float>(b[i])));
}

std::uint64_t
portFpLtMask(const std::uint32_t *a, const std::uint32_t *b, unsigned n)
{
    std::uint64_t m = 0;
    for (unsigned i = 0; i < n; ++i)
        if (std::bit_cast<float>(a[i]) < std::bit_cast<float>(b[i]))
            m |= 1ULL << i;
    return m;
}

constexpr SimdKernels
makeTable(SimdIsa isa)
{
    SimdKernels k;
    k.isa = isa;
    k.rowFullAdder = portRowFullAdder;
    k.rowMaj = portRowMaj;
    k.rowSelect = portRowSelect;
    k.rowMergeMasked = portRowMergeMasked;
    k.rowAssignAnd = portRowAssignAnd;
    k.rowNotAnd = portRowNotAnd;
    k.rowAnd = portRowAnd;
    k.rowOr = portRowOr;
    k.rowXor = portRowXor;
    k.transpose32 = portTranspose32;
    k.fpLanes = portFpLanes;
    k.fpLtMask = portFpLtMask;
    return k;
}

} // namespace

// =====================================================================
// AVX2 kernels. Compiled with a per-function target attribute so the
// translation unit builds without -mavx2 and the binary stays runnable
// on machines without AVX2 (the table is only installed after a cpuid
// check).
// =====================================================================

#ifdef INFS_SIMD_X86

namespace {

#define INFS_AVX2 __attribute__((target("avx2")))

INFS_AVX2 void
avx2RowFullAdder(std::uint64_t *sum, const std::uint64_t *addend,
                 std::uint64_t *carry, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i aw = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(sum + i));
        const __m256i bw = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(addend + i));
        const __m256i cw = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(carry + i));
        const __m256i axb = _mm256_xor_si256(aw, bw);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(sum + i),
                            _mm256_xor_si256(axb, cw));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(carry + i),
            _mm256_or_si256(_mm256_and_si256(aw, bw),
                            _mm256_and_si256(cw, axb)));
    }
    if (i < n)
        portRowFullAdder(sum + i, addend + i, carry + i, n - i);
}

INFS_AVX2 void
avx2RowMaj(std::uint64_t *dst, const std::uint64_t *a,
           const std::uint64_t *b, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i aw = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + i));
        const __m256i bw = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(b + i));
        const __m256i dw = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(dst + i));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(dst + i),
            _mm256_or_si256(
                _mm256_and_si256(aw, bw),
                _mm256_and_si256(dw, _mm256_xor_si256(aw, bw))));
    }
    if (i < n)
        portRowMaj(dst + i, a + i, b + i, n - i);
}

INFS_AVX2 void
avx2RowSelect(std::uint64_t *dst, const std::uint64_t *a,
              const std::uint64_t *b, const std::uint64_t *pred,
              std::size_t n)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i av = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + i));
        const __m256i bv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(b + i));
        const __m256i pv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(pred + i));
        // (a & p) | (b & ~p) == blend of b/a under p.
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(dst + i),
            _mm256_or_si256(_mm256_and_si256(av, pv),
                            _mm256_andnot_si256(pv, bv)));
    }
    if (i < n)
        portRowSelect(dst + i, a + i, b + i, pred + i, n - i);
}

INFS_AVX2 void
avx2RowMergeMasked(std::uint64_t *dst, const std::uint64_t *val,
                   const std::uint64_t *mask, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i dv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(dst + i));
        const __m256i vv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(val + i));
        const __m256i mv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(mask + i));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(dst + i),
            _mm256_or_si256(_mm256_andnot_si256(mv, dv),
                            _mm256_and_si256(vv, mv)));
    }
    if (i < n)
        portRowMergeMasked(dst + i, val + i, mask + i, n - i);
}

INFS_AVX2 void
avx2RowAssignAnd(std::uint64_t *dst, const std::uint64_t *a,
                 const std::uint64_t *b, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i av = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + i));
        const __m256i bv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(b + i));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i),
                            _mm256_and_si256(av, bv));
    }
    if (i < n)
        portRowAssignAnd(dst + i, a + i, b + i, n - i);
}

INFS_AVX2 void
avx2RowNotAnd(std::uint64_t *dst, const std::uint64_t *a,
              const std::uint64_t *m, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i av = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + i));
        const __m256i mv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(m + i));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i),
                            _mm256_andnot_si256(av, mv));
    }
    if (i < n)
        portRowNotAnd(dst + i, a + i, m + i, n - i);
}

INFS_AVX2 void
avx2RowAnd(std::uint64_t *dst, const std::uint64_t *src, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i dv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(dst + i));
        const __m256i sv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + i));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i),
                            _mm256_and_si256(dv, sv));
    }
    if (i < n)
        portRowAnd(dst + i, src + i, n - i);
}

INFS_AVX2 void
avx2RowOr(std::uint64_t *dst, const std::uint64_t *src, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i dv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(dst + i));
        const __m256i sv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + i));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i),
                            _mm256_or_si256(dv, sv));
    }
    if (i < n)
        portRowOr(dst + i, src + i, n - i);
}

INFS_AVX2 void
avx2RowXor(std::uint64_t *dst, const std::uint64_t *src, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i dv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(dst + i));
        const __m256i sv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + i));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i),
                            _mm256_xor_si256(dv, sv));
    }
    if (i < n)
        portRowXor(dst + i, src + i, n - i);
}

/**
 * movemask-based 32x32 bit transpose: MOVMSKPS extracts the MSB of each
 * of 8 rows at once, so 4 vectors x 32 left-shifts sweep out the whole
 * column space — out[b] bit r = in[r] bit b.
 */
INFS_AVX2 void
avx2Transpose32(const std::uint32_t *in, std::uint32_t *out)
{
    __m256i v0 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(in + 0));
    __m256i v1 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(in + 8));
    __m256i v2 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(in + 16));
    __m256i v3 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(in + 24));
    for (int b = 31; b >= 0; --b) {
        const std::uint32_t m0 = static_cast<std::uint32_t>(
            _mm256_movemask_ps(_mm256_castsi256_ps(v0)));
        const std::uint32_t m1 = static_cast<std::uint32_t>(
            _mm256_movemask_ps(_mm256_castsi256_ps(v1)));
        const std::uint32_t m2 = static_cast<std::uint32_t>(
            _mm256_movemask_ps(_mm256_castsi256_ps(v2)));
        const std::uint32_t m3 = static_cast<std::uint32_t>(
            _mm256_movemask_ps(_mm256_castsi256_ps(v3)));
        out[b] = m0 | (m1 << 8) | (m2 << 16) | (m3 << 24);
        v0 = _mm256_slli_epi32(v0, 1);
        v1 = _mm256_slli_epi32(v1, 1);
        v2 = _mm256_slli_epi32(v2, 1);
        v3 = _mm256_slli_epi32(v3, 1);
    }
}

/** VMAXPS/VMINPS return the second operand on NaN and on equal-magnitude
 * zeros, exactly matching the scalar `a > b ? a : b` / `a < b ? a : b`
 * reference — so the AVX2 lanes are bit-identical to portable. */
INFS_AVX2 void
avx2FpLanes(FpOp op, const std::uint32_t *a, const std::uint32_t *b,
            std::uint32_t *r, unsigned n)
{
    unsigned i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 av = _mm256_castsi256_ps(_mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + i)));
        const __m256 bv = _mm256_castsi256_ps(_mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(b + i)));
        __m256 rv;
        switch (op) {
          case FpOp::Add: rv = _mm256_add_ps(av, bv); break;
          case FpOp::Sub: rv = _mm256_sub_ps(av, bv); break;
          case FpOp::Mul: rv = _mm256_mul_ps(av, bv); break;
          case FpOp::Div: rv = _mm256_div_ps(av, bv); break;
          case FpOp::Max: rv = _mm256_max_ps(av, bv); break;
          case FpOp::Min: rv = _mm256_min_ps(av, bv); break;
          default: rv = _mm256_setzero_ps(); break;
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(r + i),
                            _mm256_castps_si256(rv));
    }
    if (i < n)
        portFpLanes(op, a + i, b + i, r + i, n - i);
}

INFS_AVX2 std::uint64_t
avx2FpLtMask(const std::uint32_t *a, const std::uint32_t *b, unsigned n)
{
    std::uint64_t m = 0;
    unsigned i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 av = _mm256_castsi256_ps(_mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + i)));
        const __m256 bv = _mm256_castsi256_ps(_mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(b + i)));
        const __m256 lt = _mm256_cmp_ps(av, bv, _CMP_LT_OQ);
        m |= static_cast<std::uint64_t>(
                 static_cast<std::uint32_t>(_mm256_movemask_ps(lt)))
             << i;
    }
    if (i < n)
        m |= portFpLtMask(a + i, b + i, n - i) << i;
    return m;
}

#undef INFS_AVX2

SimdKernels
makeAvx2Table()
{
    SimdKernels k = makeTable(SimdIsa::Avx2);
    k.rowFullAdder = avx2RowFullAdder;
    k.rowMaj = avx2RowMaj;
    k.rowSelect = avx2RowSelect;
    k.rowMergeMasked = avx2RowMergeMasked;
    k.rowAssignAnd = avx2RowAssignAnd;
    k.rowNotAnd = avx2RowNotAnd;
    k.rowAnd = avx2RowAnd;
    k.rowOr = avx2RowOr;
    k.rowXor = avx2RowXor;
    k.transpose32 = avx2Transpose32;
    k.fpLanes = avx2FpLanes;
    k.fpLtMask = avx2FpLtMask;
    return k;
}

} // namespace

#endif // INFS_SIMD_X86

// =====================================================================
// NEON kernels (AArch64). The bitwise row kernels use 128-bit vectors;
// the fp lanes use explicit compare+select for Max/Min because VMAX/VMIN
// NaN semantics differ from the scalar reference.
// =====================================================================

#ifdef INFS_SIMD_NEON

namespace {

void
neonRowFullAdder(std::uint64_t *sum, const std::uint64_t *addend,
                 std::uint64_t *carry, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const uint64x2_t aw = vld1q_u64(sum + i);
        const uint64x2_t bw = vld1q_u64(addend + i);
        const uint64x2_t cw = vld1q_u64(carry + i);
        const uint64x2_t axb = veorq_u64(aw, bw);
        vst1q_u64(sum + i, veorq_u64(axb, cw));
        vst1q_u64(carry + i,
                  vorrq_u64(vandq_u64(aw, bw), vandq_u64(cw, axb)));
    }
    if (i < n)
        portRowFullAdder(sum + i, addend + i, carry + i, n - i);
}

void
neonRowMaj(std::uint64_t *dst, const std::uint64_t *a,
           const std::uint64_t *b, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const uint64x2_t aw = vld1q_u64(a + i);
        const uint64x2_t bw = vld1q_u64(b + i);
        const uint64x2_t dw = vld1q_u64(dst + i);
        vst1q_u64(dst + i,
                  vorrq_u64(vandq_u64(aw, bw),
                            vandq_u64(dw, veorq_u64(aw, bw))));
    }
    if (i < n)
        portRowMaj(dst + i, a + i, b + i, n - i);
}

void
neonRowSelect(std::uint64_t *dst, const std::uint64_t *a,
              const std::uint64_t *b, const std::uint64_t *pred,
              std::size_t n)
{
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const uint64x2_t av = vld1q_u64(a + i);
        const uint64x2_t bv = vld1q_u64(b + i);
        const uint64x2_t pv = vld1q_u64(pred + i);
        vst1q_u64(dst + i, vbslq_u64(pv, av, bv));
    }
    if (i < n)
        portRowSelect(dst + i, a + i, b + i, pred + i, n - i);
}

void
neonRowMergeMasked(std::uint64_t *dst, const std::uint64_t *val,
                   const std::uint64_t *mask, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const uint64x2_t dv = vld1q_u64(dst + i);
        const uint64x2_t vv = vld1q_u64(val + i);
        const uint64x2_t mv = vld1q_u64(mask + i);
        vst1q_u64(dst + i, vbslq_u64(mv, vv, dv));
    }
    if (i < n)
        portRowMergeMasked(dst + i, val + i, mask + i, n - i);
}

void
neonRowAssignAnd(std::uint64_t *dst, const std::uint64_t *a,
                 const std::uint64_t *b, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2)
        vst1q_u64(dst + i, vandq_u64(vld1q_u64(a + i), vld1q_u64(b + i)));
    if (i < n)
        portRowAssignAnd(dst + i, a + i, b + i, n - i);
}

void
neonRowNotAnd(std::uint64_t *dst, const std::uint64_t *a,
              const std::uint64_t *m, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2)
        vst1q_u64(dst + i,
                  vbicq_u64(vld1q_u64(m + i), vld1q_u64(a + i)));
    if (i < n)
        portRowNotAnd(dst + i, a + i, m + i, n - i);
}

void
neonRowAnd(std::uint64_t *dst, const std::uint64_t *src, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2)
        vst1q_u64(dst + i,
                  vandq_u64(vld1q_u64(dst + i), vld1q_u64(src + i)));
    if (i < n)
        portRowAnd(dst + i, src + i, n - i);
}

void
neonRowOr(std::uint64_t *dst, const std::uint64_t *src, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2)
        vst1q_u64(dst + i,
                  vorrq_u64(vld1q_u64(dst + i), vld1q_u64(src + i)));
    if (i < n)
        portRowOr(dst + i, src + i, n - i);
}

void
neonRowXor(std::uint64_t *dst, const std::uint64_t *src, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2)
        vst1q_u64(dst + i,
                  veorq_u64(vld1q_u64(dst + i), vld1q_u64(src + i)));
    if (i < n)
        portRowXor(dst + i, src + i, n - i);
}

void
neonFpLanes(FpOp op, const std::uint32_t *a, const std::uint32_t *b,
            std::uint32_t *r, unsigned n)
{
    unsigned i = 0;
    for (; i + 4 <= n; i += 4) {
        const float32x4_t av = vreinterpretq_f32_u32(vld1q_u32(a + i));
        const float32x4_t bv = vreinterpretq_f32_u32(vld1q_u32(b + i));
        float32x4_t rv;
        switch (op) {
          case FpOp::Add: rv = vaddq_f32(av, bv); break;
          case FpOp::Sub: rv = vsubq_f32(av, bv); break;
          case FpOp::Mul: rv = vmulq_f32(av, bv); break;
          case FpOp::Div: rv = vdivq_f32(av, bv); break;
          // Explicit compare+select: `a > b ? a : b` bit-exact, unlike
          // vmaxq's NaN handling.
          case FpOp::Max:
            rv = vbslq_f32(vcgtq_f32(av, bv), av, bv);
            break;
          case FpOp::Min:
            rv = vbslq_f32(vcltq_f32(av, bv), av, bv);
            break;
          default: rv = vdupq_n_f32(0.0f); break;
        }
        vst1q_u32(r + i, vreinterpretq_u32_f32(rv));
    }
    if (i < n)
        portFpLanes(op, a + i, b + i, r + i, n - i);
}

SimdKernels
makeNeonTable()
{
    SimdKernels k = makeTable(SimdIsa::Neon);
    k.rowFullAdder = neonRowFullAdder;
    k.rowMaj = neonRowMaj;
    k.rowSelect = neonRowSelect;
    k.rowMergeMasked = neonRowMergeMasked;
    k.rowAssignAnd = neonRowAssignAnd;
    k.rowNotAnd = neonRowNotAnd;
    k.rowAnd = neonRowAnd;
    k.rowOr = neonRowOr;
    k.rowXor = neonRowXor;
    k.fpLanes = neonFpLanes;
    return k;
}

} // namespace

#endif // INFS_SIMD_NEON

// =====================================================================
// Dispatch state.
// =====================================================================

namespace {

const SimdKernels kPortableTable = makeTable(SimdIsa::Portable);
#ifdef INFS_SIMD_X86
const SimdKernels kAvx2Table = makeAvx2Table();
#endif
#ifdef INFS_SIMD_NEON
const SimdKernels kNeonTable = makeNeonTable();
#endif

std::atomic<const SimdKernels *> g_active{nullptr};

} // namespace

SimdIsa
detect()
{
#ifdef INFS_SIMD_X86
    if (__builtin_cpu_supports("avx2"))
        return SimdIsa::Avx2;
#endif
#ifdef INFS_SIMD_NEON
    return SimdIsa::Neon;
#endif
    return SimdIsa::Portable;
}

bool
available(SimdIsa isa)
{
    switch (isa) {
      case SimdIsa::Auto:
      case SimdIsa::Portable:
        return true;
      case SimdIsa::Avx2:
#ifdef INFS_SIMD_X86
        return __builtin_cpu_supports("avx2") != 0;
#else
        return false;
#endif
      case SimdIsa::Neon:
#ifdef INFS_SIMD_NEON
        return true;
#else
        return false;
#endif
    }
    return false;
}

SimdIsa
resolve(SimdIsa requested)
{
    if (requested == SimdIsa::Auto) {
        if (const char *env = std::getenv("INFS_SIMD");
            env != nullptr && *env != '\0') {
            SimdIsa parsed;
            if (parseSimdIsaName(env, parsed)) {
                requested = parsed;
            } else {
                infs_warn("INFS_SIMD=%s: unknown ISA, using detection",
                          env);
            }
        }
    }
    if (requested == SimdIsa::Auto)
        return detect();
    if (!available(requested)) {
        const SimdIsa best = detect();
        infs_warn("SIMD ISA %s unavailable on this host; using %s",
                  simdIsaName(requested), simdIsaName(best));
        return best;
    }
    return requested;
}

const SimdKernels &
kernelsFor(SimdIsa isa)
{
    switch (isa) {
      case SimdIsa::Avx2:
#ifdef INFS_SIMD_X86
        if (available(SimdIsa::Avx2))
            return kAvx2Table;
#endif
        break;
      case SimdIsa::Neon:
#ifdef INFS_SIMD_NEON
        return kNeonTable;
#else
        break;
#endif
      default:
        break;
    }
    return kPortableTable;
}

void
setActive(SimdIsa isa)
{
    g_active.store(&kernelsFor(resolve(isa)), std::memory_order_release);
}

const SimdKernels &
active()
{
    const SimdKernels *k = g_active.load(std::memory_order_acquire);
    if (k == nullptr) {
        setActive(SimdIsa::Auto);
        k = g_active.load(std::memory_order_acquire);
    }
    return *k;
}

} // namespace infs::simd
