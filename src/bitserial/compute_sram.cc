#include "bitserial/compute_sram.hh"

#include <bit>
#include <cmath>
#include <cstring>

#include "bitserial/simd.hh"

namespace infs {

namespace {

simd::FpOp
toFpOp(BitOp op)
{
    switch (op) {
      case BitOp::Add: return simd::FpOp::Add;
      case BitOp::Sub: return simd::FpOp::Sub;
      case BitOp::Mul: return simd::FpOp::Mul;
      case BitOp::Div: return simd::FpOp::Div;
      case BitOp::Max: return simd::FpOp::Max;
      case BitOp::Min: return simd::FpOp::Min;
      default: infs_panic("fpBinary: unsupported op %s", bitOpName(op));
    }
}

} // namespace

BitRow
ComputeSram::fullMask() const
{
    BitRow m(bitlines());
    m.setRange(0, bitlines());
    return m;
}

float
ComputeSram::readFloat(unsigned bitline, unsigned wl) const
{
    std::uint32_t raw =
        static_cast<std::uint32_t>(bits_.readElement(bitline, wl, 32));
    return std::bit_cast<float>(raw);
}

void
ComputeSram::writeFloat(unsigned bitline, unsigned wl, float v)
{
    bits_.writeElement(bitline, wl, 32, std::bit_cast<std::uint32_t>(v));
}

const BitRow &
ComputeSram::senseRow(unsigned wl)
{
    ++stats_.rowReads;
    return bits_.row(wl);
}

void
ComputeSram::driveRow(unsigned wl, const BitRow &value, const BitRow &mask)
{
    ++stats_.rowWrites;
    bits_.writeMasked(wl, value, mask);
}

BitRow &
ComputeSram::scratch(unsigned i)
{
    while (pool_.size() <= i) {
        pool_.emplace_back(bitlines());
        ++scratchAllocs_;
    }
    return pool_[i];
}

Tick
ComputeSram::intAddSub(bool subtract, DType t, unsigned wl_a, unsigned wl_b,
                       unsigned wl_dst, const BitRow &mask)
{
    const unsigned n = dtypeBits(t);
    // Two's-complement: a - b = a + ~b + 1, so seed the carry with 1 and
    // invert the sensed b bits. Scratch rows acquired up front (a single
    // growth call, so the references below stay valid); the per-bit loop
    // is pure fused word passes over preexisting buffers.
    scratch(2);
    BitRow &carry = scratch(0);
    BitRow &sum = scratch(1);
    BitRow &b = scratch(2);
    carry.clear();
    if (subtract)
        carry.copyFrom(mask);
    for (unsigned i = 0; i < n; ++i) {
        sum.assignAnd(senseRow(wl_a + i), mask);
        if (subtract)
            b.notAndInto(senseRow(wl_b + i), mask);
        else
            b.assignAnd(senseRow(wl_b + i), mask);
        sum.fullAdderInto(b, carry);
        driveRow(wl_dst + i, sum, mask);
    }
    ++stats_.opCount;
    return lat_.opCycles(subtract ? BitOp::Sub : BitOp::Add, t);
}

Tick
ComputeSram::intMul(DType t, unsigned wl_a, unsigned wl_b, unsigned wl_dst,
                    const BitRow &mask)
{
    const unsigned n = dtypeBits(t);
    infs_assert(n <= 64, "int mul width %u too wide", n);
    // Schoolbook shift-and-add producing the low n bits (wraps modulo 2^n,
    // matching C unsigned semantics; two's-complement low bits are the same
    // for signed operands). The accumulator lives in PE latches, modeled
    // here as pooled scratch rows: acc [0,n), a [n,2n), b [2n,3n), then
    // carry and the masked addend.
    scratch(3 * n + 1); // Grow the pool once, before the bit loops.
    BitRow &carry = scratch(3 * n);
    BitRow &addend = scratch(3 * n + 1);
    for (unsigned i = 0; i < n; ++i) {
        scratch(i).clear();
        scratch(n + i).assignAnd(senseRow(wl_a + i), mask);
        scratch(2 * n + i).assignAnd(senseRow(wl_b + i), mask);
        // Account the additional per-step sensing the serial hardware does.
        stats_.rowReads += 1;
    }
    for (unsigned j = 0; j < n; ++j) {
        const BitRow &bj = scratch(2 * n + j);
        if (!bj.any())
            continue;
        carry.clear();
        for (unsigned i = 0; i + j < n; ++i) {
            addend.assignAnd(scratch(n + i), bj);
            scratch(i + j).fullAdderInto(addend, carry);
        }
    }
    for (unsigned i = 0; i < n; ++i)
        driveRow(wl_dst + i, scratch(i), mask);
    ++stats_.opCount;
    return lat_.opCycles(BitOp::Mul, t);
}

void
ComputeSram::lessThanMask(DType t, unsigned wl_a, unsigned wl_b,
                          const BitRow &mask, BitRow &lt)
{
    const unsigned n = dtypeBits(t);
    // Bit-serial subtract a - b tracking the final carry-out and the sign
    // bit of the difference; signed less-than combines them with the
    // operand signs (overflow-aware). Scratch layout: the caller passes
    // @p lt from the pool as well, so no row here is freshly allocated.
    scratch(16);
    BitRow &carry = scratch(10);
    BitRow &a = scratch(11);
    BitRow &b = scratch(12);
    BitRow &diff_sign = scratch(13);
    BitRow &a_sign = scratch(14);
    BitRow &b_sign = scratch(15);
    carry.copyFrom(mask); // Seed with 1 for two's-complement subtract.
    diff_sign.clear();
    a_sign.clear();
    b_sign.clear();
    for (unsigned i = 0; i < n; ++i) {
        a.assignAnd(senseRow(wl_a + i), mask);
        b.notAndInto(senseRow(wl_b + i), mask);
        if (i == n - 1) {
            a_sign.copyFrom(a);
            b_sign.notAndInto(b, mask); // Undo the inversion: sign(b).
        }
        a.fullAdderInto(b, carry); // a now holds the difference bit.
        if (i == n - 1)
            diff_sign.copyFrom(a);
    }
    // lt = (sign(a) != sign(b)) ? sign(a) : sign(diff)
    BitRow &signs_differ = scratch(16);
    signs_differ.copyFrom(a_sign);
    signs_differ.xorInto(b_sign);
    lt.assignSelect(a_sign, diff_sign, signs_differ);
    lt.andInto(mask);
}

Tick
ComputeSram::fpBinary(BitOp op, unsigned wl_a, unsigned wl_b, unsigned wl_dst,
                      const BitRow &mask)
{
    const unsigned n = 32;
    const simd::SimdKernels &k = simd::active();
    // Blocked bit-plane path (DESIGN.md §14): per 64-bitline word block,
    // gather the 32 bit planes of each operand, transpose them to 64 fp32
    // lanes, apply one IEEE op per lane, transpose back and scatter under
    // the mask word. Unmasked lanes are computed and discarded (no fp
    // traps with default rounding/exception state), so the result bits
    // match a per-element loop exactly.
    const simd::FpOp fop = toFpOp(op);
    const auto mwords = mask.words();
    std::uint64_t aplanes[32], bplanes[32], rplanes[32];
    std::uint32_t alanes[64], blanes[64], rlanes[64];
    for (std::size_t wi = 0; wi < mwords.size(); ++wi) {
        const std::uint64_t mword = mwords[wi];
        if (mword == 0)
            continue;
        for (unsigned b = 0; b < n; ++b) {
            aplanes[b] = bits_.row(wl_a + b).words()[wi];
            bplanes[b] = bits_.row(wl_b + b).words()[wi];
        }
        simd::planesToLanes(k, aplanes, alanes);
        simd::planesToLanes(k, bplanes, blanes);
        k.fpLanes(fop, alanes, blanes, rlanes, 64);
        simd::lanesToPlanes(k, rlanes, rplanes);
        for (unsigned b = 0; b < n; ++b)
            bits_.row(wl_dst + b).mergeWordMasked(
                static_cast<unsigned>(wi), rplanes[b], mword);
    }
    // Charge activations at the bit-serial rate the latency implies; the
    // hardware model does not depend on the host path.
    Tick cycles = lat_.opCycles(op, DType::Fp32);
    stats_.rowReads += 2 * n;
    stats_.rowWrites += n;
    ++stats_.opCount;
    return cycles;
}

Tick
ComputeSram::execBinary(BitOp op, DType t, unsigned wl_a, unsigned wl_b,
                        unsigned wl_dst, const BitRow &mask)
{
    const unsigned n = dtypeBits(t);
    infs_assert(wl_a + n <= wordlines() && wl_b + n <= wordlines(),
                "operand wordlines out of range");
    if (t == DType::Fp32) {
        switch (op) {
          case BitOp::Add:
          case BitOp::Sub:
          case BitOp::Mul:
          case BitOp::Div:
          case BitOp::Max:
          case BitOp::Min:
            return fpBinary(op, wl_a, wl_b, wl_dst, mask);
          case BitOp::CmpLt: {
            BitRow &lt = scratch(17);
            lt.clear();
            const simd::SimdKernels &k = simd::active();
            const auto mwords = mask.words();
            std::uint64_t aplanes[32], bplanes[32];
            std::uint32_t alanes[64], blanes[64];
            for (std::size_t wi = 0; wi < mwords.size(); ++wi) {
                const std::uint64_t mword = mwords[wi];
                if (mword == 0)
                    continue;
                for (unsigned b = 0; b < 32; ++b) {
                    aplanes[b] = bits_.row(wl_a + b).words()[wi];
                    bplanes[b] = bits_.row(wl_b + b).words()[wi];
                }
                simd::planesToLanes(k, aplanes, alanes);
                simd::planesToLanes(k, bplanes, blanes);
                lt.mergeWordMasked(static_cast<unsigned>(wi),
                                   k.fpLtMask(alanes, blanes, 64), mword);
            }
            driveRow(wl_dst, lt, mask);
            ++stats_.opCount;
            return lat_.opCycles(BitOp::CmpLt, t);
          }
          default:
            break; // Bitwise ops fall through to the integer path.
        }
    }
    switch (op) {
      case BitOp::Add:
        return intAddSub(false, t, wl_a, wl_b, wl_dst, mask);
      case BitOp::Sub:
        return intAddSub(true, t, wl_a, wl_b, wl_dst, mask);
      case BitOp::Mul:
        return intMul(t, wl_a, wl_b, wl_dst, mask);
      case BitOp::CmpLt: {
        BitRow &lt = scratch(17);
        lessThanMask(t, wl_a, wl_b, mask, lt);
        driveRow(wl_dst, lt, mask);
        ++stats_.opCount;
        return lat_.opCycles(BitOp::CmpLt, t);
      }
      case BitOp::Max:
      case BitOp::Min: {
        scratch(19);
        BitRow &lt = scratch(17);
        lessThanMask(t, wl_a, wl_b, mask, lt);
        // Max keeps b where a < b; Min keeps a where a < b.
        BitRow &keep_b = scratch(18);
        if (op == BitOp::Max)
            keep_b.copyFrom(lt);
        else
            keep_b.notAndInto(lt, mask);
        BitRow &r = scratch(19);
        for (unsigned i = 0; i < n; ++i) {
            r.assignSelect(senseRow(wl_b + i), senseRow(wl_a + i), keep_b);
            driveRow(wl_dst + i, r, mask);
        }
        ++stats_.opCount;
        return lat_.opCycles(op, t);
      }
      case BitOp::AndB:
      case BitOp::OrB:
      case BitOp::XorB: {
        BitRow &r = scratch(17);
        for (unsigned i = 0; i < n; ++i) {
            r.copyFrom(senseRow(wl_a + i));
            const BitRow &b = senseRow(wl_b + i);
            if (op == BitOp::AndB)
                r.andInto(b);
            else if (op == BitOp::OrB)
                r.orInto(b);
            else
                r.xorInto(b);
            driveRow(wl_dst + i, r, mask);
        }
        ++stats_.opCount;
        return lat_.opCycles(op, t);
      }
      case BitOp::Div: {
        infs_assert(t == DType::Fp32 || true, "int div modeled functionally");
        forEachSetBit(mask, [&](unsigned bl) {
            auto a = static_cast<std::int64_t>(readElement(bl, wl_a, t));
            auto b = static_cast<std::int64_t>(readElement(bl, wl_b, t));
            std::int64_t r = (b == 0) ? 0 : a / b;
            writeElement(bl, wl_dst, t, static_cast<std::uint64_t>(r));
        });
        ++stats_.opCount;
        return lat_.opCycles(BitOp::Div, t);
      }
      default:
        infs_panic("execBinary: unsupported op %s", bitOpName(op));
    }
}

Tick
ComputeSram::execBinaryImm(BitOp op, DType t, unsigned wl_a,
                           std::uint64_t imm, unsigned wl_dst,
                           const BitRow &mask)
{
    // The hardware broadcasts the constant into a scratch register first
    // (§5.2: "it first broadcasts constant operands (if any) to bitlines").
    // Model with a reserved scratch area at the top wordlines.
    const unsigned n = dtypeBits(t);
    infs_assert(wordlines() >= n, "array too small for scratch");
    unsigned scratch_wl = wordlines() - n;
    Tick cost = writeImmediate(t, imm, scratch_wl, mask);
    cost += execBinary(op, t, wl_a, scratch_wl, wl_dst, mask);
    return cost;
}

Tick
ComputeSram::execUnary(BitOp op, DType t, unsigned wl_a, unsigned wl_dst,
                       const BitRow &mask)
{
    const unsigned n = dtypeBits(t);
    switch (op) {
      case BitOp::Copy: {
        for (unsigned i = 0; i < n; ++i)
            driveRow(wl_dst + i, senseRow(wl_a + i), mask);
        ++stats_.opCount;
        return lat_.opCycles(BitOp::Copy, t);
      }
      case BitOp::Relu: {
        // For both int and fp32, clearing every bit when the sign bit is
        // set yields max(x, 0) (fp32: +0.0). Row-parallel.
        scratch(18);
        BitRow &keep = scratch(17);
        keep.notAndInto(senseRow(wl_a + n - 1), mask);
        BitRow &r = scratch(18);
        for (unsigned i = 0; i < n; ++i) {
            r.assignAnd(senseRow(wl_a + i), keep);
            driveRow(wl_dst + i, r, mask);
        }
        ++stats_.opCount;
        return lat_.opCycles(BitOp::Relu, t);
      }
      default:
        infs_panic("execUnary: unsupported op %s", bitOpName(op));
    }
}

Tick
ComputeSram::writeImmediate(DType t, std::uint64_t imm, unsigned wl_dst,
                            const BitRow &mask)
{
    const unsigned n = dtypeBits(t);
    BitRow &zeros = scratch(17);
    zeros.clear();
    for (unsigned i = 0; i < n; ++i)
        driveRow(wl_dst + i, ((imm >> i) & 1ULL) ? mask : zeros, mask);
    ++stats_.opCount;
    return n; // One write per bit row.
}

Tick
ComputeSram::shift(DType t, unsigned wl_src, unsigned wl_dst, int dist,
                   const BitRow &mask)
{
    const unsigned n = dtypeBits(t);
    scratch(19);
    BitRow &dst_mask = scratch(17);
    dst_mask.assignShifted(mask, dist);
    BitRow &src = scratch(18);
    BitRow &moved = scratch(19);
    for (unsigned i = 0; i < n; ++i) {
        src.assignAnd(senseRow(wl_src + i), mask);
        moved.assignShifted(src, dist);
        driveRow(wl_dst + i, moved, dst_mask);
        ++stats_.htreeRowMoves;
    }
    ++stats_.opCount;
    return lat_.intraShiftCycles(t);
}

const char *
bitOpName(BitOp op)
{
    switch (op) {
      case BitOp::Add: return "add";
      case BitOp::Sub: return "sub";
      case BitOp::Mul: return "mul";
      case BitOp::Div: return "div";
      case BitOp::Max: return "max";
      case BitOp::Min: return "min";
      case BitOp::CmpLt: return "cmplt";
      case BitOp::Select: return "select";
      case BitOp::Copy: return "copy";
      case BitOp::AndB: return "and";
      case BitOp::OrB: return "or";
      case BitOp::XorB: return "xor";
      case BitOp::Relu: return "relu";
    }
    return "?";
}

} // namespace infs
