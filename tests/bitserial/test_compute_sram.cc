#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "bitserial/compute_sram.hh"
#include "sim/rng.hh"

namespace infs {
namespace {

class ComputeSramTest : public ::testing::Test
{
  protected:
    ComputeSramTest() : sram(256, 256), mask(sram.fullMask()) {}

    void
    fillInt32(unsigned wl, const std::vector<std::int32_t> &vals)
    {
        for (unsigned i = 0; i < vals.size(); ++i)
            sram.writeElement(i, wl, DType::Int32,
                              static_cast<std::uint32_t>(vals[i]));
    }

    std::int32_t
    readInt32(unsigned bl, unsigned wl)
    {
        return static_cast<std::int32_t>(
            static_cast<std::uint32_t>(sram.readElement(bl, wl,
                                                        DType::Int32)));
    }

    ComputeSram sram;
    BitRow mask;
};

TEST_F(ComputeSramTest, BitSerialInt32Add)
{
    std::vector<std::int32_t> a{1, -1, 100, -100, 0x7fffffff, 0, 12345};
    std::vector<std::int32_t> b{2, 1, -300, -5, 1, 0, 54321};
    fillInt32(0, a);
    fillInt32(32, b);
    Tick cost = sram.execBinary(BitOp::Add, DType::Int32, 0, 32, 64, mask);
    EXPECT_EQ(cost, 32u); // Eq. 1: int32 add latency = 32 cycles.
    for (unsigned i = 0; i < a.size(); ++i)
        EXPECT_EQ(readInt32(i, 64),
                  static_cast<std::int32_t>(
                      static_cast<std::uint32_t>(a[i]) +
                      static_cast<std::uint32_t>(b[i])))
            << "lane " << i;
}

TEST_F(ComputeSramTest, BitSerialInt32Sub)
{
    std::vector<std::int32_t> a{10, -10, 0, 7, -1000000};
    std::vector<std::int32_t> b{3, -20, 5, 7, 1};
    fillInt32(0, a);
    fillInt32(32, b);
    sram.execBinary(BitOp::Sub, DType::Int32, 0, 32, 64, mask);
    for (unsigned i = 0; i < a.size(); ++i)
        EXPECT_EQ(readInt32(i, 64), a[i] - b[i]) << "lane " << i;
}

TEST_F(ComputeSramTest, BitSerialInt32MulMatchesCSemantics)
{
    std::vector<std::int32_t> a{3, -4, 12345, 0, 65536, -7};
    std::vector<std::int32_t> b{5, 6, 6789, 99, 65536, -8};
    fillInt32(0, a);
    fillInt32(32, b);
    Tick cost = sram.execBinary(BitOp::Mul, DType::Int32, 0, 32, 64, mask);
    EXPECT_EQ(cost, 32u * 32u + 5u * 32u); // n^2 + 5n (§5.2).
    for (unsigned i = 0; i < a.size(); ++i)
        EXPECT_EQ(readInt32(i, 64),
                  static_cast<std::int32_t>(
                      static_cast<std::uint32_t>(a[i]) *
                      static_cast<std::uint32_t>(b[i])))
            << "lane " << i;
}

TEST_F(ComputeSramTest, RandomizedIntAddMulAgainstScalar)
{
    Rng rng(31);
    std::vector<std::int32_t> a(256), b(256);
    for (unsigned i = 0; i < 256; ++i) {
        a[i] = static_cast<std::int32_t>(rng.next());
        b[i] = static_cast<std::int32_t>(rng.next());
    }
    fillInt32(0, a);
    fillInt32(32, b);
    sram.execBinary(BitOp::Add, DType::Int32, 0, 32, 64, mask);
    sram.execBinary(BitOp::Mul, DType::Int32, 0, 32, 96, mask);
    for (unsigned i = 0; i < 256; ++i) {
        EXPECT_EQ(static_cast<std::uint32_t>(readInt32(i, 64)),
                  static_cast<std::uint32_t>(a[i]) +
                      static_cast<std::uint32_t>(b[i]));
        EXPECT_EQ(static_cast<std::uint32_t>(readInt32(i, 96)),
                  static_cast<std::uint32_t>(a[i]) *
                      static_cast<std::uint32_t>(b[i]));
    }
}

TEST_F(ComputeSramTest, SignedLessThanAndMax)
{
    std::vector<std::int32_t> a{1, -5, 100, -100, 0, 0x7fffffff, -2147483648};
    std::vector<std::int32_t> b{2, -6, 100, 100, 0, -1, 2147483647};
    fillInt32(0, a);
    fillInt32(32, b);
    sram.execBinary(BitOp::CmpLt, DType::Int32, 0, 32, 64, mask);
    for (unsigned i = 0; i < a.size(); ++i)
        EXPECT_EQ(sram.bits().get(64, i), a[i] < b[i]) << "lane " << i;

    sram.execBinary(BitOp::Max, DType::Int32, 0, 32, 96, mask);
    sram.execBinary(BitOp::Min, DType::Int32, 0, 32, 128, mask);
    for (unsigned i = 0; i < a.size(); ++i) {
        EXPECT_EQ(readInt32(i, 96), std::max(a[i], b[i])) << "lane " << i;
        EXPECT_EQ(readInt32(i, 128), std::min(a[i], b[i])) << "lane " << i;
    }
}

TEST_F(ComputeSramTest, MaskLimitsLanes)
{
    std::vector<std::int32_t> a{1, 1, 1, 1};
    std::vector<std::int32_t> b{2, 2, 2, 2};
    fillInt32(0, a);
    fillInt32(32, b);
    BitRow half(256);
    half.setRange(0, 2);
    sram.execBinary(BitOp::Add, DType::Int32, 0, 32, 64, half);
    EXPECT_EQ(readInt32(0, 64), 3);
    EXPECT_EQ(readInt32(1, 64), 3);
    EXPECT_EQ(readInt32(2, 64), 0); // Untouched lanes stay zero.
}

TEST_F(ComputeSramTest, Fp32AddMulMax)
{
    std::vector<float> a{1.5f, -2.25f, 1e10f, 0.0f, 3.14159f};
    std::vector<float> b{2.5f, 2.25f, 1e10f, -0.5f, 2.71828f};
    for (unsigned i = 0; i < a.size(); ++i) {
        sram.writeFloat(i, 0, a[i]);
        sram.writeFloat(i, 32, b[i]);
    }
    Tick add_cost = sram.execBinary(BitOp::Add, DType::Fp32, 0, 32, 64, mask);
    Tick mul_cost = sram.execBinary(BitOp::Mul, DType::Fp32, 0, 32, 96, mask);
    sram.execBinary(BitOp::Max, DType::Fp32, 0, 32, 128, mask);
    EXPECT_EQ(add_cost, sram.latency().fp32Add);
    EXPECT_EQ(mul_cost, sram.latency().fp32Mul);
    for (unsigned i = 0; i < a.size(); ++i) {
        EXPECT_FLOAT_EQ(sram.readFloat(i, 64), a[i] + b[i]);
        EXPECT_FLOAT_EQ(sram.readFloat(i, 96), a[i] * b[i]);
        EXPECT_FLOAT_EQ(sram.readFloat(i, 128), std::max(a[i], b[i]));
    }
}

TEST_F(ComputeSramTest, ReluClampsNegativesRowParallel)
{
    std::vector<float> a{1.5f, -2.25f, 0.0f, -1e-20f, 7.0f};
    for (unsigned i = 0; i < a.size(); ++i)
        sram.writeFloat(i, 0, a[i]);
    sram.execUnary(BitOp::Relu, DType::Fp32, 0, 32, mask);
    for (unsigned i = 0; i < a.size(); ++i)
        EXPECT_FLOAT_EQ(sram.readFloat(i, 32), std::max(a[i], 0.0f));
}

TEST_F(ComputeSramTest, ImmediateBroadcast)
{
    sram.writeImmediate(DType::Int32, 0x12345678u, 0, mask);
    for (unsigned bl : {0u, 17u, 255u})
        EXPECT_EQ(sram.readElement(bl, 0, DType::Int32), 0x12345678u);
}

TEST_F(ComputeSramTest, BinaryImmAddsConstant)
{
    std::vector<std::int32_t> a{5, 10, 0};
    fillInt32(0, a);
    sram.execBinaryImm(BitOp::Add, DType::Int32, 0, 7, 64, mask);
    EXPECT_EQ(readInt32(0, 64), 12);
    EXPECT_EQ(readInt32(1, 64), 17);
    EXPECT_EQ(readInt32(2, 64), 7);
}

TEST_F(ComputeSramTest, IntraArrayShiftMovesElements)
{
    std::vector<std::int32_t> a{11, 22, 33, 44};
    fillInt32(0, a);
    BitRow m(256);
    m.setRange(0, 4);
    Tick cost = sram.shift(DType::Int32, 0, 32, 1, m);
    EXPECT_EQ(cost, 32u); // One cycle per bit row.
    EXPECT_EQ(readInt32(1, 32), 11);
    EXPECT_EQ(readInt32(2, 32), 22);
    EXPECT_EQ(readInt32(4, 32), 44);
    EXPECT_EQ(readInt32(0, 32), 0); // Nothing shifted into lane 0.
}

TEST_F(ComputeSramTest, ShiftNegativeDirection)
{
    std::vector<std::int32_t> a{11, 22, 33, 44};
    fillInt32(0, a);
    BitRow m(256);
    m.setRange(0, 4);
    sram.shift(DType::Int32, 0, 32, -2, m);
    EXPECT_EQ(readInt32(0, 32), 33);
    EXPECT_EQ(readInt32(1, 32), 44);
}

TEST_F(ComputeSramTest, ShiftDiscardsBeyondArray)
{
    BitRow m(256);
    m.setRange(254, 256);
    sram.writeElement(254, 0, DType::Int32, 7);
    sram.writeElement(255, 0, DType::Int32, 9);
    sram.shift(DType::Int32, 0, 32, 2, m);
    // 254 -> discarded would be 256; only 254+2=256 OOB, 255+2 OOB too...
    // Actually 254+2 = 256 (out), 255+2 = 257 (out): nothing lands.
    for (unsigned bl = 0; bl < 256; ++bl)
        EXPECT_EQ(sram.readElement(bl, 32, DType::Int32), 0u);
}

TEST_F(ComputeSramTest, StatsCountActivations)
{
    std::vector<std::int32_t> a{1};
    fillInt32(0, a);
    fillInt32(32, a);
    sram.resetStats();
    sram.execBinary(BitOp::Add, DType::Int32, 0, 32, 64, mask);
    // 32 bit-steps: 2 reads + 1 write each.
    EXPECT_EQ(sram.stats().rowReads, 64u);
    EXPECT_EQ(sram.stats().rowWrites, 32u);
    EXPECT_EQ(sram.stats().opCount, 1u);
}

} // namespace
} // namespace infs
