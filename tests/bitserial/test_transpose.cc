#include <gtest/gtest.h>

#include <vector>

#include "bitserial/compute_sram.hh"
#include "bitserial/transpose.hh"

namespace infs {
namespace {

TEST(Transpose, CostScalesWithLines)
{
    TensorTransposeUnit ttu(4);
    // 16 fp32 elements = 64 bytes = 1 line.
    EXPECT_EQ(ttu.conversionCycles(16, DType::Fp32), 4u);
    // 17 elements spill into a second line.
    EXPECT_EQ(ttu.conversionCycles(17, DType::Fp32), 8u);
    // 1M elements = 4MB = 65536 lines.
    EXPECT_EQ(ttu.conversionCycles(1 << 20, DType::Fp32), 65536u * 4u);
}

TEST(Transpose, TransposedDataIsBitSerialComputable)
{
    // End-to-end: write elements in the vertical layout, compute
    // bit-serially, read them back.
    ComputeSram sram(256, 256);
    const std::vector<std::uint64_t> a{3, 5, 7}, b{10, 20, 30};
    for (unsigned i = 0; i < a.size(); ++i) {
        sram.writeElement(i, 0, DType::Int32, a[i]);
        sram.writeElement(i, 32, DType::Int32, b[i]);
    }
    sram.execBinary(BitOp::Add, DType::Int32, 0, 32, 64, sram.fullMask());
    std::vector<std::uint64_t> c;
    for (unsigned i = 0; i < a.size(); ++i)
        c.push_back(sram.readElement(i, 64, DType::Int32));
    EXPECT_EQ(c, (std::vector<std::uint64_t>{13, 25, 37}));
}

} // namespace
} // namespace infs
