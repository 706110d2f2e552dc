#include <gtest/gtest.h>

#include <set>

#include "jit/decompose.hh"
#include "sim/rng.hh"

namespace infs {
namespace {

/** Property: the decomposition exactly partitions the tensor. */
void
expectPartition(const HyperRect &tensor, const std::vector<Coord> &tile)
{
    auto parts = tryDecomposeTensor(tensor, tile).value();
    // Volumes sum to the original.
    std::int64_t vol = 0;
    for (const HyperRect &p : parts) {
        EXPECT_FALSE(p.empty());
        EXPECT_TRUE(tensor.containsRect(p)) << p.str();
        vol += p.volume();
    }
    EXPECT_EQ(vol, tensor.volume());
    // Pairwise disjoint.
    for (std::size_t i = 0; i < parts.size(); ++i)
        for (std::size_t j = i + 1; j < parts.size(); ++j)
            EXPECT_TRUE(parts[i].intersect(parts[j]).empty())
                << parts[i].str() << " vs " << parts[j].str();
    // Each part either spans full tiles or stays inside one tile row, per
    // dimension: its [lo, hi) in dim d is tile-aligned or within one tile.
    auto floordiv = [](Coord a, Coord b) {
        return a >= 0 ? a / b : -((-a + b - 1) / b);
    };
    for (const HyperRect &p : parts) {
        for (unsigned d = 0; d < p.dims(); ++d) {
            bool aligned = p.lo(d) - floordiv(p.lo(d), tile[d]) * tile[d] ==
                               0 &&
                           p.hi(d) - floordiv(p.hi(d), tile[d]) * tile[d] ==
                               0;
            bool in_one_tile =
                floordiv(p.lo(d), tile[d]) == floordiv(p.hi(d) - 1, tile[d]);
            EXPECT_TRUE(aligned || in_one_tile)
                << p.str() << " dim " << d << " tile " << tile[d];
        }
    }
}

TEST(Decompose, PaperFig9Example)
{
    // A[0,4)x[0,3) with 2x2 tiles decomposes into [0,4)x[0,2) (full tiles
    // 0 and 2) and [0,4)x[2,3) (partial tiles 1 and 3). Note the paper
    // labels the example with dim 0 = rows; we use dim 0 innermost, so the
    // example maps to dims (0, 1) directly.
    auto parts =
        tryDecomposeTensor(HyperRect::box2(0, 4, 0, 3), {2, 2}).value();
    ASSERT_EQ(parts.size(), 2u);
    std::set<std::string> got{parts[0].str(), parts[1].str()};
    EXPECT_TRUE(got.count("[0,4)x[0,2)"));
    EXPECT_TRUE(got.count("[0,4)x[2,3)"));
}

TEST(Decompose, AlignedTensorIsNotDecomposed)
{
    auto parts =
        tryDecomposeTensor(HyperRect::box2(0, 8, 0, 8), {4, 4}).value();
    ASSERT_EQ(parts.size(), 1u);
    EXPECT_EQ(parts[0], HyperRect::box2(0, 8, 0, 8));
}

TEST(Decompose, WithinOneTileNoDecomposition)
{
    auto parts = tryDecomposeTensor(HyperRect::interval(5, 7), {8}).value();
    ASSERT_EQ(parts.size(), 1u);
    EXPECT_EQ(parts[0], HyperRect::interval(5, 7));
}

TEST(Decompose, HeadMiddleTail1D)
{
    // [3, 21) with tile 8: head [3,8), middle [8,16), tail [16,21).
    auto parts = tryDecomposeTensor(HyperRect::interval(3, 21), {8}).value();
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], HyperRect::interval(3, 8));
    EXPECT_EQ(parts[1], HyperRect::interval(8, 16));
    EXPECT_EQ(parts[2], HyperRect::interval(16, 21));
}

TEST(Decompose, HeadTailWithoutMiddle)
{
    // [3, 13) with tile 8: head [3,8), tail [8,13); no aligned middle.
    auto parts = tryDecomposeTensor(HyperRect::interval(3, 13), {8}).value();
    ASSERT_EQ(parts.size(), 2u);
    EXPECT_EQ(parts[0], HyperRect::interval(3, 8));
    EXPECT_EQ(parts[1], HyperRect::interval(8, 13));
}

TEST(Decompose, AlignedStartUnalignedEnd)
{
    auto parts = tryDecomposeTensor(HyperRect::interval(8, 21), {8}).value();
    ASSERT_EQ(parts.size(), 2u);
    EXPECT_EQ(parts[0], HyperRect::interval(8, 16));
    EXPECT_EQ(parts[1], HyperRect::interval(16, 21));
}

TEST(Decompose, CrossProductOfDims)
{
    // Both dims head+middle+tail: 3 x 3 = 9 parts.
    auto parts =
        tryDecomposeTensor(HyperRect::box2(1, 17, 2, 19), {8, 8}).value();
    EXPECT_EQ(parts.size(), 9u);
    expectPartition(HyperRect::box2(1, 17, 2, 19), {8, 8});
}

TEST(Decompose, NegativeCoordinates)
{
    // Moved tensors can have negative lattice coordinates.
    auto parts = tryDecomposeTensor(HyperRect::interval(-3, 5), {4}).value();
    expectPartition(HyperRect::interval(-3, 5), {4});
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], HyperRect::interval(-3, -0));
    EXPECT_EQ(parts[1], HyperRect::interval(0, 4));
    EXPECT_EQ(parts[2], HyperRect::interval(4, 5));
}

TEST(Decompose, PartitionPropertyRandomized)
{
    Rng rng(99);
    for (int trial = 0; trial < 50; ++trial) {
        unsigned dims = 1 + static_cast<unsigned>(rng.nextBounded(3));
        std::vector<Coord> lo(dims), hi(dims), tile(dims);
        for (unsigned d = 0; d < dims; ++d) {
            lo[d] = static_cast<Coord>(rng.nextBounded(40)) - 20;
            hi[d] = lo[d] + 1 + static_cast<Coord>(rng.nextBounded(60));
            tile[d] = Coord(1) << rng.nextBounded(5); // 1..16
        }
        expectPartition(HyperRect(lo, hi), tile);
    }
}

TEST(Decompose, EmptyTensorYieldsNothing)
{
    auto parts = tryDecomposeTensor(HyperRect::interval(5, 5), {8});
    EXPECT_TRUE(parts.value().empty());
}

TEST(Decompose, TryDecomposeReportsRankMismatch)
{
    auto res = tryDecomposeTensor(HyperRect::interval(0, 8), {2, 2});
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error().code, ErrCode::LayoutConstraint);
    auto bad_tile = tryDecomposeTensor(HyperRect::interval(0, 8), {0});
    ASSERT_FALSE(bad_tile.ok());
    EXPECT_EQ(bad_tile.error().code, ErrCode::LayoutConstraint);
}

TEST(Decompose, 3DStencilBoundary)
{
    // stencil3d-like shape, unaligned in two dims.
    HyperRect t = HyperRect::box3(0, 64, 1, 63, 1, 15);
    expectPartition(t, {16, 4, 4});
}

} // namespace
} // namespace infs
