#include <gtest/gtest.h>

#include "sim/rng.hh"
#include "tdfg/hyperrect.hh"

namespace infs {
namespace {

TEST(HyperRect, BasicProperties)
{
    HyperRect r = HyperRect::box2(0, 4, 1, 3);
    EXPECT_EQ(r.dims(), 2u);
    EXPECT_EQ(r.size(0), 4);
    EXPECT_EQ(r.size(1), 2);
    EXPECT_EQ(r.volume(), 8);
    EXPECT_FALSE(r.empty());
}

TEST(HyperRect, EmptyWhenAnyDimEmpty)
{
    EXPECT_TRUE(HyperRect::box2(0, 4, 3, 3).empty());
    EXPECT_TRUE(HyperRect::interval(5, 2).empty());
    EXPECT_TRUE(HyperRect().empty());
    EXPECT_EQ(HyperRect::box2(0, 4, 3, 3).volume(), 0);
}

TEST(HyperRect, Contains)
{
    HyperRect r = HyperRect::box2(0, 4, 0, 4);
    EXPECT_TRUE(r.contains({0, 0}));
    EXPECT_TRUE(r.contains({3, 3}));
    EXPECT_FALSE(r.contains({4, 0}));
    EXPECT_FALSE(r.contains({0, -1}));
}

TEST(HyperRect, ContainsRect)
{
    HyperRect outer = HyperRect::box2(0, 10, 0, 10);
    EXPECT_TRUE(outer.containsRect(HyperRect::box2(2, 5, 3, 9)));
    EXPECT_FALSE(outer.containsRect(HyperRect::box2(2, 11, 3, 9)));
    EXPECT_TRUE(outer.containsRect(HyperRect::box2(5, 5, 0, 0))); // empty
}

TEST(HyperRect, Intersect)
{
    HyperRect a = HyperRect::box2(0, 4, 0, 4);
    HyperRect b = HyperRect::box2(2, 6, 1, 3);
    HyperRect i = a.intersect(b);
    EXPECT_EQ(i, HyperRect::box2(2, 4, 1, 3));
    // Disjoint -> empty.
    EXPECT_TRUE(a.intersect(HyperRect::box2(10, 12, 0, 4)).empty());
}

TEST(HyperRect, OverlapsMatchesIntersect)
{
    // Seeded property: overlaps() is !intersect().empty() on random rects
    // of rank 1-4 over a small coordinate range, so disjoint, touching,
    // nested, empty (hi < lo) and zero-width (hi == lo) dims all occur.
    Rng rng(21);
    auto coord = [&] { return Coord(rng.nextBounded(13)) - 4; };
    int overlapping = 0, empty_operand = 0;
    for (int i = 0; i < 20000; ++i) {
        const unsigned dims = 1 + unsigned(rng.nextBounded(4));
        std::vector<Coord> alo, ahi, blo, bhi;
        for (unsigned d = 0; d < dims; ++d) {
            alo.push_back(coord());
            ahi.push_back(coord());
            blo.push_back(coord());
            bhi.push_back(coord());
        }
        const HyperRect a(alo, ahi), b(blo, bhi);
        const bool want = !a.intersect(b).empty();
        ASSERT_EQ(a.overlaps(b), want) << a.str() << " vs " << b.str();
        ASSERT_EQ(b.overlaps(a), want) << b.str() << " vs " << a.str();
        overlapping += want;
        empty_operand += a.empty() || b.empty();
    }
    // Both outcomes and empty operands are exercised.
    EXPECT_GT(overlapping, 500);
    EXPECT_GT(empty_operand, 1000);
    const HyperRect a = HyperRect::interval(0, 4);
    EXPECT_FALSE(HyperRect().overlaps(HyperRect()));
    EXPECT_FALSE(a.overlaps(HyperRect::interval(4, 8))); // Touching.
    EXPECT_TRUE(a.overlaps(HyperRect::interval(3, 8)));
}

TEST(HyperRect, BoundingUnion)
{
    HyperRect a = HyperRect::box2(0, 2, 0, 2);
    HyperRect b = HyperRect::box2(5, 6, 1, 8);
    EXPECT_EQ(a.boundingUnion(b), HyperRect::box2(0, 6, 0, 8));
    EXPECT_EQ(a.boundingUnion(HyperRect::box2(3, 3, 0, 0)), a); // w/ empty
}

TEST(HyperRect, ShiftedMatchesMoveSemantics)
{
    // Fig 4(a): A[0,N-2) moved right by 1 aligns with A[1,N-1).
    const Coord n = 100;
    HyperRect a0 = HyperRect::interval(0, n - 2);
    EXPECT_EQ(a0.shifted(0, 1), HyperRect::interval(1, n - 1));
    EXPECT_EQ(a0.shifted(0, -1), HyperRect::interval(-1, n - 3));
}

TEST(HyperRect, WithDim)
{
    HyperRect r = HyperRect::box2(0, 4, 0, 4);
    EXPECT_EQ(r.withDim(1, 2, 3), HyperRect::box2(0, 4, 2, 3));
}

TEST(HyperRect, StrFormat)
{
    EXPECT_EQ(HyperRect::box2(0, 4, 1, 3).str(), "[0,4)x[1,3)");
}

TEST(HyperRect, ArrayAnchorsAtOrigin)
{
    HyperRect r = HyperRect::array({16, 8, 4});
    EXPECT_EQ(r.dims(), 3u);
    EXPECT_EQ(r.lo(0), 0);
    EXPECT_EQ(r.hi(2), 4);
    EXPECT_EQ(r.volume(), 16 * 8 * 4);
}

} // namespace
} // namespace infs
