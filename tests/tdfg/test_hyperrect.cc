#include <gtest/gtest.h>

#include <type_traits>

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

// Bounds live inline: copying a rect is a memcpy, never a heap
// allocation.
static_assert(std::is_trivially_copyable_v<HyperRect>);

TEST(HyperRect, DefaultIsRankZeroAndEmpty)
{
    const HyperRect r;
    EXPECT_EQ(r.dims(), 0u);
    EXPECT_TRUE(r.empty());
    EXPECT_EQ(r.volume(), 0);
    EXPECT_EQ(r.str(), "");
    EXPECT_EQ(r, HyperRect(std::vector<Coord>{}, std::vector<Coord>{}));
    EXPECT_EQ(r, HyperRect::array({}));
}

TEST(HyperRect, EveryConstructionAgrees)
{
    // One rect, [0,4)x[0,5)x[0,6), built every way the API allows.
    const HyperRect want =
        HyperRect(std::vector<Coord>{0, 0, 0}, std::vector<Coord>{4, 5, 6});
    EXPECT_EQ(HyperRect({0, 0, 0}, {4, 5, 6}), want);
    EXPECT_EQ(HyperRect::box3(0, 4, 0, 5, 0, 6), want);
    EXPECT_EQ(HyperRect::array({4, 5, 6}), want);
    EXPECT_EQ(HyperRect::array({4, 5, 6})
                  .intersect(HyperRect::box3(-1, 9, 0, 5, 0, 7)),
              want);
    EXPECT_EQ(HyperRect::box3(0, 4, 0, 5, 7, 9).withDim(2, 0, 6), want);
    EXPECT_EQ(HyperRect::box3(0, 4, 0, 5, 0, 6).shifted(1, 3).shifted(1, -3),
              want);
    // Equal leading bounds but a different rank are different rects.
    EXPECT_FALSE(HyperRect::box2(0, 4, 0, 5) == want);
    EXPECT_FALSE(HyperRect::interval(0, 4) == HyperRect());
    EXPECT_EQ(HyperRect::interval(0, 4), HyperRect({0}, {4}));
}

TEST(HyperRect, MaxRankThroughEveryOperation)
{
    static_assert(HyperRect::kMaxRank == 8);
    const HyperRect a({0, 1, 2, 3, 4, 5, 6, 7}, {2, 3, 4, 5, 6, 7, 8, 9});
    const HyperRect b({1, 0, 3, 3, 0, 5, 7, 8}, {5, 2, 4, 9, 5, 6, 8, 9});
    EXPECT_EQ(a.dims(), 8u);
    EXPECT_EQ(a.lo(7), 7);
    EXPECT_EQ(a.hi(7), 9);
    EXPECT_EQ(b.size(3), 6);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a.volume(), 256);
    EXPECT_EQ(b.volume(), 4 * 2 * 1 * 6 * 5 * 1 * 1 * 1);
    EXPECT_TRUE(a.contains({0, 1, 2, 3, 4, 5, 6, 7}));
    EXPECT_TRUE(a.contains({1, 2, 3, 4, 5, 6, 7, 8}));
    EXPECT_FALSE(a.contains({1, 2, 3, 4, 5, 6, 7, 9}));

    const HyperRect i = a.intersect(b);
    EXPECT_EQ(i, HyperRect({1, 1, 3, 3, 4, 5, 7, 8},
                           {2, 2, 4, 5, 5, 6, 8, 9}));
    EXPECT_EQ(i.volume(), 2);
    EXPECT_TRUE(a.overlaps(b));
    EXPECT_TRUE(a.containsRect(i));
    EXPECT_TRUE(b.containsRect(i));
    EXPECT_FALSE(a.containsRect(b));
    EXPECT_EQ(a.boundingUnion(b),
              HyperRect({0, 0, 2, 3, 0, 5, 6, 7}, {5, 3, 4, 9, 6, 7, 8, 9}));
    EXPECT_EQ(a.shifted(7, -3),
              HyperRect({0, 1, 2, 3, 4, 5, 6, 4}, {2, 3, 4, 5, 6, 7, 8, 6}));

    // Emptying the last dim empties the whole rect.
    const HyperRect e = a.withDim(7, 10, 10);
    EXPECT_TRUE(e.empty());
    EXPECT_EQ(e.volume(), 0);
    EXPECT_FALSE(a.overlaps(e));
    EXPECT_TRUE(a.intersect(e).empty());
    EXPECT_EQ(a.boundingUnion(e), a);
    EXPECT_EQ(e.boundingUnion(a), a);
    EXPECT_EQ(a.str(), "[0,2)x[1,3)x[2,4)x[3,5)x[4,6)x[5,7)x[6,8)x[7,9)");
}

TEST(HyperRectDeath, RankPastMaxPanics)
{
    const std::vector<Coord> zeros(HyperRect::kMaxRank + 1, 0);
    const std::vector<Coord> ones(HyperRect::kMaxRank + 1, 1);
    EXPECT_DEATH(HyperRect(zeros, ones), "rank 9 exceeds");
    EXPECT_DEATH(HyperRect::array(ones), "rank 9 exceeds");
    EXPECT_DEATH(HyperRect({0, 0, 0, 0, 0, 0, 0, 0, 0},
                           {1, 1, 1, 1, 1, 1, 1, 1, 1}),
                 "rank 9 exceeds");
}

} // namespace
} // namespace infs
