#include <gtest/gtest.h>

#include <vector>

#include "jit/bank_set.hh"

namespace infs {
namespace {

std::vector<BankId>
members(const BankSet &s)
{
    std::vector<BankId> out;
    s.forEach([&](BankId b) { out.push_back(b); });
    return out;
}

TEST(BankSet, RepeatedInsertsCountOnce)
{
    BankSet s;
    EXPECT_TRUE(s.empty());
    for (int round = 0; round < 3; ++round) {
        for (BankId b : {5u, 0u, 63u, 64u, 255u})
            s.insert(b);
    }
    EXPECT_EQ(s.size(), 5u);
    EXPECT_FALSE(s.empty());
    for (BankId b : {0u, 5u, 63u, 64u, 255u})
        EXPECT_TRUE(s.contains(b)) << b;
    for (BankId b : {1u, 62u, 65u, 128u, 254u, BankSet::kMaxBanks})
        EXPECT_FALSE(s.contains(b)) << b;
}

TEST(BankSet, ForEachIsAscendingAcrossWords)
{
    BankSet s;
    for (BankId b : {200u, 3u, 130u, 64u, 63u, 127u, 128u, 0u, 255u})
        s.insert(b);
    EXPECT_EQ(members(s), (std::vector<BankId>{0, 3, 63, 64, 127, 128, 130,
                                               200, 255}));
}

TEST(BankSet, UnionCountsSharedBanksOnce)
{
    BankSet a, b;
    for (BankId x : {1u, 2u, 70u, 190u})
        a.insert(x);
    for (BankId x : {2u, 70u, 71u, 250u})
        b.insert(x);
    a |= b;
    EXPECT_EQ(a.size(), 6u);
    EXPECT_EQ(members(a), (std::vector<BankId>{1, 2, 70, 71, 190, 250}));
    // The union's count stays right for later inserts.
    a.insert(71);
    a.insert(3);
    EXPECT_EQ(a.size(), 7u);
    // Union with the empty set changes nothing.
    BankSet before = a;
    a |= BankSet{};
    EXPECT_EQ(a, before);
}

TEST(BankSet, IntersectsComparesEveryWord)
{
    BankSet a, b;
    EXPECT_FALSE(a.intersects(b));
    a.insert(0);
    a.insert(191);
    b.insert(1);
    b.insert(192);
    EXPECT_FALSE(a.intersects(b));
    EXPECT_FALSE(b.intersects(a));
    b.insert(191);
    EXPECT_TRUE(a.intersects(b));
    EXPECT_TRUE(b.intersects(a));
}

TEST(BankSet, EqualityIsSetEquality)
{
    BankSet a, b;
    a.insert(9);
    a.insert(100);
    b.insert(100);
    b.insert(9);
    b.insert(9);
    EXPECT_EQ(a, b);
    b.insert(101);
    EXPECT_NE(a, b);
}

} // namespace
} // namespace infs
