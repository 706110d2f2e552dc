#include <gtest/gtest.h>

#include "egraph/egraph.hh"

namespace infs {
namespace {

ENode
tensorNode(ArrayId a, HyperRect r)
{
    ENode n;
    n.kind = TdfgKind::Tensor;
    n.array = a;
    n.rect = std::move(r);
    return n;
}

ENode
computeNode(BitOp fn, EChildren kids)
{
    ENode n;
    n.kind = TdfgKind::Compute;
    n.fn = fn;
    n.children = kids;
    return n;
}

TEST(EGraph, HashConsingDeduplicates)
{
    EGraph eg(1);
    EClassId a = eg.add(tensorNode(0, HyperRect::interval(0, 8)));
    EClassId b = eg.add(tensorNode(0, HyperRect::interval(0, 8)));
    EXPECT_EQ(a, b);
    EClassId c = eg.add(tensorNode(0, HyperRect::interval(0, 9)));
    EXPECT_NE(a, c);
    EXPECT_EQ(eg.numClasses(), 2u);
}

TEST(EGraph, DomainsComputedPerSemantics)
{
    EGraph eg(1);
    EClassId a = eg.add(tensorNode(0, HyperRect::interval(0, 8)));
    EClassId b = eg.add(tensorNode(1, HyperRect::interval(2, 12)));
    EClassId c = eg.add(computeNode(BitOp::Add, {a, b}));
    EXPECT_EQ(eg.eclass(c).domain, HyperRect::interval(2, 8));

    ENode mv;
    mv.kind = TdfgKind::Move;
    mv.dim = 0;
    mv.dist = 3;
    mv.children = {a};
    EClassId m = eg.add(std::move(mv));
    EXPECT_EQ(eg.eclass(m).domain, HyperRect::interval(3, 11));
}

TEST(EGraph, MergeRejectsDomainMismatch)
{
    EGraph eg(1);
    EClassId a = eg.add(tensorNode(0, HyperRect::interval(0, 8)));
    EClassId b = eg.add(tensorNode(0, HyperRect::interval(0, 9)));
    EXPECT_FALSE(eg.merge(a, b));
    EXPECT_NE(eg.find(a), eg.find(b));
}

TEST(EGraph, MergeUnionsEqualDomains)
{
    EGraph eg(1);
    EClassId a = eg.add(tensorNode(0, HyperRect::interval(0, 8)));
    EClassId b = eg.add(tensorNode(1, HyperRect::interval(0, 8)));
    EXPECT_TRUE(eg.merge(a, b));
    EXPECT_EQ(eg.find(a), eg.find(b));
    EXPECT_EQ(eg.eclass(a).nodes.size(), 2u);
}

TEST(EGraph, CongruenceClosureAfterMerge)
{
    // If A == B then f(A) == f(B) after rebuild.
    EGraph eg(1);
    EClassId a = eg.add(tensorNode(0, HyperRect::interval(0, 8)));
    EClassId b = eg.add(tensorNode(1, HyperRect::interval(0, 8)));
    EClassId fa = eg.add(computeNode(BitOp::Relu, {a}));
    EClassId fb = eg.add(computeNode(BitOp::Relu, {b}));
    EXPECT_NE(eg.find(fa), eg.find(fb));
    eg.merge(a, b);
    eg.rebuild();
    EXPECT_EQ(eg.find(fa), eg.find(fb));
}

TEST(EGraph, FindPathCompression)
{
    EGraph eg(1);
    std::vector<EClassId> ids;
    for (int i = 0; i < 5; ++i)
        ids.push_back(eg.add(tensorNode(static_cast<ArrayId>(i),
                                        HyperRect::interval(0, 4))));
    for (int i = 1; i < 5; ++i)
        eg.merge(ids[0], ids[i]);
    eg.rebuild();
    EClassId root = eg.find(ids[0]);
    for (EClassId id : ids)
        EXPECT_EQ(eg.find(id), root);
    EXPECT_EQ(eg.eclass(root).nodes.size(), 5u);
}

} // namespace
} // namespace infs
