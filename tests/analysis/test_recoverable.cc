/**
 * @file
 * Recoverable-diagnostic paths in the e-graph layer: malformed ids and
 * failed extractions must come back as infs::Expected errors, never
 * aborts.
 */

#include <gtest/gtest.h>

#include "egraph/egraph.hh"

namespace infs {
namespace {

TEST(Recoverable, TryMergeRejectsMalformedIds)
{
    EGraph eg(1);
    ENode t;
    t.kind = TdfgKind::Tensor;
    t.array = 0;
    t.rect = HyperRect::interval(0, 8);
    EClassId a = eg.add(t);
    EXPECT_TRUE(eg.validId(a));
    EXPECT_FALSE(eg.validId(a + 100));

    Expected<bool> res = eg.tryMerge(a, a + 100);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error().code, ErrCode::InvalidArgument);

    res = eg.tryMerge(invalidEClass, a);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error().code, ErrCode::InvalidArgument);
}

TEST(Recoverable, TryMergeStillRejectsDomainMismatch)
{
    EGraph eg(1);
    ENode t1;
    t1.kind = TdfgKind::Tensor;
    t1.array = 0;
    t1.rect = HyperRect::interval(0, 8);
    ENode t2 = t1;
    t2.array = 1;
    t2.rect = HyperRect::interval(0, 16);
    EClassId a = eg.add(t1);
    EClassId b = eg.add(t2);
    Expected<bool> res = eg.tryMerge(a, b);
    ASSERT_TRUE(res.ok());
    EXPECT_FALSE(*res); // Valid ids, incompatible domains.
}

TEST(Recoverable, TryOptimizeSucceedsOnWellFormedGraph)
{
    TdfgGraph g(1, "opt");
    NodeId a = g.tensor(0, HyperRect::interval(0, 64));
    NodeId b = g.tensor(1, HyperRect::interval(0, 64));
    NodeId s = g.compute(BitOp::Mul, {a, b});
    g.output(s, 2);
    TdfgOptimizer opt;
    Expected<ExtractionResult> res = opt.tryOptimize(g);
    ASSERT_TRUE(res.ok()) << res.error().str();
    EXPECT_EQ(res->graph.outputs().size(), 1u);
}

TEST(Recoverable, TryOptimizeDeclinesWideCompute)
{
    // E-nodes hold EChildren::capacity children inline; a wider compute
    // is declined as a diagnostic and the caller keeps its graph.
    TdfgGraph g(1, "wide");
    std::vector<NodeId> ops;
    for (std::size_t i = 0; i <= EChildren::capacity; ++i)
        ops.push_back(g.tensor(0, HyperRect::interval(0, 16)));
    g.output(g.compute(BitOp::Add, ops), 1);
    Expected<ExtractionResult> res = TdfgOptimizer().tryOptimize(g);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error().code, ErrCode::InvalidArgument);
}

} // namespace
} // namespace infs
