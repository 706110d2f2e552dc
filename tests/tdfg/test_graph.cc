#include <gtest/gtest.h>

#include "tdfg/graph.hh"

namespace infs {
namespace {

TEST(TdfgGraph, Fig4a1DFilterStructure)
{
    // B[i] = A[i-1] + A[i] + A[i+1] on i in [1, N-1): three tensors, two
    // mv nodes to align, two adds.
    const Coord n = 1024;
    TdfgGraph g(1, "stencil1d");
    NodeId a0 = g.tensor(0, HyperRect::interval(0, n - 2), "A0");
    NodeId a1 = g.tensor(0, HyperRect::interval(1, n - 1), "A1");
    NodeId a2 = g.tensor(0, HyperRect::interval(2, n), "A2");
    NodeId mv0 = g.move(a0, 0, 1);
    NodeId mv2 = g.move(a2, 0, -1);
    NodeId s1 = g.compute(BitOp::Add, {mv0, a1});
    NodeId s2 = g.compute(BitOp::Add, {s1, mv2});
    g.output(s2, 1);

    EXPECT_TRUE(g.validate(false));
    // Moved tensors align exactly with A1's domain.
    EXPECT_EQ(g.domainOf(mv0), HyperRect::interval(1, n - 1));
    EXPECT_EQ(g.domainOf(mv2), HyperRect::interval(1, n - 1));
    EXPECT_EQ(g.domainOf(s2), HyperRect::interval(1, n - 1));

    TdfgSummary s = g.summarize();
    EXPECT_EQ(s.numCompute, 2u);
    EXPECT_EQ(s.numMove, 2u);
    EXPECT_EQ(s.maxTensorElems, n - 2);
}

TEST(TdfgGraph, ComputeDomainIsIntersection)
{
    TdfgGraph g(2);
    NodeId a = g.tensor(0, HyperRect::box2(0, 4, 0, 4));
    NodeId b = g.tensor(1, HyperRect::box2(2, 6, 1, 3));
    NodeId c = g.compute(BitOp::Mul, {a, b});
    EXPECT_EQ(g.domainOf(c), HyperRect::box2(2, 4, 1, 3));
}

TEST(TdfgGraph, ConstOperandsDoNotShrinkDomain)
{
    TdfgGraph g(1);
    NodeId a = g.tensor(0, HyperRect::interval(0, 100));
    NodeId c = g.constant(3.0);
    NodeId m = g.compute(BitOp::Mul, {a, c});
    EXPECT_EQ(g.domainOf(m), HyperRect::interval(0, 100));
}

TEST(TdfgGraph, BroadcastDomainGaussElim)
{
    // Fig 4(c): A[k,k+1)x[k+1,N) broadcast downwards (dim 0 here is
    // columns j, dim 1 rows i) to align with A[k+1,N)x[k+1,N).
    const Coord n = 64, k = 3;
    TdfgGraph g(2, "gauss");
    // Row k, columns [k+1, N): dim0 = column, dim1 = row.
    NodeId akj = g.tensor(0, HyperRect::box2(k + 1, n, k, k + 1), "Akj");
    NodeId bc = g.broadcast(akj, 1, 1, n - k - 1);
    EXPECT_EQ(g.domainOf(bc), HyperRect::box2(k + 1, n, k + 1, n));
}

TEST(TdfgGraph, Fig8OuterProductGemm)
{
    // C[m][n] += A[m][k] * B[k][n]: column of A and row of B broadcast to
    // the whole C (dim0 = n, dim1 = m).
    const Coord M = 32, N = 48, K = 16;
    (void)K;
    TdfgGraph g(2, "mm_outer");
    // A[:,k] as a (1 x M) tensor at column 0; broadcast across dim0 to N.
    NodeId amk = g.tensor(0, HyperRect::box2(0, 1, 0, M), "Amk");
    NodeId bkn = g.tensor(1, HyperRect::box2(0, N, 0, 1), "Bkn");
    NodeId c_in = g.tensor(2, HyperRect::box2(0, N, 0, M), "C");
    NodeId a_bc = g.broadcast(amk, 0, 0, N);
    NodeId b_bc = g.broadcast(bkn, 1, 0, M);
    EXPECT_EQ(g.domainOf(a_bc), HyperRect::box2(0, N, 0, M));
    EXPECT_EQ(g.domainOf(b_bc), HyperRect::box2(0, N, 0, M));
    NodeId prod = g.compute(BitOp::Mul, {a_bc, b_bc});
    NodeId acc = g.compute(BitOp::Add, {c_in, prod});
    g.output(acc, 2);
    EXPECT_TRUE(g.validate(false));
    EXPECT_EQ(g.domainOf(acc).volume(), M * N);
}

TEST(TdfgGraph, ReduceCollapsesDimension)
{
    TdfgGraph g(2);
    NodeId a = g.tensor(0, HyperRect::box2(0, 8, 0, 16));
    NodeId r = g.reduce(a, BitOp::Add, 0);
    EXPECT_EQ(g.domainOf(r), HyperRect::box2(0, 1, 0, 16));
    NodeId r2 = g.reduce(r, BitOp::Max, 1);
    EXPECT_EQ(g.domainOf(r2).volume(), 1);
}

TEST(TdfgGraph, ShrinkValidatesBounds)
{
    TdfgGraph g(1);
    NodeId a = g.tensor(0, HyperRect::interval(0, 10));
    NodeId s = g.shrink(a, 0, 2, 8);
    EXPECT_EQ(g.domainOf(s), HyperRect::interval(2, 8));
}

TEST(TdfgGraph, StreamNodesEmbed)
{
    // Fig 4(b) vector sum: in-memory partial reduce + near-memory final
    // reduce stream.
    const Coord n = 4096;
    TdfgGraph g(1, "array_sum");
    NodeId a = g.tensor(0, HyperRect::interval(0, n));
    NodeId partial = g.reduce(a, BitOp::Add, 0);
    NodeId fin = g.stream(StreamRole::Reduce, AccessPattern::linear(0, 0, n),
                          partial);
    EXPECT_TRUE(g.validate(false));
    EXPECT_EQ(g.node(fin).streamRole, StreamRole::Reduce);
    EXPECT_EQ(g.summarize().numStream, 1u);
    EXPECT_EQ(g.summarize().numReduce, 1u);
}

TEST(TdfgGraph, DumpShowsStructure)
{
    TdfgGraph g(1, "t");
    NodeId a = g.tensor(0, HyperRect::interval(0, 4), "A");
    NodeId c = g.constant(2.0);
    NodeId m = g.compute(BitOp::Mul, {a, c});
    g.output(m, 1);
    std::string d = g.dump();
    EXPECT_NE(d.find("tensor"), std::string::npos);
    EXPECT_NE(d.find("mul"), std::string::npos);
    EXPECT_NE(d.find("output"), std::string::npos);
}

TEST(TdfgGraph, DumpShowsNamesAndStreamPatterns)
{
    // Two graphs that differ only in the array a load stream reads must
    // dump differently; builder-given names print, default names do not.
    auto build = [](ArrayId b) {
        TdfgGraph g(2, "dot");
        NodeId a = g.tensor(0, HyperRect::box2(0, 4, 0, 2), "A");
        NodeId col = g.stream(StreamRole::Load,
                              AccessPattern::affine2(b, 1, 1, 3, 4),
                              invalidNode, HyperRect::box2(0, 4, 0, 1));
        NodeId prod = g.compute(BitOp::Mul, {a, g.broadcast(col, 1, 0, 2)});
        g.output(prod, 3);
        return g;
    };
    EXPECT_EQ(build(1).dump(), R"(tdfg dot dims=2
  %0 = tensor array0 [0,4)x[0,2) name=A
  %1 = strm load array1 start=1 strides=[1,3] counts=[1,4] : [0,4)x[0,1)
  %2 = bc dim=1 dist=0 count=2 (%1) : [0,4)x[0,2)
  %3 = cmp mul (%0, %2) : [0,4)x[0,2)
  output %3 -> array3
)");
    EXPECT_NE(build(1).dump(), build(2).dump());
}

TEST(TdfgGraph, DumpShowsIndirectStreamArray)
{
    // A gather A[B[i]] prints its index array; another index array
    // dumps differently.
    auto build = [](ArrayId index) {
        TdfgGraph g(1, "gather");
        g.stream(StreamRole::Load, AccessPattern::gather(0, index, 8),
                 invalidNode, HyperRect::interval(0, 8));
        return g;
    };
    EXPECT_EQ(build(1).dump(), R"(tdfg gather dims=1
  %0 = strm load array0 start=0 strides=[1] counts=[8] indirect=array1 : [0,8)
)");
    EXPECT_NE(build(1).dump(), build(2).dump());
}

TEST(TdfgGraphDeath, OperandMustPrecede)
{
    TdfgGraph g(1);
    NodeId a = g.tensor(0, HyperRect::interval(0, 4));
    EXPECT_DEATH(g.compute(BitOp::Add, {a, NodeId(99)}), "out of");
}

TEST(TdfgGraphDeath, EmptyComputeDomainPanics)
{
    TdfgGraph g(1);
    NodeId a = g.tensor(0, HyperRect::interval(0, 4));
    NodeId b = g.tensor(1, HyperRect::interval(10, 14));
    EXPECT_DEATH(g.compute(BitOp::Add, {a, b}), "empty domain");
}

} // namespace
} // namespace infs
