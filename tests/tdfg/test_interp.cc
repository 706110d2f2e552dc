#include <gtest/gtest.h>

#include <algorithm>

#include <cmath>

#include "sim/rng.hh"
#include "tdfg/interp.hh"

namespace infs {
namespace {

TEST(Interp, VecAddMatchesScalarLoop)
{
    const Coord n = 257; // Deliberately not a power of two.
    ArrayStore store;
    ArrayId A = store.declare("A", {n});
    ArrayId B = store.declare("B", {n});
    ArrayId C = store.declare("C", {n});
    Rng rng(1);
    for (Coord i = 0; i < n; ++i) {
        store.array(A).data[i] = rng.nextFloat(-10, 10);
        store.array(B).data[i] = rng.nextFloat(-10, 10);
    }

    TdfgGraph g(1, "vec_add");
    NodeId a = g.tensor(A, HyperRect::interval(0, n));
    NodeId b = g.tensor(B, HyperRect::interval(0, n));
    NodeId c = g.compute(BitOp::Add, {a, b});
    g.output(c, C);

    TdfgInterpreter interp(store);
    interp.run(g);
    for (Coord i = 0; i < n; ++i)
        EXPECT_FLOAT_EQ(store.array(C).data[i],
                        store.array(A).data[i] + store.array(B).data[i]);
    EXPECT_EQ(interp.flopCount(), static_cast<std::uint64_t>(n));
}

TEST(Interp, Fig4aStencil1D)
{
    const Coord n = 64;
    ArrayStore store;
    ArrayId A = store.declare("A", {n});
    ArrayId B = store.declare("B", {n});
    for (Coord i = 0; i < n; ++i)
        store.array(A).data[i] = static_cast<float>(i * i % 17);

    TdfgGraph g(1, "stencil1d");
    NodeId a0 = g.tensor(A, HyperRect::interval(0, n - 2));
    NodeId a1 = g.tensor(A, HyperRect::interval(1, n - 1));
    NodeId a2 = g.tensor(A, HyperRect::interval(2, n));
    NodeId s = g.compute(BitOp::Add,
                         {g.move(a0, 0, 1), a1, g.move(a2, 0, -1)});
    g.output(s, B);

    TdfgInterpreter interp(store);
    interp.run(g);
    const auto &av = store.array(A).data;
    const auto &bv = store.array(B).data;
    for (Coord i = 1; i < n - 1; ++i)
        EXPECT_FLOAT_EQ(bv[i], av[i - 1] + av[i] + av[i + 1]) << i;
    // Boundary cells untouched (outside the compute domain).
    EXPECT_FLOAT_EQ(bv[0], 0.0f);
    EXPECT_FLOAT_EQ(bv[n - 1], 0.0f);
}

TEST(Interp, ConstMultiply)
{
    const Coord n = 16;
    ArrayStore store;
    ArrayId A = store.declare("A", {n});
    for (Coord i = 0; i < n; ++i)
        store.array(A).data[i] = static_cast<float>(i);
    TdfgGraph g(1);
    NodeId a = g.tensor(A, HyperRect::interval(0, n));
    NodeId c = g.constant(2.5);
    NodeId m = g.compute(BitOp::Mul, {a, c});
    g.output(m, A);
    TdfgInterpreter(store).run(g);
    for (Coord i = 0; i < n; ++i)
        EXPECT_FLOAT_EQ(store.array(A).data[i], 2.5f * i);
}

TEST(Interp, BroadcastReplicatesAlongDim)
{
    // Row vector broadcast down a 2-D tensor.
    const Coord n = 4, m = 3;
    ArrayStore store;
    ArrayId R = store.declare("R", {n, 1});
    ArrayId O = store.declare("O", {n, m});
    for (Coord j = 0; j < n; ++j)
        store.array(R).data[j] = static_cast<float>(j + 1);
    TdfgGraph g(2);
    NodeId r = g.tensor(R, HyperRect::box2(0, n, 0, 1));
    NodeId bc = g.broadcast(r, 1, 0, m);
    g.output(bc, O);
    TdfgInterpreter(store).run(g);
    for (Coord i = 0; i < m; ++i)
        for (Coord j = 0; j < n; ++j)
            EXPECT_FLOAT_EQ(store.array(O).at({j, i}),
                            static_cast<float>(j + 1));
}

TEST(Interp, OuterProductGemmStepMatchesInnerProduct)
{
    // One k-round of Fig 8's outer-product GEMM == rank-1 update.
    const Coord M = 8, N = 12;
    ArrayStore store;
    ArrayId Acol = store.declare("Acol", {1, M});
    ArrayId Brow = store.declare("Brow", {N, 1});
    ArrayId C = store.declare("C", {N, M});
    Rng rng(3);
    for (Coord i = 0; i < M; ++i)
        store.array(Acol).data[i] = rng.nextFloat(-1, 1);
    for (Coord j = 0; j < N; ++j)
        store.array(Brow).data[j] = rng.nextFloat(-1, 1);

    TdfgGraph g(2, "mm_outer_step");
    NodeId a = g.tensor(Acol, HyperRect::box2(0, 1, 0, M));
    NodeId b = g.tensor(Brow, HyperRect::box2(0, N, 0, 1));
    NodeId c0 = g.tensor(C, HyperRect::box2(0, N, 0, M));
    NodeId prod = g.compute(BitOp::Mul,
                            {g.broadcast(a, 0, 0, N),
                             g.broadcast(b, 1, 0, M)});
    NodeId acc = g.compute(BitOp::Add, {c0, prod});
    g.output(acc, C);
    TdfgInterpreter(store).run(g);

    for (Coord i = 0; i < M; ++i)
        for (Coord j = 0; j < N; ++j)
            EXPECT_FLOAT_EQ(store.array(C).at({j, i}),
                            store.array(Acol).data[i] *
                                store.array(Brow).data[j]);
}

TEST(Interp, ReduceAddAndMax)
{
    const Coord n = 8, m = 4;
    ArrayStore store;
    ArrayId A = store.declare("A", {n, m});
    float expect_sum[4] = {};
    float expect_max[4] = {-1e30f, -1e30f, -1e30f, -1e30f};
    Rng rng(9);
    for (Coord i = 0; i < m; ++i)
        for (Coord j = 0; j < n; ++j) {
            float v = rng.nextFloat(-5, 5);
            store.array(A).at({j, i}) = v;
            expect_sum[i] += v;
            expect_max[i] = std::max(expect_max[i], v);
        }
    TdfgGraph g(2);
    NodeId a = g.tensor(A, HyperRect::box2(0, n, 0, m));
    NodeId rs = g.reduce(a, BitOp::Add, 0);
    NodeId rm = g.reduce(a, BitOp::Max, 0);
    TdfgInterpreter interp(store);
    g.validate();
    interp.run(g);
    for (Coord i = 0; i < m; ++i) {
        EXPECT_NEAR(interp.value(rs).at({0, i}), expect_sum[i], 1e-4);
        EXPECT_FLOAT_EQ(interp.value(rm).at({0, i}), expect_max[i]);
    }
}

TEST(Interp, ArraySumViaPartialReduceAndStream)
{
    // Fig 4(b): in-memory partial reduce, then near-memory final reduce.
    const Coord n = 1000;
    ArrayStore store;
    ArrayId A = store.declare("A", {n});
    double expect = 0.0;
    for (Coord i = 0; i < n; ++i) {
        store.array(A).data[i] = static_cast<float>((i % 13) - 6);
        expect += (i % 13) - 6;
    }
    TdfgGraph g(1, "array_sum");
    NodeId a = g.tensor(A, HyperRect::interval(0, n));
    NodeId part = g.reduce(a, BitOp::Add, 0);
    NodeId fin = g.stream(StreamRole::Reduce,
                          AccessPattern::linear(A, 0, n), part);
    TdfgInterpreter interp(store);
    interp.run(g);
    EXPECT_NEAR(interp.streamReduceResult(fin), expect, 1e-3);
}

TEST(Interp, LoadStreamGather)
{
    // A[B[i]] gather through an indirect load stream.
    const Coord n = 10;
    ArrayStore store;
    ArrayId A = store.declare("A", {n});
    ArrayId B = store.declare("B", {4});
    ArrayId O = store.declare("O", {4});
    for (Coord i = 0; i < n; ++i)
        store.array(A).data[i] = static_cast<float>(100 + i);
    float idx[4] = {7, 0, 3, 3};
    for (int i = 0; i < 4; ++i)
        store.array(B).data[i] = idx[i];

    TdfgGraph g(1, "gather");
    NodeId ld = g.stream(StreamRole::Load, AccessPattern::gather(A, B, 4),
                         invalidNode, HyperRect::interval(0, 4));
    g.output(ld, O);
    TdfgInterpreter(store).run(g);
    EXPECT_FLOAT_EQ(store.array(O).data[0], 107.0f);
    EXPECT_FLOAT_EQ(store.array(O).data[1], 100.0f);
    EXPECT_FLOAT_EQ(store.array(O).data[2], 103.0f);
    EXPECT_FLOAT_EQ(store.array(O).data[3], 103.0f);
}

TEST(Interp, StoreStreamScatter)
{
    const Coord n = 10;
    ArrayStore store;
    ArrayId Src = store.declare("S", {3});
    ArrayId Idx = store.declare("I", {3});
    ArrayId Dst = store.declare("D", {n});
    float sv[3] = {1.5f, 2.5f, 3.5f};
    float iv[3] = {8, 1, 5};
    for (int i = 0; i < 3; ++i) {
        store.array(Src).data[i] = sv[i];
        store.array(Idx).data[i] = iv[i];
    }
    TdfgGraph g(1, "scatter");
    NodeId t = g.tensor(Src, HyperRect::interval(0, 3));
    g.stream(StreamRole::Store, AccessPattern::gather(Dst, Idx, 3), t,
             HyperRect::interval(0, n));
    TdfgInterpreter(store).run(g);
    EXPECT_FLOAT_EQ(store.array(Dst).data[8], 1.5f);
    EXPECT_FLOAT_EQ(store.array(Dst).data[1], 2.5f);
    EXPECT_FLOAT_EQ(store.array(Dst).data[5], 3.5f);
    EXPECT_FLOAT_EQ(store.array(Dst).data[0], 0.0f);
}

TEST(Interp, MoveOutsideArrayIsDiscardedOnOutput)
{
    // §3.2: data moved outside the bounding hyperrectangle is discarded.
    const Coord n = 8;
    ArrayStore store;
    ArrayId A = store.declare("A", {n});
    ArrayId B = store.declare("B", {n});
    for (Coord i = 0; i < n; ++i)
        store.array(A).data[i] = static_cast<float>(i + 1);
    TdfgGraph g(1);
    NodeId a = g.tensor(A, HyperRect::interval(0, n));
    NodeId mv = g.move(a, 0, 3); // Domain [3, n+3); cells n..n+2 dropped.
    g.output(mv, B);
    TdfgInterpreter(store).run(g);
    for (Coord i = 0; i < 3; ++i)
        EXPECT_FLOAT_EQ(store.array(B).data[i], 0.0f);
    for (Coord i = 3; i < n; ++i)
        EXPECT_FLOAT_EQ(store.array(B).data[i], static_cast<float>(i - 2));
}

TEST(Interp, SelectViaCmpAndArith)
{
    // max(a, b) == a*(a>=b) + b*(1-(a>=b)) exercised via CmpLt.
    const Coord n = 32;
    ArrayStore store;
    ArrayId A = store.declare("A", {n});
    ArrayId B = store.declare("B", {n});
    ArrayId O = store.declare("O", {n});
    Rng rng(17);
    for (Coord i = 0; i < n; ++i) {
        store.array(A).data[i] = rng.nextFloat(-4, 4);
        store.array(B).data[i] = rng.nextFloat(-4, 4);
    }
    TdfgGraph g(1);
    NodeId a = g.tensor(A, HyperRect::interval(0, n));
    NodeId b = g.tensor(B, HyperRect::interval(0, n));
    NodeId lt = g.compute(BitOp::CmpLt, {a, b});    // 1 when a < b
    NodeId one = g.constant(1.0);
    NodeId ge = g.compute(BitOp::Sub, {one, lt});   // 1 when a >= b
    NodeId m = g.compute(
        BitOp::Add,
        {g.compute(BitOp::Mul, {a, ge}), g.compute(BitOp::Mul, {b, lt})});
    g.output(m, O);
    TdfgInterpreter(store).run(g);
    for (Coord i = 0; i < n; ++i)
        EXPECT_FLOAT_EQ(store.array(O).data[i],
                        std::max(store.array(A).data[i],
                                 store.array(B).data[i]));
}

TEST(Interp, SelectPicksWhereThePredicateIsNonZero)
{
    const Coord n = 8;
    ArrayStore store;
    ArrayId P = store.declare("P", {n});
    ArrayId A = store.declare("A", {n});
    ArrayId B = store.declare("B", {n});
    ArrayId O = store.declare("O", {n});
    const float pred[n] = {0.0f, 1.0f, -0.0f, -2.5f, 0.0f, 0.5f, 0.0f, 3.0f};
    for (Coord i = 0; i < n; ++i) {
        store.array(P).data[i] = pred[i];
        store.array(A).data[i] = static_cast<float>(10 + i);
        store.array(B).data[i] = static_cast<float>(20 + i);
    }
    TdfgGraph g(1);
    const HyperRect r = HyperRect::interval(0, n);
    g.output(g.compute(BitOp::Select,
                       {g.tensor(P, r), g.tensor(A, r), g.tensor(B, r)}),
             O);
    TdfgInterpreter interp(store);
    interp.run(g);
    for (Coord i = 0; i < n; ++i)
        EXPECT_EQ(store.array(O).data[i],
                  static_cast<float>(pred[i] != 0.0f ? 10 + i : 20 + i))
            << i;
    EXPECT_EQ(interp.flopCount(), static_cast<std::uint64_t>(n));
}

TEST(Interp, SelectOnCmpLtIsMin)
{
    const Coord n = 32;
    ArrayStore store;
    ArrayId A = store.declare("A", {n});
    ArrayId B = store.declare("B", {n});
    ArrayId O = store.declare("O", {n});
    Rng rng(23);
    for (Coord i = 0; i < n; ++i) {
        store.array(A).data[i] = rng.nextFloat(-4, 4);
        store.array(B).data[i] = rng.nextFloat(-4, 4);
    }
    TdfgGraph g(1);
    NodeId a = g.tensor(A, HyperRect::interval(0, n));
    NodeId b = g.tensor(B, HyperRect::interval(0, n));
    g.output(g.compute(BitOp::Select,
                       {g.compute(BitOp::CmpLt, {a, b}), a, b}),
             O);
    TdfgInterpreter(store).run(g);
    for (Coord i = 0; i < n; ++i)
        EXPECT_EQ(store.array(O).data[i],
                  std::min(store.array(A).data[i], store.array(B).data[i]));
}

TEST(Interp, SelectTakesConstantOperands)
{
    // relu(x) as select(0 < x, x, 0): constants broadcast like any
    // other compute operand.
    const Coord n = 16;
    ArrayStore store;
    ArrayId X = store.declare("X", {n});
    ArrayId O = store.declare("O", {n});
    for (Coord i = 0; i < n; ++i)
        store.array(X).data[i] = static_cast<float>(i) - 8.0f;
    TdfgGraph g(1);
    NodeId x = g.tensor(X, HyperRect::interval(0, n));
    NodeId zero = g.constant(0.0);
    g.output(g.compute(BitOp::Select,
                       {g.compute(BitOp::CmpLt, {zero, x}), x, zero}),
             O);
    TdfgInterpreter(store).run(g);
    for (Coord i = 0; i < n; ++i)
        EXPECT_EQ(store.array(O).data[i],
                  std::max(static_cast<float>(i) - 8.0f, 0.0f));
}

TEST(Interp, SelectNeedsThreeOperands)
{
    const Coord n = 8;
    ArrayStore store;
    ArrayId A = store.declare("A", {n});
    ArrayId O = store.declare("O", {n});
    TdfgGraph g(1);
    NodeId a = g.tensor(A, HyperRect::interval(0, n));
    g.output(g.compute(BitOp::Select, {a, a}), O);
    EXPECT_DEATH(TdfgInterpreter(store).run(g), "select needs");
}

TEST(Interp, RectIterVisitsAllCellsInOrder)
{
    HyperRect r = HyperRect::box2(1, 3, 5, 7);
    std::vector<std::vector<Coord>> pts;
    for (RectIter it(r); !it.done(); it.next())
        pts.push_back(*it);
    ASSERT_EQ(pts.size(), 4u);
    EXPECT_EQ(pts[0], (std::vector<Coord>{1, 5}));
    EXPECT_EQ(pts[1], (std::vector<Coord>{2, 5})); // dim 0 fastest
    EXPECT_EQ(pts[2], (std::vector<Coord>{1, 6}));
    EXPECT_EQ(pts[3], (std::vector<Coord>{2, 6}));
}

} // namespace
} // namespace infs
