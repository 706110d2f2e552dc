#include <gtest/gtest.h>

#include "egraph/egraph.hh"
#include "sim/rng.hh"
#include "tdfg/interp.hh"
#include "uarch/system.hh"

namespace infs {
namespace {

/** Count nodes of a kind (optionally a specific compute fn). */
unsigned
countKind(const TdfgGraph &g, TdfgKind k, BitOp fn = BitOp::Copy)
{
    unsigned n = 0;
    for (const TdfgNode &node : g.nodes())
        if (node.kind == k && (fn == BitOp::Copy || node.fn == fn))
            ++n;
    return n;
}

/** Run both graphs through the interpreter and compare the out array
 * (both arrays have extents @p sizes). */
void
expectSameResult(const TdfgGraph &a, const TdfgGraph &b, ArrayId in,
                 ArrayId out, const std::vector<Coord> &sizes,
                 unsigned seed = 11)
{
    auto run = [&](const TdfgGraph &g) {
        ArrayStore store;
        ArrayId A = store.declare("A", sizes);
        ArrayId O = store.declare("O", sizes);
        infs_assert(A == in && O == out, "test array ids drifted");
        Rng rng(seed);
        for (float &v : store.data(A))
            v = rng.nextFloat(-3, 3);
        TdfgInterpreter interp(store);
        interp.run(g);
        return store.array(O).data;
    };
    auto va = run(a);
    auto vb = run(b);
    ASSERT_EQ(va.size(), vb.size());
    for (std::size_t i = 0; i < va.size(); ++i)
        EXPECT_NEAR(va[i], vb[i], 1e-4) << "element " << i;
}

/**
 * The appendix's worked example (Fig 20):
 *   out = mv(A[0,n-2)*V, +1) + mv(A[2,n)*V, -1)
 * The optimizer should discover the shared multiply over the expanded
 * tensor A[0,n) and compute it once.
 */
TdfgGraph
fig20Graph(Coord n, ArrayId A, ArrayId O)
{
    TdfgGraph g(1, "fig20");
    NodeId a0 = g.tensor(A, HyperRect::interval(0, n - 2), "A0");
    NodeId a2 = g.tensor(A, HyperRect::interval(2, n), "A2");
    NodeId v = g.constant(3.0, "V");
    NodeId m0 = g.compute(BitOp::Mul, {a0, v});
    NodeId m2 = g.compute(BitOp::Mul, {a2, v});
    NodeId s = g.compute(BitOp::Add,
                         {g.move(m0, 0, 1), g.move(m2, 0, -1)});
    g.output(s, O);
    return g;
}

TEST(Optimizer, Fig20SharesTheMultiply)
{
    const Coord n = 64;
    TdfgGraph g = fig20Graph(n, 0, 1);
    EXPECT_EQ(countKind(g, TdfgKind::Compute, BitOp::Mul), 2u);

    TdfgOptimizer opt;
    ExtractionResult res = opt.optimize(g);
    EXPECT_TRUE(res.graph.validate(false));
    // The two multiplies collapse into one on the expanded tensor.
    EXPECT_EQ(countKind(res.graph, TdfgKind::Compute, BitOp::Mul), 1u);
    EXPECT_GT(opt.rewritesApplied(), 0u);
    expectSameResult(g, res.graph, 0, 1, {n});
}

TEST(Optimizer, Fig20OptimizedCostIsLower)
{
    TdfgGraph g = fig20Graph(64, 0, 1);
    // Cost of the extracted graph must not exceed the cost of extracting
    // with rewrites disabled (identity).
    TdfgOptimizer::Options off;
    off.maxIterations = 0;
    ExtractionResult base = TdfgOptimizer(off).optimize(g);
    ExtractionResult opt = TdfgOptimizer().optimize(g);
    EXPECT_LT(opt.cost, base.cost);
}

TEST(Optimizer, IdentityWhenNoRewritesApply)
{
    // Plain vec_add: nothing to optimize; semantics must be preserved.
    const Coord n = 32;
    TdfgGraph g(1, "vec_add");
    NodeId a = g.tensor(0, HyperRect::interval(0, n));
    NodeId b = g.compute(BitOp::Relu, {a});
    g.output(b, 1);
    ExtractionResult res = TdfgOptimizer().optimize(g);
    EXPECT_TRUE(res.graph.validate(false));
    EXPECT_EQ(countKind(res.graph, TdfgKind::Compute), 1u);
    expectSameResult(g, res.graph, 0, 1, {n});
}

TEST(Optimizer, StencilWithSymmetricCoefficients)
{
    // B[i] = C0*A[i-1] + C1*A[i] + C0*A[i+1]: the two C0 multiplies are
    // shareable after move-exchange + expansion (Fig 6's pattern in 1-D).
    const Coord n = 48;
    TdfgGraph g(1, "sym_stencil");
    NodeId a0 = g.tensor(0, HyperRect::interval(0, n - 2));
    NodeId a1 = g.tensor(0, HyperRect::interval(1, n - 1));
    NodeId a2 = g.tensor(0, HyperRect::interval(2, n));
    NodeId c0 = g.constant(0.25);
    NodeId c1 = g.constant(0.5);
    NodeId t0 = g.move(g.compute(BitOp::Mul, {a0, c0}), 0, 1);
    NodeId t1 = g.compute(BitOp::Mul, {a1, c1});
    NodeId t2 = g.move(g.compute(BitOp::Mul, {a2, c0}), 0, -1);
    NodeId s = g.compute(BitOp::Add, {g.compute(BitOp::Add, {t0, t1}), t2});
    g.output(s, 1);

    ExtractionResult res = TdfgOptimizer().optimize(g);
    EXPECT_TRUE(res.graph.validate(false));
    // Three multiplies shrink to two (C0 shared, C1 kept).
    EXPECT_LE(countKind(res.graph, TdfgKind::Compute, BitOp::Mul), 2u);
    expectSameResult(g, res.graph, 0, 1, {n});
}

TEST(Optimizer, SymmetricConv2dSharesMultipliesAndRunsFaster)
{
    // 3x3 conv2d with symmetric weights (corners 1/16, edges 1/8, centre
    // 1/4) written as nine shifted multiplies: the e-graph shares the
    // multiply per weight class, and the lowered program gets cheaper.
    const Coord n = 64;
    TdfgGraph g(2, "conv2d_raw");
    HyperRect inner = HyperRect::box2(1, n - 1, 1, n - 1);
    NodeId acc = invalidNode;
    for (Coord dj = -1; dj <= 1; ++dj)
        for (Coord di = -1; di <= 1; ++di) {
            NodeId a = g.tensor(0, inner.shifted(0, di).shifted(1, dj));
            if (di != 0)
                a = g.move(a, 0, -di);
            if (dj != 0)
                a = g.move(a, 1, -dj);
            int taps = (di != 0) + (dj != 0);
            double w = taps == 2 ? 0.0625 : taps == 1 ? 0.125 : 0.25;
            NodeId term = g.compute(BitOp::Mul, {a, g.constant(w)});
            acc = acc == invalidNode ? term
                                     : g.compute(BitOp::Add, {acc, term});
        }
    g.output(acc, 1);

    ExtractionResult res = TdfgOptimizer().optimize(g);
    ASSERT_TRUE(res.graph.validate(false));
    EXPECT_EQ(countKind(g, TdfgKind::Compute, BitOp::Mul), 9u);
    EXPECT_LE(countKind(res.graph, TdfgKind::Compute, BitOp::Mul), 4u);

    auto cycles = [n](const TdfgGraph &gr) {
        InfinitySystem sys;
        TiledLayout lay({n, n}, {16, 16});
        auto prog = sys.jit().lower(gr, lay, sys.map());
        return sys.tensorController().execute(*prog, lay, 0).cycles;
    };
    EXPECT_LT(cycles(res.graph), cycles(g));
    expectSameResult(g, res.graph, 0, 1, {n, n});
}

TEST(Optimizer, PreservesStreamNodes)
{
    const Coord n = 128;
    TdfgGraph g(1, "sum");
    NodeId a = g.tensor(0, HyperRect::interval(0, n));
    NodeId part = g.reduce(a, BitOp::Add, 0);
    g.stream(StreamRole::Reduce, AccessPattern::linear(0, 0, n), part);
    ExtractionResult res = TdfgOptimizer().optimize(g);
    EXPECT_EQ(countKind(res.graph, TdfgKind::Stream), 1u);
    EXPECT_EQ(countKind(res.graph, TdfgKind::Reduce), 1u);
}

TEST(Optimizer, RespectsNodeBudget)
{
    TdfgGraph g = fig20Graph(64, 0, 1);
    TdfgOptimizer::Options opts;
    opts.maxNodes = 4; // Force early termination.
    TdfgOptimizer opt(opts);
    ExtractionResult res = opt.optimize(g);
    EXPECT_TRUE(res.graph.validate(false));
    EXPECT_LE(opt.iterationsRun(), opts.maxIterations);
    expectSameResult(g, res.graph, 0, 1, {64});
}

TEST(Optimizer, AblationFlagsDisableRules)
{
    TdfgGraph g = fig20Graph(64, 0, 1);
    TdfgOptimizer::Options opts;
    opts.enableExpansion = false;
    opts.enableAlgebra = false; // Distributivity can also factor out V.
    ExtractionResult res = TdfgOptimizer(opts).optimize(g);
    // Without expansion or algebra the multiplies cannot be shared.
    EXPECT_EQ(countKind(res.graph, TdfgKind::Compute, BitOp::Mul), 2u);
    expectSameResult(g, res.graph, 0, 1, {64});
}

TEST(Optimizer, ExtractionNeverIncreasesCost)
{
    // Property: for several random stencil shapes, optimized cost <=
    // unoptimized cost and semantics hold.
    for (unsigned seed = 0; seed < 4; ++seed) {
        const Coord n = 40 + 8 * seed;
        TdfgGraph g = fig20Graph(n, 0, 1);
        TdfgOptimizer::Options off;
        off.maxIterations = 0;
        double base = TdfgOptimizer(off).optimize(g).cost;
        ExtractionResult res = TdfgOptimizer().optimize(g);
        EXPECT_LE(res.cost, base + 1e-9);
        expectSameResult(g, res.graph, 0, 1, {n}, seed + 1);
    }
}

} // namespace
} // namespace infs
