#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>

#include "egraph/egraph.hh"
#include "sim/rng.hh"
#include "tdfg/interp.hh"
#include "uarch/system.hh"
#include "workloads/workloads.hh"

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

/** B[i] = C0*A[i-1] + C1*A[i] + C0*A[i+1] over A[0,n). */
TdfgGraph
symStencilGraph(Coord n)
{
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
    return g;
}

TEST(Optimizer, StencilWithSymmetricCoefficients)
{
    // The two C0 multiplies are shareable after move-exchange + expansion
    // (Fig 6's pattern in 1-D).
    const Coord n = 48;
    TdfgGraph g = symStencilGraph(n);
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

TEST(Optimizer, ConstantWeightedSharedFactorDoesNotAbort)
{
    // x*3 + x*5 shares x, but factoring it out would build the constant-
    // only compute 3 + 5, which the tDFG rejects; the distributive rule
    // must decline instead. Both operand orders, alone and under a
    // further tensor add.
    const Coord n = 64;
    for (bool const_first : {false, true}) {
        for (bool extra_add : {false, true}) {
            TdfgGraph g(1, "const_weighted");
            NodeId x = g.tensor(0, HyperRect::interval(0, n), "x");
            auto weighted = [&](double w) {
                NodeId c = g.constant(w);
                return g.compute(BitOp::Mul, const_first
                                                 ? std::vector<NodeId>{c, x}
                                                 : std::vector<NodeId>{x, c});
            };
            NodeId s = g.compute(BitOp::Add, {weighted(3.0), weighted(5.0)});
            if (extra_add)
                s = g.compute(BitOp::Add, {s, x});
            g.output(s, 1);
            auto res = TdfgOptimizer().tryOptimize(g);
            ASSERT_TRUE(res.ok()) << res.error().str();
            EXPECT_TRUE(res->graph.validate(false));
            expectSameResult(g, res->graph, 0, 1, {n});
        }
    }
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

TEST(EGraph, RebuildCongruenceMergeIsMemorySafe)
{
    // mv(mv(A, +1), -1) fuses back into A, which makes the two multiplies
    // and then the two relus congruent: rebuild() finds congruent classes
    // while it walks the class lists and must union them only after the
    // walk (a union inside it grows or clears a list under the walk).
    const Coord n = 32;
    TdfgGraph g(1, "congruent");
    NodeId a = g.tensor(0, HyperRect::interval(0, n));
    NodeId m = g.move(g.move(a, 0, 1), 0, -1);
    NodeId c = g.constant(2.0);
    NodeId lhs = g.compute(BitOp::Relu, {g.compute(BitOp::Mul, {a, c})});
    NodeId rhs = g.compute(BitOp::Relu, {g.compute(BitOp::Mul, {m, c})});
    g.output(g.compute(BitOp::Add, {lhs, rhs}), 1);

    ExtractionResult res = TdfgOptimizer().optimize(g);
    EXPECT_TRUE(res.graph.validate(false));
    EXPECT_EQ(countKind(res.graph, TdfgKind::Compute, BitOp::Mul), 1u);
    expectSameResult(g, res.graph, 0, 1, {n});
}

/** Extraction cost as "%.17g", the digits that pin a double exactly. */
std::string
costStr(double cost)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", cost);
    return buf;
}

/** Cost of @p g under the extraction cost model (what extraction sums). */
double
graphCost(const TdfgGraph &g)
{
    ExtractionCost cost;
    double total = 0.0;
    for (const TdfgNode &n : g.nodes())
        total += cost.nodeCost(n.kind, n.fn, n.operands.size(), n.domain,
                               n.infiniteDomain);
    return total;
}

// Pinned extractions. Extraction breaks cost ties by class id and by
// node order within a class, so a change to either shows here.
const char *const kConv2d64 = R"(tdfg conv2d.opt dims=2
  %0 = tensor array0 [0,64)x[0,64)
  %1 = const 0.125
  %2 = cmp mul (%0, %1) : [0,64)x[0,64)
  %3 = shrink dim=1 to=[0,64)x[0,62) (%2) : [0,64)x[0,62)
  %4 = mv dim=0 dist=1 (%0) : [1,65)x[0,64)
  %5 = const 0.0625
  %6 = cmp mul (%4, %5) : [1,65)x[0,64)
  %7 = shrink dim=1 to=[1,65)x[0,62) (%6) : [1,65)x[0,62)
  %8 = cmp add (%3, %7) : [1,64)x[0,62)
  %9 = mv dim=0 dist=-1 (%0) : [-1,63)x[0,64)
  %10 = cmp mul (%9, %5) : [-1,63)x[0,64)
  %11 = shrink dim=1 to=[-1,63)x[0,62) (%10) : [-1,63)x[0,62)
  %12 = cmp add (%8, %11) : [1,63)x[0,62)
  %13 = mv dim=1 dist=1 (%12) : [1,63)x[1,63)
  %14 = shrink dim=1 to=[0,64)x[0,63) (%2) : [0,64)x[0,63)
  %15 = mv dim=0 dist=1 (%14) : [1,65)x[0,63)
  %16 = shrink dim=0 to=[1,63)x[0,63) (%15) : [1,63)x[0,63)
  %17 = shrink dim=1 to=[1,63)x[1,63) (%16) : [1,63)x[1,63)
  %18 = cmp add (%13, %17) : [1,63)x[1,63)
  %19 = const 0.25
  %20 = cmp mul (%0, %19) : [0,64)x[0,64)
  %21 = shrink dim=0 to=[0,63)x[0,64) (%20) : [0,63)x[0,64)
  %22 = shrink dim=0 to=[1,63)x[0,64) (%21) : [1,63)x[0,64)
  %23 = shrink dim=1 to=[1,63)x[1,63) (%22) : [1,63)x[1,63)
  %24 = cmp add (%18, %23) : [1,63)x[1,63)
  %25 = shrink dim=0 to=[1,64)x[0,63) (%14) : [1,64)x[0,63)
  %26 = shrink dim=0 to=[2,64)x[0,63) (%25) : [2,64)x[0,63)
  %27 = mv dim=0 dist=-1 (%26) : [1,63)x[0,63)
  %28 = shrink dim=1 to=[1,63)x[1,63) (%27) : [1,63)x[1,63)
  %29 = cmp add (%24, %28) : [1,63)x[1,63)
  %30 = mv dim=1 dist=-1 (%6) : [1,65)x[-1,63)
  %31 = shrink dim=0 to=[1,63)x[-1,63) (%30) : [1,63)x[-1,63)
  %32 = shrink dim=1 to=[1,63)x[1,63) (%31) : [1,63)x[1,63)
  %33 = cmp add (%29, %32) : [1,63)x[1,63)
  %34 = shrink dim=0 to=[0,63)x[0,64) (%2) : [0,63)x[0,64)
  %35 = shrink dim=0 to=[1,63)x[0,64) (%34) : [1,63)x[0,64)
  %36 = mv dim=1 dist=-1 (%35) : [1,63)x[-1,63)
  %37 = shrink dim=1 to=[1,63)x[1,63) (%36) : [1,63)x[1,63)
  %38 = cmp add (%33, %37) : [1,63)x[1,63)
  %39 = shrink dim=0 to=[1,63)x[0,64) (%10) : [1,63)x[0,64)
  %40 = mv dim=1 dist=-1 (%39) : [1,63)x[-1,63)
  %41 = shrink dim=1 to=[1,63)x[1,63) (%40) : [1,63)x[1,63)
  %42 = cmp add (%38, %41) : [1,63)x[1,63)
  output %42 -> array1
)";

const char *const kConv2d2048 = R"(tdfg conv2d.opt dims=2
  %0 = tensor array0 [0,2048)x[0,2048)
  %1 = const 0.125
  %2 = cmp mul (%0, %1) : [0,2048)x[0,2048)
  %3 = shrink dim=1 to=[0,2048)x[0,2046) (%2) : [0,2048)x[0,2046)
  %4 = mv dim=0 dist=1 (%0) : [1,2049)x[0,2048)
  %5 = const 0.0625
  %6 = cmp mul (%4, %5) : [1,2049)x[0,2048)
  %7 = shrink dim=1 to=[1,2049)x[0,2046) (%6) : [1,2049)x[0,2046)
  %8 = cmp add (%3, %7) : [1,2048)x[0,2046)
  %9 = mv dim=0 dist=-1 (%0) : [-1,2047)x[0,2048)
  %10 = cmp mul (%9, %5) : [-1,2047)x[0,2048)
  %11 = shrink dim=1 to=[-1,2047)x[0,2046) (%10) : [-1,2047)x[0,2046)
  %12 = cmp add (%8, %11) : [1,2047)x[0,2046)
  %13 = mv dim=1 dist=1 (%12) : [1,2047)x[1,2047)
  %14 = shrink dim=1 to=[0,2048)x[0,2047) (%2) : [0,2048)x[0,2047)
  %15 = mv dim=0 dist=1 (%14) : [1,2049)x[0,2047)
  %16 = shrink dim=0 to=[1,2047)x[0,2047) (%15) : [1,2047)x[0,2047)
  %17 = shrink dim=1 to=[1,2047)x[1,2047) (%16) : [1,2047)x[1,2047)
  %18 = cmp add (%13, %17) : [1,2047)x[1,2047)
  %19 = const 0.25
  %20 = cmp mul (%0, %19) : [0,2048)x[0,2048)
  %21 = shrink dim=0 to=[0,2047)x[0,2048) (%20) : [0,2047)x[0,2048)
  %22 = shrink dim=0 to=[1,2047)x[0,2048) (%21) : [1,2047)x[0,2048)
  %23 = shrink dim=1 to=[1,2047)x[1,2047) (%22) : [1,2047)x[1,2047)
  %24 = cmp add (%18, %23) : [1,2047)x[1,2047)
  %25 = shrink dim=0 to=[1,2048)x[0,2047) (%14) : [1,2048)x[0,2047)
  %26 = shrink dim=0 to=[2,2048)x[0,2047) (%25) : [2,2048)x[0,2047)
  %27 = mv dim=0 dist=-1 (%26) : [1,2047)x[0,2047)
  %28 = shrink dim=1 to=[1,2047)x[1,2047) (%27) : [1,2047)x[1,2047)
  %29 = cmp add (%24, %28) : [1,2047)x[1,2047)
  %30 = mv dim=1 dist=-1 (%6) : [1,2049)x[-1,2047)
  %31 = shrink dim=0 to=[1,2047)x[-1,2047) (%30) : [1,2047)x[-1,2047)
  %32 = shrink dim=1 to=[1,2047)x[1,2047) (%31) : [1,2047)x[1,2047)
  %33 = cmp add (%29, %32) : [1,2047)x[1,2047)
  %34 = shrink dim=0 to=[0,2047)x[0,2048) (%2) : [0,2047)x[0,2048)
  %35 = shrink dim=0 to=[1,2047)x[0,2048) (%34) : [1,2047)x[0,2048)
  %36 = mv dim=1 dist=-1 (%35) : [1,2047)x[-1,2047)
  %37 = shrink dim=1 to=[1,2047)x[1,2047) (%36) : [1,2047)x[1,2047)
  %38 = cmp add (%33, %37) : [1,2047)x[1,2047)
  %39 = shrink dim=0 to=[1,2047)x[0,2048) (%10) : [1,2047)x[0,2048)
  %40 = mv dim=1 dist=-1 (%39) : [1,2047)x[-1,2047)
  %41 = shrink dim=1 to=[1,2047)x[1,2047) (%40) : [1,2047)x[1,2047)
  %42 = cmp add (%38, %41) : [1,2047)x[1,2047)
  output %42 -> array1
)";

const char *const kFig20 = R"(tdfg fig20.opt dims=1
  %0 = tensor array0 [0,64)
  %1 = mv dim=0 dist=1 (%0) : [1,65)
  %2 = mv dim=0 dist=-1 (%0) : [-1,63)
  %3 = cmp add (%1, %2) : [1,63)
  %4 = const 3
  %5 = cmp mul (%3, %4) : [1,63)
  output %5 -> array1
)";

const char *const kSymStencil = R"(tdfg sym_stencil.opt dims=1
  %0 = tensor array0 [0,48)
  %1 = const 0.5
  %2 = cmp mul (%0, %1) : [0,48)
  %3 = const 0.25
  %4 = cmp mul (%0, %3) : [0,48)
  %5 = mv dim=0 dist=1 (%4) : [1,49)
  %6 = cmp add (%2, %5) : [1,48)
  %7 = mv dim=0 dist=-1 (%4) : [-1,47)
  %8 = cmp add (%6, %7) : [1,47)
  output %8 -> array1
)";

TEST(Optimizer, ExtractionIsPinned)
{
    struct Pin {
        Coord n;
        const char *dump;
        const char *cost;
    };
    for (const Pin &p : {Pin{64, kConv2d64, "7032.2376308250468"},
                         Pin{2048, kConv2d2048, "7040.2241420555156"}}) {
        // The Workload holds the compiled graph: every iteration's build
        // and a copied Workload's build hand out the same extraction.
        const Workload w = makeConv2d(p.n, p.n);
        const Workload copy = w;
        const std::pair<const char *, TdfgGraph> builds[] = {
            {"build(0)", w.phases[0].buildTdfg(0)},
            {"build(5)", w.phases[0].buildTdfg(5)},
            {"copy build(0)", copy.phases[0].buildTdfg(0)}};
        for (const auto &[what, g] : builds) {
            EXPECT_EQ(g.dump(), p.dump) << "conv2d " << p.n << " " << what;
            EXPECT_EQ(costStr(graphCost(g)), p.cost)
                << "conv2d " << p.n << " " << what;
        }
    }

    ExtractionResult fig20 = TdfgOptimizer().optimize(fig20Graph(64, 0, 1));
    EXPECT_EQ(fig20.graph.dump(), kFig20);
    EXPECT_EQ(costStr(fig20.cost), "1424.0200305175781");

    ExtractionResult sym = TdfgOptimizer().optimize(symStencilGraph(48));
    EXPECT_EQ(sym.graph.dump(), kSymStencil);
    EXPECT_EQ(costStr(sym.cost), "2784.0300228881833");
}

} // namespace
} // namespace infs
