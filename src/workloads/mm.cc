/**
 * @file
 * Dense GEMM (Fig 8): the outer-product dataflow broadcasts one column of
 * A and one row of B across the whole C every k round (BC + Elem); the
 * inner-product dataflow reduces along K (BC + Reduce). §8's Fig 15
 * compares both on every paradigm.
 *
 * Lattice: dim 0 = n (C columns, innermost), dim 1 = m (C rows).
 * Storage: A {K, M} (dim 0 = k), B {N, K} (dim 0 = n), C {N, M}.
 *
 * The two rounds' operand builders and the whole GEMM phase live here
 * once (declared in workloads/common.hh); kmeans, gather_mlp and the
 * PointNet++ MLP layers build their rounds from them.
 */

#include "workloads/common.hh"
#include "workloads/workloads.hh"

namespace infs {

namespace wl {

std::pair<NodeId, NodeId>
rank1Operands(TdfgGraph &g, ArrayId a, ArrayId b, Coord m, Coord n,
              Coord kk, std::string a_name, std::string b_name)
{
    // A[:, kk] lives at lattice column kk of array A; align to column 0
    // then broadcast across all n columns. B[kk, :] likewise along rows.
    NodeId acol = g.tensor(a, HyperRect::box2(kk, kk + 1, 0, m),
                           std::move(a_name));
    NodeId a_bc = g.broadcast(g.move(acol, 0, -kk), 0, 0, n);
    NodeId brow = g.tensor(b, HyperRect::box2(0, n, kk, kk + 1),
                           std::move(b_name));
    NodeId b_bc = g.broadcast(g.move(brow, 1, -kk), 1, 0, m);
    return {a_bc, b_bc};
}

std::pair<NodeId, NodeId>
dotOperands(TdfgGraph &g, ArrayId a, ArrayId b, Coord m, Coord n,
            Coord k, Coord j, std::string a_name, std::string b_name)
{
    NodeId at = g.tensor(a, HyperRect::box2(0, k, 0, m), std::move(a_name));
    // B[j, :] is a {1, K} strip of B; the stream-to-tensor load (§3.3)
    // restages it as a {K, 1} column aligned with A's k dimension.
    NodeId bcol = g.stream(StreamRole::Load,
                           AccessPattern::affine2(b, j, 1, n, k),
                           invalidNode, HyperRect::box2(0, k, 0, 1),
                           std::move(b_name));
    return {at, g.broadcast(bcol, 1, 0, m)};
}

Phase
gemmPhase(Coord m, Coord n, Coord k, bool outer, ArrayId a, ArrayId b,
          ArrayId c)
{
    Phase p;
    if (outer) {
        // One rank-1 update per k round (Fig 8 right).
        p.name = "rank1";
        p.iterations = static_cast<std::uint64_t>(k);
        p.sameTdfgEachIter = true; // Same commands, different source row.
        p.buildTdfg = [=](std::uint64_t iter) {
            TdfgGraph g(2, "mm_outer");
            auto [a_bc, b_bc] = rank1Operands(
                g, a, b, m, n, static_cast<Coord>(iter), "Amk", "Bkn");
            NodeId c_in = g.tensor(c, HyperRect::box2(0, n, 0, m), "C");
            NodeId prod = g.compute(BitOp::Mul, {a_bc, b_bc});
            g.output(g.compute(BitOp::Add, {c_in, prod}), c);
            return g;
        };
    } else {
        // Inner product: one output column per round, reducing over K.
        // Lattice for the reduction: dim 0 = k, dim 1 = m.
        p.name = "dotcol";
        p.iterations = static_cast<std::uint64_t>(n);
        p.sameTdfgEachIter = true;
        p.buildTdfg = [=](std::uint64_t iter) {
            const Coord j = static_cast<Coord>(iter);
            TdfgGraph g(2, "mm_inner");
            auto [at, b_bc] = dotOperands(g, a, b, m, n, k, j, "A",
                                          "Bj_col");
            NodeId prod = g.compute(BitOp::Mul, {at, b_bc});
            NodeId dots = g.reduce(prod, BitOp::Add, 0, "dot");
            // Store the column of results C[j, :] through a stream.
            g.stream(StreamRole::Store,
                     AccessPattern::affine2(c, j, 1, n, m), dots,
                     HyperRect::box2(0, 1, 0, m), "Cj");
            return g;
        };
        NearStream fin;
        fin.pattern = AccessPattern::linear(c, 0, m);
        fin.isReduce = true;
        fin.flopsPerElem = 1;
        p.residualStreams = {fin};
        p.residualFlopsPerIter = static_cast<std::uint64_t>(m);
        p.residualBytesPerIter = fp32Bytes(m);
    }

    // Near-memory streams (one k round of the outer form).
    NearStream sa, sb, sc;
    sa.pattern = AccessPattern::linear(a, 0, m);
    sa.forwardTo = 2;
    sb.pattern = AccessPattern::linear(b, 0, n);
    sb.forwardTo = 2;
    sc.pattern = AccessPattern::linear(c, 0, Coord(n) * m);
    sc.isStore = true;
    sc.flopsPerElem = 2;
    p.streams = {sa, sb, sc};
    p.coreFlopsPerIter = outer ? static_cast<std::uint64_t>(2) * n * m
                               : static_cast<std::uint64_t>(2) * k * m;
    // In-core memory behaviour differs per dataflow (Fig 15): the tiled
    // inner product accumulates in registers and reuses blocks in private
    // caches (C streamed once over all rounds), while the outer product
    // re-streams the whole C every rank-1 round.
    p.coreBytesPerIter =
        outer ? fp32Bytes(m + n + 2 * Coord(n) * m)
              : fp32Bytes(m + n + (Coord(n) * m) / std::max<Coord>(k, 1));
    return p;
}

} // namespace wl

Workload
makeMm(Coord m, Coord n, Coord k, bool outer)
{
    Workload w;
    w.name = outer ? "mm/out" : "mm/in";
    w.primaryShape = {n, m};
    w.footprintBytes = wl::fp32Bytes(Coord(m) * k + Coord(n) * k +
                                     Coord(n) * m);
    w.dirtyBytes = wl::fp32Bytes(Coord(n) * m);

    w.setup = [=](ArrayStore &s) {
        ArrayId a = s.declare("A", {k, m});
        ArrayId b = s.declare("B", {n, k});
        s.declare("C", {n, m});
        wl::randomFill(s, a, -1, 1, 51);
        wl::randomFill(s, b, -1, 1, 52);
    };
    w.reference = [=](ArrayStore &s) {
        for (Coord i = 0; i < m; ++i)
            for (Coord j = 0; j < n; ++j) {
                float acc = 0.0f;
                for (Coord kk = 0; kk < k; ++kk)
                    acc += s.array(0).at({kk, i}) * s.array(1).at({j, kk});
                s.array(2).at({j, i}) = acc;
            }
    };
    w.phases.push_back(wl::gemmPhase(m, n, k, outer, 0, 1, 2));
    return w;
}

} // namespace infs
