/**
 * @file
 * One Lloyd iteration of k-means (§3.3's hybrid example): in-memory
 * distance computation and assignment, near-memory indirect centroid
 * accumulation. The outer dataflow accumulates squared differences one
 * feature dimension at a time over the {centers, points} lattice
 * (BC + Elem); the inner dataflow reduces along the feature dimension
 * per center (BC + Reduce).
 *
 * Arrays: X=0 {dim, points}, C=1 {centers, dim}, Dist=2 {centers,
 * points}, Assign=3 {points}, NewC=4 {centers, dim}.
 */

#include <cmath>

#include "workloads/common.hh"
#include "workloads/workloads.hh"

namespace infs {

namespace {

/** Scalar assignment + accumulation shared by reference and fallback. */
void
assignAndUpdate(ArrayStore &s, Coord points, Coord dim, Coord centers)
{
    StoredArray &dist = s.array(2);
    StoredArray &assign = s.array(3);
    StoredArray &newc = s.array(4);
    std::vector<float> count(static_cast<std::size_t>(centers), 0.0f);
    for (auto &v : newc.data)
        v = 0.0f;
    for (Coord p = 0; p < points; ++p) {
        Coord best = 0;
        for (Coord c = 1; c < centers; ++c)
            if (dist.at({c, p}) < dist.at({best, p}))
                best = c;
        assign.data[static_cast<std::size_t>(p)] =
            static_cast<float>(best);
        count[static_cast<std::size_t>(best)] += 1.0f;
        for (Coord d = 0; d < dim; ++d)
            newc.at({best, d}) += s.array(0).at({d, p});
    }
    for (Coord c = 0; c < centers; ++c) {
        float k = std::max(count[static_cast<std::size_t>(c)], 1.0f);
        for (Coord d = 0; d < dim; ++d)
            newc.at({c, d}) /= k;
    }
}

} // namespace

Workload
makeKmeans(Coord points, Coord dim, Coord centers, bool outer)
{
    Workload w;
    w.name = outer ? "kmeans/out" : "kmeans/in";
    w.primaryShape = {centers, points};
    w.footprintBytes = wl::fp32Bytes(
        Coord(dim) * points + Coord(centers) * dim +
        Coord(centers) * points);
    w.dirtyBytes = wl::fp32Bytes(Coord(centers) * points);

    w.setup = [=](ArrayStore &s) {
        ArrayId x = s.declare("X", {dim, points});
        ArrayId c = s.declare("C", {centers, dim});
        s.declare("Dist", {centers, points});
        s.declare("Assign", {points});
        s.declare("NewC", {centers, dim});
        wl::randomFill(s, x, 0, 1, 61);
        wl::randomFill(s, c, 0, 1, 62);
    };
    w.reference = [=](ArrayStore &s) {
        for (Coord p = 0; p < points; ++p)
            for (Coord c = 0; c < centers; ++c) {
                float acc = 0.0f;
                for (Coord d = 0; d < dim; ++d) {
                    float diff =
                        s.array(0).at({d, p}) - s.array(1).at({c, d});
                    acc += diff * diff;
                }
                s.array(2).at({c, p}) = acc;
            }
        assignAndUpdate(s, points, dim, centers);
    };

    // Phase 1: distances.
    Phase dist;
    dist.name = "distance";
    if (outer) {
        // Accumulate (x_d - c_d)^2 over the {centers, points} lattice,
        // one feature dimension per round.
        dist.iterations = static_cast<std::uint64_t>(dim);
        dist.sameTdfgEachIter = true;
        dist.buildTdfg = [=](std::uint64_t iter) {
            TdfgGraph g(2, "kmeans_dist_out");
            // mm's rank-1 round with {A, B} = {X, C}, m = points and
            // n = centers.
            auto [x_bc, c_bc] =
                wl::rank1Operands(g, 0, 1, points, centers,
                                  static_cast<Coord>(iter), "xd", "cd");
            NodeId diff = g.compute(BitOp::Sub, {x_bc, c_bc});
            NodeId sq = g.compute(BitOp::Mul, {diff, diff});
            NodeId acc = g.tensor(2, HyperRect::box2(0, centers, 0,
                                                     points));
            g.output(g.compute(BitOp::Add, {acc, sq}), 2);
            return g;
        };
    } else {
        // One center per round: reduce the squared difference along the
        // feature dimension ({dim, points} lattice).
        dist.iterations = static_cast<std::uint64_t>(centers);
        dist.sameTdfgEachIter = true;
        dist.buildTdfg = [=](std::uint64_t iter) {
            const Coord c = static_cast<Coord>(iter);
            TdfgGraph g(2, "kmeans_dist_in");
            // mm's dot round with center c's feature vector restaged as
            // the {dim, 1} column (m = points, n = centers, k = dim).
            auto [x, c_bc] = wl::dotOperands(g, 0, 1, points, centers, dim,
                                             c, "X", "Cc");
            NodeId diff = g.compute(BitOp::Sub, {x, c_bc});
            NodeId sq = g.compute(BitOp::Mul, {diff, diff});
            NodeId dots = g.reduce(sq, BitOp::Add, 0, "dist");
            g.stream(StreamRole::Store,
                     AccessPattern::affine2(2, c, 1, centers, points),
                     dots, HyperRect::box2(0, 1, 0, points), "distc");
            return g;
        };
    }
    // Near-memory form of one round: the broadcast feature row of X is
    // forwarded per use; the 64 kB SEL3 buffer captures only part of the
    // reuse (the paper's kmeans anomaly: Near-L3 "is unable to capture
    // the reuse", costing 2.6x extra NoC traffic, §8).
    const Coord reuse_miss = std::max<Coord>(centers / 8, 1);
    NearStream sx, sd;
    sx.pattern = AccessPattern::linear(0, 0, points * reuse_miss);
    sx.forwardTo = 1;
    sd.pattern = AccessPattern::linear(
        2, 0, outer ? Coord(centers) * points : points);
    sd.isStore = true;
    // Each written element costs 3 ops per contributing feature pair:
    // the inner form folds all dim features into one output element.
    sd.flopsPerElem = static_cast<unsigned>(outer ? 3 : 3 * dim);
    dist.streams = {sx, sd};
    dist.coreFlopsPerIter =
        outer ? static_cast<std::uint64_t>(3) * centers * points
              : static_cast<std::uint64_t>(3) * dim * points;
    dist.coreBytesPerIter =
        outer ? wl::fp32Bytes(points + centers +
                              Coord(centers) * points / dim)
              : wl::fp32Bytes(Coord(dim) * points / centers + dim +
                              points);
    w.phases.push_back(std::move(dist));

    // Phase 2: argmin assignment (in-memory min-reduction over centers)
    // plus the indirect centroid accumulation, which is irregular and
    // runs near memory under Inf-S, in the core otherwise (§3.3).
    Phase update;
    update.name = "assign_update";
    update.buildTdfg = [=](std::uint64_t) {
        TdfgGraph g(2, "kmeans_argmin");
        NodeId d = g.tensor(2, HyperRect::box2(0, centers, 0, points));
        NodeId m = g.reduce(d, BitOp::Min, 0, "mindist");
        g.stream(StreamRole::Reduce,
                 AccessPattern::linear(2, 0, points), m, HyperRect{},
                 "collect", BitOp::Min);
        return g;
    };
    // The functional fallback performs the full assignment + update (the
    // argmin index extraction and scatter that the tDFG models only in
    // time).
    update.functionalFallback = [=](ArrayStore &s, std::uint64_t) {
        assignAndUpdate(s, points, dim, centers);
    };
    NearStream gather, scatter;
    gather.pattern = AccessPattern::gather(0, 3, points);
    gather.flopsPerElem = static_cast<unsigned>(dim);
    scatter.pattern = AccessPattern::gather(4, 3, points);
    scatter.isStore = true;
    scatter.flopsPerElem = static_cast<unsigned>(dim);
    update.residualStreams = {gather, scatter};
    // Near-L3 also offloads the irregular update (reuse-blind indirect
    // traffic — the paper's kmeans anomaly, §8).
    update.streams = {gather, scatter};
    update.residualFlopsPerIter =
        static_cast<std::uint64_t>(2) * dim * points;
    update.residualBytesPerIter = wl::fp32Bytes(2 * Coord(dim) * points);
    update.coreFlopsPerIter =
        static_cast<std::uint64_t>(centers) * points; // argmin compares
    update.coreBytesPerIter = wl::fp32Bytes(Coord(centers) * points);
    w.phases.push_back(std::move(update));
    return w;
}

} // namespace infs
