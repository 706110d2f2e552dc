/**
 * @file
 * Convolutions: conv2d (3x3 single channel, Fig 6's running example) and
 * conv3d (multi-channel 3x3 with channel contraction, Table 3).
 */

#include <memory>

#include "egraph/egraph.hh"
#include "tdfg/interp.hh"
#include "workloads/common.hh"
#include "workloads/workloads.hh"

namespace infs {

namespace {

/** The paper's Fig 6 symmetric kernel: corners C0, edges C1, center C2. */
constexpr float kC0 = 0.0625f;
constexpr float kC1 = 0.125f;
constexpr float kC2 = 0.25f;

float
conv2dWeight(Coord di, Coord dj)
{
    int taps = (di != 0) + (dj != 0);
    return taps == 2 ? kC0 : taps == 1 ? kC1 : kC2;
}

/** Fig 6's 3x3 tDFG after the e-graph optimizer, or before it when the
 * optimizer rejects its extraction. */
TdfgGraph
compileConv2d(Coord n0, Coord n1)
{
    TdfgGraph g(2, "conv2d");
    HyperRect inner = HyperRect::box2(1, n0 - 1, 1, n1 - 1);
    // Accumulate term by term: registers free at each fold (§6).
    NodeId acc = invalidNode;
    for (Coord dj = -1; dj <= 1; ++dj) {
        for (Coord di = -1; di <= 1; ++di) {
            NodeId t = g.tensor(0, inner.shifted(0, di).shifted(1, dj));
            NodeId aligned = t;
            if (di != 0)
                aligned = g.move(aligned, 0, -di);
            if (dj != 0)
                aligned = g.move(aligned, 1, -dj);
            NodeId term = g.compute(
                BitOp::Mul, {aligned, g.constant(conv2dWeight(di, dj))});
            acc = acc == invalidNode ? term
                                     : g.compute(BitOp::Add, {acc, term});
        }
    }
    g.output(acc, 1);
    Expected<ExtractionResult> res = TdfgOptimizer().tryOptimize(g);
    if (!res) {
        infs_warn("conv2d: optimizer rejected (%s); using the "
                  "unoptimized graph", res.error().str().c_str());
        return g;
    }
    return std::move(res->graph);
}

} // namespace

Workload
makeConv2d(Coord n0, Coord n1)
{
    std::int64_t elems = static_cast<std::int64_t>(n0) * n1;
    Workload w;
    w.name = "conv2d";
    w.primaryShape = {n0, n1};
    w.footprintBytes = wl::fp32Bytes(2 * elems);
    w.dirtyBytes = wl::fp32Bytes(elems);

    w.setup = [n0, n1](ArrayStore &s) {
        ArrayId a = s.declare("A", {n0, n1});
        s.declare("B", {n0, n1});
        wl::randomFill(s, a, -1, 1, 31);
    };

    // Static compile (§3.2/Fig 6): the e-graph optimizer shares the
    // symmetric-weight multiplies across taps. It runs once per Workload
    // made, every build hands out a copy, and copies of the Workload share
    // the compiled graph. Optimization is an attempt: a rejected
    // extraction warns once and keeps the unoptimized graph.
    auto graph = std::make_shared<const TdfgGraph>(compileConv2d(n0, n1));
    Phase p;
    p.name = "conv";
    p.buildTdfg = [graph](std::uint64_t) { return *graph; };
    NearStream ld, st;
    ld.pattern = AccessPattern::linear(0, 0, elems);
    ld.forwardTo = 1;
    st.pattern = AccessPattern::linear(1, 0, elems);
    st.isStore = true;
    st.flopsPerElem = 17;
    p.streams = {ld, st};
    p.coreFlopsPerIter = static_cast<std::uint64_t>(elems) * 17;
    p.coreBytesPerIter = wl::fp32Bytes(2 * elems);
    w.phases.push_back(std::move(p));

    w.reference = [n0, n1](ArrayStore &s) {
        for (Coord j = 1; j < n1 - 1; ++j)
            for (Coord i = 1; i < n0 - 1; ++i) {
                float acc = 0.0f;
                for (Coord dj = -1; dj <= 1; ++dj)
                    for (Coord di = -1; di <= 1; ++di)
                        acc += conv2dWeight(di, dj) *
                               s.array(0).at({i + di, j + dj});
                s.array(1).at({i, j}) = acc;
            }
    };
    return w;
}

Workload
makeConv3d(Coord width, Coord height, Coord ci, Coord co)
{
    std::int64_t spatial = static_cast<std::int64_t>(width) * height;
    std::int64_t in_elems = spatial * ci;
    Workload w;
    w.name = "conv3d";
    w.primaryShape = {width, height, ci};
    w.footprintBytes =
        wl::fp32Bytes(in_elems + spatial * co + 9 * ci * co);
    w.dirtyBytes = wl::fp32Bytes(spatial * co);

    w.setup = [=](ArrayStore &s) {
        ArrayId in = s.declare("In", {width, height, ci});
        ArrayId wts = s.declare("W", {9 * ci, co});
        s.declare("Out", {width, height, co});
        s.declare("WSlice", {1, 1, 9 * ci});
        s.declare("OSlice", {width, height, 1});
        wl::randomFill(s, in, -1, 1, 41);
        wl::randomFill(s, wts, -0.2f, 0.2f, 42);
    };

    // Weight addressing: W[(offset * ci + c), o] with offset = the 3x3
    // tap index. The functional builder reads weights through constant
    // nodes is impossible (values are runtime data), so weights are
    // injected per (tap, channel) via broadcast of 1x1x1 weight tensors
    // — too many nodes at full scale. Instead, conv3d iterates output
    // channels with per-o graphs using weight *tensors* broadcast along
    // the spatial dims through a staging array.
    //
    // Simpler, faithful structure (BC + Elem + channel Reduce): for each
    // output channel o, out_o = reduce_c sum_taps w(tap, c, o) *
    // shift(in, tap). Weights for one o form a {1, 1, 9*ci} tensor; per
    // tap we slice {1, 1, ci} and broadcast over the spatial dims.
    // The staging array WSlice (id 3) is written by setup per (o) —
    // functional runs at small sizes lay it out directly from W.
    Phase p;
    p.name = "conv_oc";
    p.iterations = static_cast<std::uint64_t>(co);
    p.sameTdfgEachIter = true; // Same command structure every o.
    p.buildTdfg = [=](std::uint64_t o) {
        (void)o;
        TdfgGraph g(3, "conv3d_oc");
        HyperRect inner = HyperRect::box3(1, width - 1, 1, height - 1, 0,
                                          ci);
        // Accumulate taps pairwise (register pressure, §6).
        NodeId acc = invalidNode;
        unsigned tap = 0;
        for (Coord dj = -1; dj <= 1; ++dj) {
            for (Coord di = -1; di <= 1; ++di, ++tap) {
                NodeId t = g.tensor(
                    0, inner.shifted(0, di).shifted(1, dj));
                NodeId aligned = t;
                if (di != 0)
                    aligned = g.move(aligned, 0, -di);
                if (dj != 0)
                    aligned = g.move(aligned, 1, -dj);
                // Per-channel weights for this tap staged in WSlice (id
                // 3) shaped {1, 1, 9*ci}: slice [tap*ci, (tap+1)*ci).
                NodeId ws = g.tensor(
                    3, HyperRect::box3(0, 1, 0, 1, tap * ci,
                                       (tap + 1) * ci));
                NodeId ws_at0 = g.move(ws, 2, -Coord(tap) * ci);
                NodeId ws_bc = g.broadcast(
                    g.broadcast(ws_at0, 0, 1, width - 2), 1, 1,
                    height - 2);
                NodeId term = g.compute(BitOp::Mul, {aligned, ws_bc});
                acc = acc == invalidNode
                          ? term
                          : g.compute(BitOp::Add, {acc, term});
            }
        }
        NodeId out_c = g.reduce(acc, BitOp::Add, 2);
        g.output(out_c, 4); // OSlice {w, h, 1}.
        return g;
    };
    // Functional mode: stage W[:, o] into WSlice, run the per-o tDFG,
    // then scatter OSlice into Out[:, :, o]. The staging corresponds to
    // the weight-broadcast streams the hardware would run.
    auto build = p.buildTdfg;
    p.functionalFallback = [=](ArrayStore &s, std::uint64_t o) {
        for (Coord t = 0; t < 9 * ci; ++t)
            s.array(3).at({0, 0, t}) =
                s.array(1).at({t, static_cast<Coord>(o)});
        TdfgGraph g = build(o);
        TdfgInterpreter interp(s);
        interp.run(g);
        for (Coord j = 0; j < height; ++j)
            for (Coord i = 0; i < width; ++i)
                s.array(2).at({i, j, static_cast<Coord>(o)}) =
                    s.array(4).at({i, j, 0});
    };
    NearStream ld, st;
    ld.pattern = AccessPattern::linear(0, 0, in_elems);
    ld.forwardTo = 1;
    st.pattern = AccessPattern::linear(2, 0, spatial);
    st.isStore = true;
    st.flopsPerElem = static_cast<unsigned>(2 * 9 * ci);
    p.streams = {ld, st};
    p.coreFlopsPerIter =
        static_cast<std::uint64_t>(spatial) * 2 * 9 * ci;
    // The 16 MB multi-channel input exceeds the private caches, so the
    // core re-streams it for every output channel.
    p.coreBytesPerIter = wl::fp32Bytes(in_elems + spatial);
    w.phases.push_back(std::move(p));

    w.reference = [=](ArrayStore &s) {
        for (Coord o = 0; o < co; ++o)
            for (Coord j = 1; j < height - 1; ++j)
                for (Coord i = 1; i < width - 1; ++i) {
                    float acc = 0.0f;
                    unsigned tap = 0;
                    for (Coord dj = -1; dj <= 1; ++dj)
                        for (Coord di = -1; di <= 1; ++di, ++tap)
                            for (Coord c = 0; c < ci; ++c)
                                acc += s.array(0).at(
                                           {i + di, j + dj, c}) *
                                       s.array(1).at(
                                           {Coord(tap) * ci + c, o});
                    s.array(2).at({i, j, o}) = acc;
                }
    };
    return w;
}

} // namespace infs
