/**
 * @file
 * gather_mlp: an indirect gather of feature rows (near-memory) feeding a
 * dense layer (in-memory), the paper's canonical hybrid workload. The
 * dense layer uses the same inner/outer dataflow choice as mm (Fig 15).
 *
 * Arrays: Table=0 {k, rows}, Idx=1 {m}, W=2 {n, k}, G=3 {k, m},
 * Out=4 {n, m}.
 */

#include "workloads/common.hh"
#include "workloads/workloads.hh"

namespace infs {

Workload
makeGatherMlp(Coord m, Coord n, Coord k, Coord rows, bool outer)
{
    Workload w;
    w.name = outer ? "gather_mlp/out" : "gather_mlp/in";
    w.primaryShape = {n, m};
    w.footprintBytes = wl::fp32Bytes(Coord(k) * rows + m + Coord(n) * k +
                                     Coord(k) * m + Coord(n) * m);
    w.dirtyBytes = wl::fp32Bytes(Coord(n) * m);

    w.setup = [=](ArrayStore &s) {
        ArrayId table = s.declare("Table", {k, rows});
        ArrayId idx = s.declare("Idx", {m});
        ArrayId wt = s.declare("W", {n, k});
        s.declare("G", {k, m});
        s.declare("Out", {n, m});
        wl::randomFill(s, table, -1, 1, 71);
        wl::randomFill(s, wt, -0.5, 0.5, 72);
        Rng rng(73);
        for (Coord i = 0; i < m; ++i)
            s.array(idx).data[static_cast<std::size_t>(i)] =
                static_cast<float>(rng.nextBounded(
                    static_cast<std::uint64_t>(rows)));
    };
    w.reference = [=](ArrayStore &s) {
        for (Coord i = 0; i < m; ++i) {
            Coord row = static_cast<Coord>(
                s.array(1).data[static_cast<std::size_t>(i)]);
            for (Coord d = 0; d < k; ++d)
                s.array(3).at({d, i}) = s.array(0).at({d, row});
        }
        for (Coord i = 0; i < m; ++i)
            for (Coord j = 0; j < n; ++j) {
                float acc = 0.0f;
                for (Coord d = 0; d < k; ++d)
                    acc += s.array(3).at({d, i}) * s.array(2).at({j, d});
                s.array(4).at({j, i}) = acc;
            }
    };

    // Phase 1: the indirect gather. Irregular: near-memory under NearL3
    // and InfS, core otherwise (§3.3 "a stream performs an indirect
    // access and lays out the data in a tensor format").
    Phase gather;
    gather.name = "gather";
    gather.functionalFallback = [=](ArrayStore &s, std::uint64_t) {
        for (Coord i = 0; i < m; ++i) {
            Coord row = static_cast<Coord>(
                s.array(1).data[static_cast<std::size_t>(i)]);
            for (Coord d = 0; d < k; ++d)
                s.array(3).at({d, i}) = s.array(0).at({d, row});
        }
    };
    NearStream gidx, grow;
    gidx.pattern = AccessPattern::linear(1, 0, m);
    gidx.forwardTo = 1;
    grow.pattern = AccessPattern::gather(0, 1, m);
    grow.isStore = false;
    grow.forwardTo = -1;
    gather.streams = {gidx, grow};
    gather.coreFlopsPerIter = 0;
    gather.coreBytesPerIter = wl::fp32Bytes(Coord(k) * m + m);
    w.phases.push_back(std::move(gather));

    // Phase 2: the dense layer Out = W x G: mm's phase with the gathered
    // matrix as the K-side input, {A, B, C} = {G=3, W=2, Out=4}.
    Phase layer = wl::gemmPhase(m, n, k, outer, 3, 2, 4);
    layer.name = outer ? "layer_rank1" : "layer_dotcol";
    w.phases.push_back(std::move(layer));
    return w;
}

} // namespace infs
