/**
 * @file
 * PointNet++ SSG/MSG classifiers (§8 case study). Functional semantics
 * are implemented by scalar stage functions (sampling, query, gather,
 * MLP, aggregate); the timing phases carry near-memory stream forms and
 * tDFGs so the runtime's paradigm choice plays out per stage (Fig 19).
 */

#include "workloads/pointnet.hh"

#include <algorithm>
#include <cmath>

#include "workloads/common.hh"

namespace infs {

SaParams
pointNetSa(unsigned index)
{
    switch (index) {
      case 1: return {512, 32, 0.2f, {64, 64, 128}};
      case 2: return {128, 64, 0.4f, {128, 128, 256}};
      case 3: return {1, 128, 1e30f, {256, 512, 1024}};
      case 4: return {512, 16, 0.1f, {32, 32, 64}};
      case 5: return {512, 32, 0.2f, {64, 64, 128}};
      case 6: return {512, 128, 0.4f, {64, 96, 128}};
      case 7: return {128, 16, 0.2f, {64, 64, 128}};
      case 8: return {128, 32, 0.4f, {128, 128, 256}};
      case 9: return {128, 128, 0.8f, {128, 128, 256}};
      default: infs_panic("no SA%u in Table 4", index);
    }
}

namespace {

// ---------------------------------------------------------------------
// Scalar stage implementations (functional reference semantics).
// ---------------------------------------------------------------------

float
dist2(const StoredArray &coords, Coord a, Coord b)
{
    float acc = 0.0f;
    for (Coord d = 0; d < 3; ++d) {
        float diff = coords.at({d, a}) - coords.at({d, b});
        acc += diff * diff;
    }
    return acc;
}

/** Furthest-point sampling: K centroids from P points. */
void
fpsStage(ArrayStore &s, ArrayId coords_id, Coord p_count, ArrayId idx_id,
         Coord k_count)
{
    const StoredArray &coords = s.array(coords_id);
    StoredArray &idx = s.array(idx_id);
    std::vector<float> best(static_cast<std::size_t>(p_count), 1e30f);
    Coord cur = 0; // First centroid: point 0 (deterministic).
    for (Coord k = 0; k < k_count; ++k) {
        idx.data[static_cast<std::size_t>(k)] = static_cast<float>(cur);
        Coord far = 0;
        float far_d = -1.0f;
        for (Coord p = 0; p < p_count; ++p) {
            float d = dist2(coords, p, cur);
            auto &b = best[static_cast<std::size_t>(p)];
            b = std::min(b, d);
            if (b > far_d) {
                far_d = b;
                far = p;
            }
        }
        cur = far;
    }
}

/** Ball query: N neighbors within radius per centroid (first repeated). */
void
queryStage(ArrayStore &s, ArrayId coords_id, Coord p_count, ArrayId idx_id,
           Coord k_count, float radius, Coord n_count, ArrayId nbr_id)
{
    const StoredArray &coords = s.array(coords_id);
    const StoredArray &idx = s.array(idx_id);
    StoredArray &nbr = s.array(nbr_id);
    const float r2 = radius * radius;
    for (Coord k = 0; k < k_count; ++k) {
        Coord c = static_cast<Coord>(
            idx.data[static_cast<std::size_t>(k)]);
        Coord found = 0;
        Coord first = -1;
        for (Coord p = 0; p < p_count && found < n_count; ++p) {
            if (dist2(coords, p, c) <= r2) {
                if (first < 0)
                    first = p;
                nbr.data[static_cast<std::size_t>(found + n_count * k)] =
                    static_cast<float>(p);
                ++found;
            }
        }
        if (first < 0)
            first = c; // Degenerate ball: fall back to the centroid.
        for (; found < n_count; ++found)
            nbr.data[static_cast<std::size_t>(found + n_count * k)] =
                static_cast<float>(first);
    }
}

/** Gather neighbor features (coords ++ input features). */
void
gatherStage(ArrayStore &s, ArrayId coords_id, ArrayId feats_id,
            Coord feat_dim, ArrayId nbr_id, Coord total, ArrayId out_id)
{
    const StoredArray &coords = s.array(coords_id);
    const StoredArray &nbr = s.array(nbr_id);
    StoredArray &out = s.array(out_id);
    for (Coord i = 0; i < total; ++i) {
        Coord p = static_cast<Coord>(
            nbr.data[static_cast<std::size_t>(i)]);
        for (Coord d = 0; d < 3; ++d)
            out.at({d, i}) = coords.at({d, p});
        if (feat_dim > 0) {
            const StoredArray &feats = s.array(feats_id);
            for (Coord d = 0; d < feat_dim; ++d)
                out.at({3 + d, i}) = feats.at({d, p});
        }
    }
}

/** Dense layer with ReLU: out = relu(W x in). */
void
mlpStage(ArrayStore &s, ArrayId in_id, Coord din, ArrayId w_id, Coord dout,
         Coord total, ArrayId out_id)
{
    const StoredArray &in = s.array(in_id);
    const StoredArray &wt = s.array(w_id);
    StoredArray &out = s.array(out_id);
    for (Coord i = 0; i < total; ++i)
        for (Coord o = 0; o < dout; ++o) {
            float acc = 0.0f;
            for (Coord d = 0; d < din; ++d)
                acc += wt.at({o, d}) * in.at({d, i});
            out.at({o, i}) = std::max(acc, 0.0f);
        }
}

/** Max-aggregate neighbors per centroid. */
void
aggregateStage(ArrayStore &s, ArrayId in_id, Coord dout, Coord n_count,
               Coord k_count, ArrayId out_id)
{
    const StoredArray &in = s.array(in_id);
    StoredArray &out = s.array(out_id);
    for (Coord k = 0; k < k_count; ++k)
        for (Coord o = 0; o < dout; ++o) {
            float m = -1e30f;
            for (Coord n = 0; n < n_count; ++n)
                m = std::max(m, in.at({o, n + n_count * k}));
            out.at({o, k}) = m;
        }
}

/** Centroid coordinates gathered out for the next SA. */
void
centroidCoords(ArrayStore &s, ArrayId coords_id, ArrayId idx_id,
               Coord k_count, ArrayId out_id)
{
    const StoredArray &coords = s.array(coords_id);
    const StoredArray &idx = s.array(idx_id);
    StoredArray &out = s.array(out_id);
    for (Coord k = 0; k < k_count; ++k) {
        Coord p = static_cast<Coord>(
            idx.data[static_cast<std::size_t>(k)]);
        for (Coord d = 0; d < 3; ++d)
            out.at({d, k}) = coords.at({d, p});
    }
}

// ---------------------------------------------------------------------
// Workload assembly.
// ---------------------------------------------------------------------

/** Deferred array declarations so ids match planning order. */
struct ArrayPlan {
    std::string name;
    std::vector<Coord> shape;
    int fillSeed = -1; ///< >= 0: random-fill with this seed.
};

struct Builder {
    std::vector<ArrayPlan> arrays;
    Workload w;

    ArrayId
    declare(std::string name, std::vector<Coord> shape, int seed = -1)
    {
        arrays.push_back({std::move(name), std::move(shape), seed});
        return static_cast<ArrayId>(arrays.size() - 1);
    }

    /** Timing phase for an MLP layer (outer-product dataflow). */
    Phase
    mlpPhase(std::string name, ArrayId in, Coord din, ArrayId wt,
             Coord dout, Coord total, ArrayId out)
    {
        Phase p;
        p.name = std::move(name);
        p.iterations = static_cast<std::uint64_t>(din);
        p.sameTdfgEachIter = true;
        p.buildTdfg = [=](std::uint64_t iter) {
            TdfgGraph g(2, "mlp_layer");
            // mm's rank-1 round: m = total, n = dout, k = din.
            auto [in_bc, w_bc] = wl::rank1Operands(
                g, in, wt, total, dout, static_cast<Coord>(iter));
            NodeId acc = g.tensor(out, HyperRect::box2(0, dout, 0, total));
            NodeId mac = g.compute(
                BitOp::Add, {acc, g.compute(BitOp::Mul, {in_bc, w_bc})});
            g.output(mac, out);
            return g;
        };
        p.functionalFallback = [=](ArrayStore &s, std::uint64_t iter) {
            // Functional form runs the whole layer once on the last
            // iteration (scalar, with ReLU).
            if (iter + 1 == static_cast<std::uint64_t>(din))
                mlpStage(s, in, din, wt, dout, total, out);
        };
        NearStream si, so;
        si.pattern = AccessPattern::linear(in, 0, total);
        si.forwardTo = 1;
        so.pattern = AccessPattern::linear(out, 0, Coord(dout) * total);
        so.isStore = true;
        so.flopsPerElem = 2;
        p.streams = {si, so};
        p.coreFlopsPerIter = static_cast<std::uint64_t>(2) * dout * total;
        p.coreBytesPerIter = wl::fp32Bytes(
            total + dout + Coord(dout) * total / std::max<Coord>(din, 1));
        // MLP layers have L2-resident weights and good locality; the
        // OpenMP overhead is amortized across the whole layer.
        p.baseSyncPerIter = 100;
        return p;
    }

    /** Append one SA stage; returns {coords, feats, featDim} outputs. */
    std::tuple<ArrayId, ArrayId, Coord>
    addSa(const std::string &label, const SaParams &sa, ArrayId coords,
          ArrayId feats, Coord feat_dim, Coord p_count)
    {
        const Coord total = sa.K * sa.N;
        const Coord din0 = 3 + feat_dim;
        ArrayId idx = declare(label + ".idx", {sa.K});
        ArrayId nbr = declare(label + ".nbr", {total});
        ArrayId grouped = declare(label + ".grouped", {din0, total});
        ArrayId w1 = declare(label + ".w1", {sa.dims[0], din0}, 101);
        ArrayId l1 = declare(label + ".l1", {sa.dims[0], total});
        ArrayId w2 = declare(label + ".w2", {sa.dims[1], sa.dims[0]}, 102);
        ArrayId l2 = declare(label + ".l2", {sa.dims[1], total});
        ArrayId w3 = declare(label + ".w3", {sa.dims[2], sa.dims[1]}, 103);
        ArrayId l3 = declare(label + ".l3", {sa.dims[2], total});
        ArrayId out_feats =
            declare(label + ".out", {sa.dims[2], sa.K});
        ArrayId out_coords = declare(label + ".coords", {3, sa.K});

        // --- Furthest sample: iterative, near-memory friendly (§8).
        Phase sample;
        sample.name = label + ".sample";
        sample.iterations = static_cast<std::uint64_t>(sa.K);
        sample.functionalFallback = [=](ArrayStore &s, std::uint64_t it) {
            if (it == 0)
                fpsStage(s, coords, p_count, idx, sa.K);
        };
        NearStream scan;
        scan.pattern = AccessPattern::linear(coords, 0, 3 * p_count);
        scan.isReduce = true;
        scan.flopsPerElem = 3;
        sample.streams = {scan};
        sample.coreFlopsPerIter = static_cast<std::uint64_t>(8) * p_count;
        sample.coreBytesPerIter = wl::fp32Bytes(4 * p_count);
        w.phases.push_back(std::move(sample));

        // --- Ball query.
        Phase query;
        query.name = label + ".query";
        query.functionalFallback = [=](ArrayStore &s, std::uint64_t) {
            queryStage(s, coords, p_count, idx, sa.K, sa.radius, sa.N,
                       nbr);
            centroidCoords(s, coords, idx, sa.K, out_coords);
        };
        NearStream qscan;
        qscan.pattern = AccessPattern::linear(coords, 0, 3 * p_count);
        qscan.isReduce = true;
        qscan.flopsPerElem = static_cast<unsigned>(
            std::max<Coord>(sa.K / 8, 1));
        query.streams = {qscan};
        query.coreFlopsPerIter =
            static_cast<std::uint64_t>(8) * sa.K * p_count;
        query.coreBytesPerIter = wl::fp32Bytes(4 * p_count) * sa.K / 8;
        w.phases.push_back(std::move(query));

        // --- Gather (indirect).
        Phase gather;
        gather.name = label + ".gather";
        gather.functionalFallback = [=](ArrayStore &s, std::uint64_t) {
            gatherStage(s, coords, feats, feat_dim, nbr, total, grouped);
        };
        NearStream gi, gr;
        gi.pattern = AccessPattern::linear(nbr, 0, total);
        gi.forwardTo = 1;
        gr.pattern = AccessPattern::gather(grouped, nbr, total);
        gather.streams = {gi, gr};
        gather.coreFlopsPerIter = 0;
        gather.coreBytesPerIter = wl::fp32Bytes(Coord(din0) * total);
        w.phases.push_back(std::move(gather));

        // --- 3-layer MLP.
        w.phases.push_back(mlpPhase(label + ".mlp1", grouped, din0, w1,
                                    sa.dims[0], total, l1));
        w.phases.push_back(mlpPhase(label + ".mlp2", l1, sa.dims[0], w2,
                                    sa.dims[1], total, l2));
        w.phases.push_back(mlpPhase(label + ".mlp3", l2, sa.dims[1], w3,
                                    sa.dims[2], total, l3));

        // --- Aggregate: in-memory max reduction over the neighbors.
        Phase agg;
        agg.name = label + ".aggregate";
        agg.latticeShape = {sa.dims[2], sa.N, sa.K};
        agg.buildTdfg = [=](std::uint64_t) {
            TdfgGraph g(3, "aggregate");
            // Lattice {dout, N, K}; l3 is addressed as such by the LOT.
            NodeId t = g.tensor(
                l3, HyperRect::box3(0, sa.dims[2], 0, sa.N, 0, sa.K));
            g.output(g.reduce(t, BitOp::Max, 1), out_feats);
            return g;
        };
        agg.functionalFallback = [=](ArrayStore &s, std::uint64_t) {
            aggregateStage(s, l3, sa.dims[2], sa.N, sa.K, out_feats);
        };
        NearStream ared;
        ared.pattern =
            AccessPattern::linear(l3, 0, Coord(sa.dims[2]) * total);
        ared.isReduce = true;
        ared.flopsPerElem = 1;
        agg.streams = {ared};
        agg.coreFlopsPerIter =
            static_cast<std::uint64_t>(sa.dims[2]) * total;
        agg.coreBytesPerIter = wl::fp32Bytes(Coord(sa.dims[2]) * total);
        w.phases.push_back(std::move(agg));

        return {out_coords, out_feats, sa.dims[2]};
    }

    /** The final FC x 3 classification head (widths 512, 256, 10). */
    void
    addFc(ArrayId feats, Coord feat_dim)
    {
        Coord widths[3] = {512, 256, 10};
        ArrayId in = feats;
        Coord din = feat_dim;
        for (int l = 0; l < 3; ++l) {
            ArrayId wt = declare("fc" + std::to_string(l + 1) + ".w",
                                 {widths[l], din}, 110 + l);
            ArrayId out = declare("fc" + std::to_string(l + 1) + ".out",
                                  {widths[l], 1});
            w.phases.push_back(mlpPhase("FC" + std::to_string(l + 1), in,
                                        din, wt, widths[l], 1, out));
            in = out;
            din = widths[l];
        }
    }

    Workload
    finish(Coord points)
    {
        std::vector<ArrayPlan> plans = arrays;
        w.setup = [plans, points](ArrayStore &s) {
            for (const ArrayPlan &p : plans) {
                ArrayId id = s.declare(p.name, p.shape);
                if (p.fillSeed >= 0)
                    wl::randomFill(s, id, -0.5f, 0.5f,
                                   static_cast<std::uint64_t>(p.fillSeed));
            }
            // Input cloud: uniform random in [0, 1) (§8).
            wl::randomFill(s, 0, 0.0f, 1.0f, 99);
            // Clamp into [0,1) exactly.
            for (float &v : s.array(0).data)
                v = std::min(std::max(v + 0.5f, 0.0f), 0.999f);
        };
        // Footprint: all arrays.
        Bytes bytes = 0;
        for (const ArrayPlan &p : plans) {
            std::int64_t n = 1;
            for (Coord d : p.shape)
                n *= d;
            bytes += wl::fp32Bytes(n);
        }
        w.footprintBytes = bytes;
        w.dirtyBytes = bytes / 4;
        w.primaryShape = {pointNetSa(1).dims[2],
                          points}; // Largest MLP activation lattice.
        return std::move(w);
    }
};

} // namespace

Workload
makePointNetSSG(Coord points)
{
    Builder b;
    b.w.name = "pointnet_ssg";
    ArrayId cloud = b.declare("cloud", {3, points});
    (void)cloud;
    auto [c1, f1, d1] = b.addSa("SA1", pointNetSa(1), 0, invalidArray, 0,
                                points);
    auto [c2, f2, d2] =
        b.addSa("SA2", pointNetSa(2), c1, f1, d1, pointNetSa(1).K);
    auto [c3, f3, d3] =
        b.addSa("SA3", pointNetSa(3), c2, f2, d2, pointNetSa(2).K);
    (void)c3;
    b.addFc(f3, d3);
    return b.finish(points);
}

Workload
makePointNetMSG(Coord points)
{
    Builder b;
    b.w.name = "pointnet_msg";
    b.declare("cloud", {3, points});
    // First MSG group: SA4, SA5, SA6 share the input cloud.
    std::vector<std::tuple<ArrayId, ArrayId, Coord>> g1;
    for (unsigned i : {4u, 5u, 6u})
        g1.push_back(b.addSa("MSG1.SA" + std::to_string(i),
                             pointNetSa(i), 0, invalidArray, 0, points));
    // Concatenated features feed the second group; model with the widest
    // member (feature concatenation is a layout no-op in the store).
    auto [c_a, f_a, d_a] = g1[1];
    Coord concat1 = 0;
    for (auto &[c, f, d] : g1)
        concat1 += d;
    (void)d_a;
    std::vector<std::tuple<ArrayId, ArrayId, Coord>> g2;
    for (unsigned i : {7u, 8u, 9u})
        g2.push_back(b.addSa("MSG2.SA" + std::to_string(i),
                             pointNetSa(i), c_a, f_a,
                             std::get<2>(g1[1]), pointNetSa(4).K));
    auto [c_b, f_b, d_b] = g2[1];
    auto [c3, f3, d3] =
        b.addSa("SA3", pointNetSa(3), c_b, f_b, d_b, pointNetSa(7).K);
    (void)c3;
    (void)concat1;
    b.addFc(f3, d3);
    return b.finish(points);
}

} // namespace infs
