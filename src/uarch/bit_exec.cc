#include "uarch/bit_exec.hh"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <unordered_map>

#include "bitserial/simd.hh"
#include "sim/fault.hh"
#include "tdfg/interp.hh"

namespace infs {

BitAccurateFabric::BitAccurateFabric(TiledLayout layout, unsigned wordlines,
                                     unsigned bitlines)
    : layout_(std::move(layout)), wordlines_(wordlines), bitlines_(bitlines),
      arrayRect_(HyperRect::array(layout_.shape()))
{
    infs_assert(layout_.tileVolume() <= static_cast<std::int64_t>(bitlines),
                "tile volume %lld exceeds %u bitlines",
                static_cast<long long>(layout_.tileVolume()), bitlines);
    infs_assert(layout_.dims() <= HyperRect::kMaxRank,
                "%u-D layout exceeds the %u-D tile-mask key",
                layout_.dims(), HyperRect::kMaxRank);
    tiles_.resize(static_cast<std::size_t>(layout_.numTiles()));
}

FabricStats
BitAccurateFabric::stats() const
{
    FabricStats s;
    for (std::size_t k = 0; k < s.byKind.size(); ++k) {
        s.byKind[k].count = kindCount_[k];
        s.byKind[k].wallMs = static_cast<double>(kindNanos_[k]) / 1e6;
    }
    s.maskCacheHits = maskHits_;
    s.maskCacheMisses = maskMisses_;
    s.bankOps = bankOps_;
    for (const auto &t : tiles_)
        if (t)
            s.scratchAllocs += t->scratchAllocs();
    return s;
}

ComputeSram &
BitAccurateFabric::tile(std::int64_t t)
{
    infs_assert(t >= 0 && t < layout_.numTiles(), "tile %lld out of range",
                static_cast<long long>(t));
    auto &p = tiles_[static_cast<std::size_t>(t)];
    if (!p)
        p = std::make_unique<ComputeSram>(wordlines_, bitlines_);
    return *p;
}

std::int64_t
BitAccurateFabric::strideInTile(unsigned dim) const
{
    std::int64_t s = 1;
    for (unsigned d = 0; d < dim; ++d)
        s *= layout_.tile()[d];
    return s;
}

void
BitAccurateFabric::forEachChunk(const ChunkFn &fn) const
{
    const auto &grid = layout_.grid();
    const auto &tsz = layout_.tile();
    const unsigned nd = layout_.dims();
    const std::int64_t tvol = layout_.tileVolume();
    if (layout_.numTiles() == 0)
        return;
    std::vector<Coord> tc(nd, 0), origin(nd, 0);
    std::array<TileRun, 64> runs{};
    for (std::int64_t t = 0;; ++t) {
        for (unsigned d = 0; d < nd; ++d)
            origin[d] = tc[d] * tsz[d];
        for (std::int64_t lo = 0; lo < tvol; lo += 64) {
            std::size_t n = 0;
            layout_.forEachTileRun(origin.data(), lo,
                                   std::min<std::int64_t>(lo + 64, tvol),
                                   [&](const TileRun &r) { runs[n++] = r; });
            if (n > 0)
                fn(t, static_cast<unsigned>(lo / 64),
                   std::span<const TileRun>(runs.data(), n));
        }
        // Tile indices are linear with dim 0 fastest (TiledLayout::tileOf).
        unsigned d = 0;
        for (; d < nd; ++d) {
            if (++tc[d] < grid[d])
                break;
            tc[d] = 0;
        }
        if (d >= nd)
            break;
    }
}

void
BitAccurateFabric::loadArray(std::span<const float> data, unsigned wl)
{
    // Tile-order transpose (§5.2): each 64-bitline word of a tile gathers
    // its visible cells' dense elements into lanes, bit-transposes them
    // once into 32 packed planes and merges each plane into its wordline
    // under the visibility mask. Bitlines that hold no cell, and every
    // wordline outside [wl, wl + 32), stay untouched.
    infs_assert(static_cast<std::int64_t>(data.size()) == arrayRect_.volume(),
                "array size mismatch");
    std::array<std::uint32_t, 64> lanes{};
    std::array<std::uint64_t, 32> planes{};
    const simd::SimdKernels &k = simd::active();
    forEachChunk([&](std::int64_t t, unsigned word,
                     std::span<const TileRun> runs) {
        std::uint64_t visible = 0;
        for (const TileRun &r : runs) {
            const unsigned off = static_cast<unsigned>(r.bitline % 64);
            std::memcpy(lanes.data() + off, data.data() + r.dense,
                        static_cast<std::size_t>(r.len) * sizeof(float));
            visible |= (r.len == 64 ? ~0ULL : (1ULL << r.len) - 1) << off;
        }
        simd::lanesToPlanes(k, lanes.data(), planes.data());
        BitMatrix &bm = tile(t).bits();
        for (unsigned b = 0; b < 32; ++b)
            bm.row(wl + b).mergeWordMasked(word, planes[b], visible);
    });
}

void
BitAccurateFabric::storeArray(std::span<float> data, unsigned wl) const
{
    // Inverse of loadArray: read each 64-bitline word of the 32 planes,
    // de-transpose once, scatter the visible lanes to the dense array.
    infs_assert(static_cast<std::int64_t>(data.size()) == arrayRect_.volume(),
                "array size mismatch");
    auto *self = const_cast<BitAccurateFabric *>(this);
    std::array<std::uint32_t, 64> lanes{};
    std::array<std::uint64_t, 32> planes{};
    const simd::SimdKernels &k = simd::active();
    forEachChunk([&](std::int64_t t, unsigned word,
                     std::span<const TileRun> runs) {
        const BitMatrix &bm = self->tile(t).bits();
        for (unsigned b = 0; b < 32; ++b)
            planes[b] = bm.row(wl + b).words()[word];
        simd::planesToLanes(k, planes.data(), lanes.data());
        for (const TileRun &r : runs)
            std::memcpy(data.data() + r.dense, lanes.data() + r.bitline % 64,
                        static_cast<std::size_t>(r.len) * sizeof(float));
    });
}

float
BitAccurateFabric::element(const std::vector<Coord> &pt, unsigned wl) const
{
    auto *self = const_cast<BitAccurateFabric *>(this);
    ComputeSram &s = self->tile(layout_.tileOf(pt));
    return s.readFloat(static_cast<unsigned>(layout_.positionInTile(pt)),
                       wl);
}

std::size_t
BitAccurateFabric::MaskKeyHash::operator()(const MaskKey &k) const
{
    // FNV-1a over the key fields (unused dims are zero).
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ULL;
    };
    for (unsigned d = 0; d < HyperRect::kMaxRank; ++d)
        mix(static_cast<std::uint64_t>(k.lo[d]) << 32 |
            static_cast<std::uint32_t>(k.hi[d]));
    mix(static_cast<std::uint64_t>(k.maskLo));
    mix(static_cast<std::uint64_t>(k.maskHi));
    mix(k.dim << 1 | (k.positional ? 1u : 0u));
    return static_cast<std::size_t>(h);
}

BitAccurateFabric::MaskKey
BitAccurateFabric::maskKey(const InMemCommand &cmd, std::int64_t t,
                           bool apply_shift_mask) const
{
    // Tile indices are linear with dim 0 fastest (TiledLayout::tileOf).
    MaskKey key;
    const auto &shape = layout_.shape();
    const auto &tsz = layout_.tile();
    const auto &grid = layout_.grid();
    for (unsigned d = 0; d < layout_.dims(); ++d) {
        const Coord origin = t % grid[d] * tsz[d];
        t /= grid[d];
        const Coord lo = std::max({cmd.tensor.lo(d), origin, Coord{0}});
        const Coord hi =
            std::min({cmd.tensor.hi(d), origin + tsz[d], shape[d]});
        if (hi <= lo)
            return MaskKey{};
        key.lo[d] = static_cast<std::int32_t>(lo - origin);
        key.hi[d] = static_cast<std::int32_t>(hi - origin);
    }
    if (apply_shift_mask) {
        key.positional = true;
        key.dim = cmd.dim;
        key.maskLo = cmd.maskLo;
        key.maskHi = cmd.maskHi;
    }
    return key;
}

BitRow
BitAccurateFabric::buildTileMask(const InMemCommand &cmd, std::int64_t t,
                                 bool apply_shift_mask) const
{
    BitRow mask(bitlines_);
    // Clip to this tile's own rect so the walk is O(tile volume), not
    // O(tensor volume) — every cell visited belongs to tile t.
    HyperRect clipped =
        cmd.tensor.intersect(arrayRect_).intersect(layout_.tileRect(t));
    if (clipped.empty())
        return mask;
    const auto &tile = layout_.tile();
    const unsigned nd = clipped.dims();
    const Coord tile0 = tile[0];

    // Dim 0 is innermost: consecutive dim-0 coordinates are consecutive
    // bitlines, so per outer coordinate the selected cells form one
    // contiguous run set with a single word-level setRange. The clip lies
    // inside one tile, so pos0 = c - origin = c % tile0 and the Alg. 2
    // positional window [maskLo, maskHi) intersects the run directly.
    Coord lo0 = clipped.lo(0), hi0 = clipped.hi(0);
    if (apply_shift_mask && cmd.dim == 0) {
        const Coord origin = lo0 - lo0 % tile0;
        lo0 = std::max(lo0, origin + cmd.maskLo);
        hi0 = std::min(hi0, origin + cmd.maskHi);
        if (hi0 <= lo0)
            return mask;
    }
    const unsigned run_lo = static_cast<unsigned>(lo0 % tile0);
    const unsigned len = static_cast<unsigned>(hi0 - lo0);

    std::vector<std::int64_t> mult(nd);
    std::int64_t m = 1;
    for (unsigned d = 0; d < nd; ++d) {
        mult[d] = m;
        m *= tile[d];
    }

    // Odometer over the outer dims of the clip (dim 0 collapsed).
    std::vector<Coord> pt(nd, 0);
    for (unsigned d = 1; d < nd; ++d)
        pt[d] = clipped.lo(d);
    for (;;) {
        bool selected = true;
        if (apply_shift_mask && cmd.dim != 0) {
            const Coord pos = pt[cmd.dim] % tile[cmd.dim];
            selected = pos >= cmd.maskLo && pos < cmd.maskHi;
        }
        if (selected) {
            std::int64_t base = run_lo;
            for (unsigned d = 1; d < nd; ++d)
                base += (pt[d] % tile[d]) * mult[d];
            mask.setRange(static_cast<unsigned>(base),
                          static_cast<unsigned>(base) + len);
        }
        unsigned d = 1;
        for (; d < nd; ++d) {
            if (++pt[d] < clipped.hi(d))
                break;
            pt[d] = clipped.lo(d);
        }
        if (d >= nd)
            break;
    }
    return mask;
}

BitRow
BitAccurateFabric::tileMaskUncached(const InMemCommand &cmd, std::int64_t t,
                                    bool apply_shift_mask) const
{
    return buildTileMask(cmd, t, apply_shift_mask);
}

const BitRow &
BitAccurateFabric::tileMask(const InMemCommand &cmd, std::int64_t t,
                            bool apply_shift_mask) const
{
    auto [it, fresh] =
        masks_.try_emplace(maskKey(cmd, t, apply_shift_mask));
    if (fresh) {
        ++maskMisses_;
        it->second = buildTileMask(cmd, t, apply_shift_mask);
    } else {
        ++maskHits_;
    }
    return it->second;
}

void
BitAccurateFabric::execCompute(const InMemCommand &cmd)
{
    const bool positional = cmd.maskHi > cmd.maskLo;
    for (std::int64_t t : layout_.tilesIntersecting(cmd.tensor)) {
        countVisit(t);
        const BitRow &mask = tileMask(cmd, t, positional);
        if (!mask.any())
            continue;
        ComputeSram &s = tile(t);
        if (cmd.useImm) {
            s.execBinaryImm(cmd.op, cmd.dtype, cmd.wlA,
                            std::bit_cast<std::uint32_t>(
                                static_cast<float>(cmd.imm)),
                            cmd.wlDst, mask);
        } else if (cmd.wlA == cmd.wlB) {
            // Unary encoding (e.g. relu, copy) or self-binary (x*x).
            if (cmd.op == BitOp::Relu || cmd.op == BitOp::Copy)
                s.execUnary(cmd.op, cmd.dtype, cmd.wlA, cmd.wlDst, mask);
            else
                s.execBinary(cmd.op, cmd.dtype, cmd.wlA, cmd.wlB,
                             cmd.wlDst, mask);
        } else {
            s.execBinary(cmd.op, cmd.dtype, cmd.wlA, cmd.wlB, cmd.wlDst,
                         mask);
        }
    }
}

void
BitAccurateFabric::execIntraShift(const InMemCommand &cmd)
{
    const std::int64_t stride = strideInTile(cmd.dim);
    const int delta =
        static_cast<int>(cmd.intraTileDist * stride);
    for (std::int64_t t : layout_.tilesIntersecting(cmd.tensor)) {
        countVisit(t);
        const BitRow &mask = tileMask(cmd, t, true);
        if (mask.any())
            tile(t).shift(cmd.dtype, cmd.wlA, cmd.wlDst, delta, mask);
    }
}

void
BitAccurateFabric::forEachMoveRun(const HyperRect &part, unsigned dim,
                                  bool window, Coord maskLo, Coord maskHi,
                                  Coord dist, const MoveRunFn &fn) const
{
    if (part.empty())
        return;
    const auto &tile = layout_.tile();
    const unsigned nd = part.dims();
    const Coord tile0 = tile[0];
    const Coord shape_d = layout_.shape()[dim];

    // Dim-0 source run in absolute coordinates. @p part lies inside one
    // tile, so the run is one contiguous bitline span per outer
    // coordinate; when the move is along dim 0 the positional window and
    // the destination bound clip the run up front.
    Coord lo0 = part.lo(0), hi0 = part.hi(0);
    if (dim == 0) {
        if (window) {
            const Coord origin = lo0 - lo0 % tile0;
            lo0 = std::max(lo0, origin + maskLo);
            hi0 = std::min(hi0, origin + maskHi);
        }
        lo0 = std::max(lo0, -dist);
        hi0 = std::min(hi0, shape_d - dist);
        if (hi0 <= lo0)
            return;
    }

    std::vector<std::int64_t> mult(nd);
    std::int64_t m = 1;
    for (unsigned d = 0; d < nd; ++d) {
        mult[d] = m;
        m *= tile[d];
    }

    std::vector<Coord> pt(nd, 0);
    for (unsigned d = 1; d < nd; ++d)
        pt[d] = part.lo(d);
    std::vector<Coord> dst(nd, 0); // Representative destination cell.
    for (;;) {
        bool selected = true;
        Coord dst_k = 0;
        if (dim != 0) {
            // Window and destination bound act on the outer coordinate.
            const Coord pos = pt[dim] % tile[dim];
            if (window && (pos < maskLo || pos >= maskHi))
                selected = false;
            dst_k = pt[dim] + dist;
            if (dst_k < 0 || dst_k >= shape_d)
                selected = false; // Discarded outside the rect (§3.2).
        }
        if (selected) {
            std::int64_t outer = 0;
            for (unsigned d = 1; d < nd; ++d)
                outer += (pt[d] % tile[d]) * mult[d];
            if (dim != 0) {
                // The whole dim-0 run lands in one destination tile.
                dst.assign(pt.begin(), pt.end());
                dst[0] = lo0;
                dst[dim] = dst_k;
                const std::int64_t dst_outer =
                    outer - (pt[dim] % tile[dim]) * mult[dim] +
                    (dst_k % tile[dim]) * mult[dim];
                fn(static_cast<unsigned>(outer + lo0 % tile0),
                   layout_.tileOf(dst),
                   static_cast<unsigned>(dst_outer + lo0 % tile0),
                   static_cast<unsigned>(hi0 - lo0), false);
            } else {
                // Split where the destination crosses a tile boundary.
                Coord c = lo0;
                while (c < hi0) {
                    const Coord dc = c + dist; // >= 0 by the clip above.
                    const Coord seg_end =
                        std::min(hi0, (dc / tile0 + 1) * tile0 - dist);
                    dst.assign(pt.begin(), pt.end());
                    dst[0] = dc;
                    fn(static_cast<unsigned>(outer + c % tile0),
                       layout_.tileOf(dst),
                       static_cast<unsigned>(outer + dc % tile0),
                       static_cast<unsigned>(seg_end - c), false);
                    c = seg_end;
                }
            }
        }
        unsigned d = 1;
        for (; d < nd; ++d) {
            if (++pt[d] < part.hi(d))
                break;
            pt[d] = part.lo(d);
        }
        if (d >= nd)
            break;
    }
}

void
BitAccurateFabric::forEachFillRun(const HyperRect &part, Coord bcDist,
                                  Coord bcCount, const MoveRunFn &fn) const
{
    if (part.empty())
        return;
    const auto &tile = layout_.tile();
    const unsigned nd = part.dims();
    const Coord tile0 = tile[0];
    const Coord shape0 = layout_.shape()[0];
    const Coord lo0 = part.lo(0);
    infs_assert(part.hi(0) - lo0 == 1, "fill run needs unit dim-0 span");

    std::vector<std::int64_t> mult(nd);
    std::int64_t m = 1;
    for (unsigned d = 0; d < nd; ++d) {
        mult[d] = m;
        m *= tile[d];
    }

    std::vector<Coord> pt(nd, 0);
    pt[0] = lo0;
    for (unsigned d = 1; d < nd; ++d)
        pt[d] = part.lo(d);
    std::vector<Coord> dst(nd, 0);
    for (;;) {
        std::int64_t outer = 0;
        for (unsigned d = 1; d < nd; ++d)
            outer += (pt[d] % tile[d]) * mult[d];
        const unsigned srcPos =
            static_cast<unsigned>(outer + lo0 % tile0);
        // The bcCount replicas of this element tile the contiguous dim-0
        // destination range [lo0 + bcDist, lo0 + bcDist + bcCount),
        // clipped to the array and split at tile boundaries.
        Coord c = std::max<Coord>(0, lo0 + bcDist);
        const Coord end = std::min(shape0, lo0 + bcDist + bcCount);
        while (c < end) {
            const Coord seg_end = std::min(end, (c / tile0 + 1) * tile0);
            dst.assign(pt.begin(), pt.end());
            dst[0] = c;
            fn(srcPos, layout_.tileOf(dst),
               static_cast<unsigned>(outer + c % tile0),
               static_cast<unsigned>(seg_end - c), true);
            c = seg_end;
        }
        unsigned d = 1;
        for (; d < nd; ++d) {
            if (++pt[d] < part.hi(d))
                break;
            pt[d] = part.lo(d);
        }
        if (d >= nd)
            break;
    }
}

void
BitAccurateFabric::forEachBroadcastRun(const HyperRect &part, unsigned dim,
                                       Coord span, Coord bcDist,
                                       Coord bcCount,
                                       const MoveRunFn &fn) const
{
    if (part.empty())
        return;
    const auto &tile = layout_.tile();
    const unsigned nd = part.dims();
    const Coord tile0 = tile[0];
    const Coord shape_d = layout_.shape()[dim];
    const Coord lo0 = part.lo(0), hi0 = part.hi(0);

    std::vector<std::int64_t> mult(nd);
    std::int64_t m = 1;
    for (unsigned d = 0; d < nd; ++d) {
        mult[d] = m;
        m *= tile[d];
    }

    std::vector<Coord> pt(nd, 0);
    pt[0] = lo0;
    for (unsigned d = 1; d < nd; ++d)
        pt[d] = part.lo(d);
    std::vector<Coord> dst(nd, 0);
    for (;;) {
        std::int64_t outer = 0;
        for (unsigned d = 1; d < nd; ++d)
            outer += (pt[d] % tile[d]) * mult[d];
        if (dim == 0) {
            // Replica j is a dim-0 move by bcDist + j*span: clip to the
            // array and split where the destination crosses a tile edge.
            for (Coord j = 0; j < bcCount; ++j) {
                const Coord dist = bcDist + j * span;
                Coord c = std::max(lo0, -dist);
                const Coord h = std::min(hi0, shape_d - dist);
                while (c < h) {
                    const Coord dc = c + dist;
                    const Coord seg_end =
                        std::min(h, (dc / tile0 + 1) * tile0 - dist);
                    dst.assign(pt.begin(), pt.end());
                    dst[0] = dc;
                    fn(static_cast<unsigned>(outer + c % tile0),
                       layout_.tileOf(dst),
                       static_cast<unsigned>(outer + dc % tile0),
                       static_cast<unsigned>(seg_end - c), false);
                    c = seg_end;
                }
            }
        } else {
            // The dim-0 run is invariant across replicas; only the dim
            // component of the destination position changes.
            const unsigned srcPos =
                static_cast<unsigned>(outer + lo0 % tile0);
            const unsigned len = static_cast<unsigned>(hi0 - lo0);
            const Coord src_k = pt[dim];
            const std::int64_t outer_wo =
                outer - (src_k % tile[dim]) * mult[dim] + lo0 % tile0;
            for (Coord j = 0; j < bcCount; ++j) {
                const Coord dst_k = src_k + bcDist + j * span;
                if (dst_k < 0 || dst_k >= shape_d)
                    continue; // Discarded outside the rect (§3.2).
                dst.assign(pt.begin(), pt.end());
                dst[0] = lo0;
                dst[dim] = dst_k;
                fn(srcPos, layout_.tileOf(dst),
                   static_cast<unsigned>(
                       outer_wo + (dst_k % tile[dim]) * mult[dim]),
                   len, false);
            }
        }
        unsigned d = 1;
        for (; d < nd; ++d) {
            if (++pt[d] < part.hi(d))
                break;
            pt[d] = part.lo(d);
        }
        if (d >= nd)
            break;
    }
}

namespace {

/** One coalesced bitline span in flight between tiles. */
struct MoveSegment {
    std::int64_t dstTile;
    unsigned dstPos;       ///< First bitline in the destination tile.
    unsigned len;          ///< Elements in the run.
    std::size_t arenaOff;  ///< Word offset of the staged bits.
    bool fill;             ///< Replicate one staged element across len.
};

} // namespace

void
BitAccurateFabric::moveRuns(
    const std::vector<std::int64_t> &src_tiles, const HyperRect &clipped,
    unsigned bits, unsigned wl_src, unsigned wl_dst,
    const std::function<void(const HyperRect &, const MoveRunFn &)>
        &enumerate)
{
    // Two-phase gather/scatter so overlapping source/destination slots
    // are safe: every run is staged before any is written. Each run moves
    // whole bitline word-spans (extractTo/depositFrom handle arbitrary
    // alignment, so single elements take the same path as full lines)
    // through one staging arena.
    std::vector<MoveSegment> segs;
    std::vector<std::uint64_t> arena;
    std::unordered_map<std::uint64_t, std::size_t> staged;
    for (std::int64_t st : src_tiles) {
        HyperRect part = clipped.intersect(layout_.tileRect(st));
        if (part.empty())
            continue;
        const BitMatrix &bm = tile(st).bits();
        // Broadcasts enumerate the same source span once per replica;
        // stage each distinct extraction of this tile once and share it.
        staged.clear();
        enumerate(part, [&](unsigned srcPos, std::int64_t dt,
                            unsigned dstPos, unsigned len, bool fill) {
            // Fill runs and single elements stage as one packed word
            // (readElement), full runs as bits word-spans (extractTo).
            const bool elem = fill || len == 1;
            const std::uint64_t key =
                (elem ? 1ULL << 63 : std::uint64_t(len)) |
                (std::uint64_t(srcPos) << 32);
            auto [it, fresh] = staged.emplace(key, arena.size());
            if (fresh) {
                if (elem) {
                    arena.push_back(bm.readElement(srcPos, wl_src, bits));
                } else {
                    const std::size_t wspan = (len + 63) / 64;
                    const std::size_t off = arena.size();
                    arena.resize(off + bits * wspan);
                    for (unsigned b = 0; b < bits; ++b)
                        bm.row(wl_src + b)
                            .extractTo(arena.data() + off + b * wspan,
                                       srcPos, len);
                }
            }
            segs.push_back({dt, dstPos, len, it->second, fill});
        });
    }

    // Scatter one destination tile at a time. The stable sort keeps
    // source order within a tile (destination cells are unique, so write
    // order is irrelevant anyway).
    std::stable_sort(segs.begin(), segs.end(),
                     [](const MoveSegment &a, const MoveSegment &b) {
                         return a.dstTile < b.dstTile;
                     });
    for (std::size_t i = 0; i < segs.size();) {
        const std::int64_t dt = segs[i].dstTile;
        countVisit(dt);
        BitMatrix &bm = tile(dt).bits();
        for (; i < segs.size() && segs[i].dstTile == dt; ++i) {
            const MoveSegment &sg = segs[i];
            if (sg.fill) {
                const std::uint64_t v = arena[sg.arenaOff];
                for (unsigned b = 0; b < bits; ++b)
                    bm.row(wl_dst + b)
                        .fillRange(sg.dstPos, sg.dstPos + sg.len,
                                   (v >> b) & 1ULL);
            } else if (sg.len == 1) {
                bm.writeElement(sg.dstPos, wl_dst, bits,
                                arena[sg.arenaOff]);
            } else {
                const std::size_t wspan = (sg.len + 63) / 64;
                for (unsigned b = 0; b < bits; ++b)
                    bm.row(wl_dst + b)
                        .depositFrom(arena.data() + sg.arenaOff + b * wspan,
                                     sg.dstPos, sg.len);
            }
        }
    }
}

void
BitAccurateFabric::execInterShift(const InMemCommand &cmd)
{
    // Elements cross tiles: the packed H-tree / NoC transfer,
    // functionally, as run-length coalesced segment copies.
    const Coord tile_k = layout_.tile()[cmd.dim];
    const Coord dist = cmd.interTileDist * tile_k + cmd.intraTileDist;
    HyperRect clipped = cmd.tensor.intersect(arrayRect_);
    moveRuns(layout_.tilesIntersecting(clipped), clipped,
             dtypeBits(cmd.dtype), cmd.wlA, cmd.wlDst,
             [&](const HyperRect &part, const MoveRunFn &emit) {
                 forEachMoveRun(part, cmd.dim, true, cmd.maskLo,
                                cmd.maskHi, dist, emit);
             });
}

void
BitAccurateFabric::execBroadcast(const InMemCommand &cmd)
{
    // Replicate the source subtensor bcCount times along dim with offset
    // bcDist (Fig 5 semantics), across tiles. Destination cells are
    // unique (per replica j the map is injective and replica ranges are
    // span-disjoint), so the same batched gather/scatter applies with one
    // run enumeration per replica.
    HyperRect src = cmd.tensor.intersect(arrayRect_);
    const Coord span = cmd.tensor.size(cmd.dim);
    const std::vector<std::int64_t> src_tiles =
        layout_.tilesIntersecting(src);
    if (cmd.dim == 0 && span == 1) {
        // Unit-span dim-0 broadcast (the inner-product pattern): all
        // replicas of one element form a contiguous dim-0 run, scattered
        // as word-level range fills instead of bcCount separate moves.
        moveRuns(src_tiles, src, dtypeBits(cmd.dtype), cmd.wlA, cmd.wlDst,
                 [&](const HyperRect &part, const MoveRunFn &emit) {
                     forEachFillRun(part, cmd.bcDist, cmd.bcCount, emit);
                 });
        return;
    }
    moveRuns(src_tiles, src, dtypeBits(cmd.dtype), cmd.wlA, cmd.wlDst,
             [&](const HyperRect &part, const MoveRunFn &emit) {
                 forEachBroadcastRun(part, cmd.dim, span, cmd.bcDist,
                                     cmd.bcCount, emit);
             });
}

void
BitAccurateFabric::execBroadcastVal(const InMemCommand &cmd)
{
    for (std::int64_t t = 0; t < layout_.numTiles(); ++t) {
        countVisit(t);
        ComputeSram &s = tile(t);
        s.writeImmediate(cmd.dtype,
                         std::bit_cast<std::uint32_t>(
                             static_cast<float>(cmd.imm)),
                         cmd.wlDst, s.fullMask());
    }
}

void
BitAccurateFabric::injectAndRepair(const InMemCommand &cmd)
{
    auto touched = layout_.tilesIntersecting(cmd.tensor);
    if (touched.empty())
        return;
    // Pick the upset site from the SRAM stream: tile, wordline within the
    // destination slot, bitline.
    ComputeSram &s =
        tile(touched[fault_->draw(FaultDomain::Sram, touched.size())]);
    const unsigned wl =
        cmd.wlDst + static_cast<unsigned>(fault_->draw(
                        FaultDomain::Sram, dtypeBits(cmd.dtype)));
    const unsigned bl =
        static_cast<unsigned>(fault_->draw(FaultDomain::Sram, bitlines_));
    fault_->recordDetection();
    const bool parity_before = s.rowParity(wl);
    const std::uint64_t good = s.readElement(bl, cmd.wlDst, cmd.dtype);
    s.flipBit(wl, bl);
    // Row parity flips on any single-bit upset — detection is certain.
    infs_assert(s.rowParity(wl) != parity_before,
                "single-bit flip must flip row parity");
    // Repair: rewrite the corrupted element (ECC correction / re-read of
    // the known-good operand).
    s.writeElement(bl, cmd.wlDst, cmd.dtype, good);
    fault_->recordRetry();
}

void
BitAccurateFabric::executeCommand(const InMemCommand &cmd)
{
    const auto t0 = std::chrono::steady_clock::now();
    switch (cmd.kind) {
      case CmdKind::Compute:
        execCompute(cmd);
        break;
      case CmdKind::IntraShift:
        execIntraShift(cmd);
        break;
      case CmdKind::InterShift:
        execInterShift(cmd);
        break;
      case CmdKind::BroadcastBl:
        execBroadcast(cmd);
        break;
      case CmdKind::BroadcastVal:
        execBroadcastVal(cmd);
        break;
      case CmdKind::Sync:
        break;
    }
    const auto k = static_cast<std::size_t>(cmd.kind);
    ++kindCount_[k];
    kindNanos_[k] += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    if (cmd.kind == CmdKind::Compute && fault_ && fault_->sampleSramFlip())
        injectAndRepair(cmd);
}

void
BitAccurateFabric::execute(const InMemProgram &prog)
{
    for (const InMemCommand &cmd : prog.commands)
        if (cmd.kind != CmdKind::Sync)
            executeCommand(cmd);
}

} // namespace infs
