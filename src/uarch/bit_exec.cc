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
    tiles_.resize(static_cast<std::size_t>(layout_.numTiles()));
}

FabricStats
BitAccurateFabric::stats() const
{
    FabricStats s;
    for (std::size_t k = 0; k < s.byKind.size(); ++k) {
        s.byKind[k].count = kindCount_[k].load(std::memory_order_relaxed);
        s.byKind[k].wallMs =
            static_cast<double>(
                kindNanos_[k].load(std::memory_order_relaxed)) /
            1e6;
    }
    s.maskCacheHits = maskHits_.load(std::memory_order_relaxed);
    s.maskCacheMisses = maskMisses_.load(std::memory_order_relaxed);
    for (std::size_t b = 0; b < s.bankOps.size(); ++b)
        s.bankOps[b] = bankOps_[b].load(std::memory_order_relaxed);
    std::uint64_t scratch = 0;
    for (const auto &t : tiles_)
        if (t)
            scratch += t->scratchAllocs();
    s.scratchAllocs = scratch - scratchBase_;
    return s;
}

void
BitAccurateFabric::resetStats()
{
    for (std::size_t k = 0; k < kindCount_.size(); ++k) {
        kindCount_[k].store(0, std::memory_order_relaxed);
        kindNanos_[k].store(0, std::memory_order_relaxed);
    }
    maskHits_.store(0, std::memory_order_relaxed);
    maskMisses_.store(0, std::memory_order_relaxed);
    for (auto &b : bankOps_)
        b.store(0, std::memory_order_relaxed);
    scratchBase_ = 0;
    for (const auto &t : tiles_)
        if (t)
            scratchBase_ += t->scratchAllocs();
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

void
BitAccurateFabric::ensureTiles(const std::vector<std::int64_t> &tiles)
{
    // Allocate through the pool when one is attached: with NUMA pinning
    // active, the worker that first touches a tile's SRAM pages is the
    // same worker forEachTile's deterministic chunking later hands that
    // tile to, so bank shards stay node-local (DESIGN.md §14). Callers
    // pass unique tile ids, and tiles_ is pre-sized, so concurrent slot
    // writes are disjoint.
    if (pool_ != nullptr && !pool_->inlineOnly() && tiles.size() > 1) {
        pool_->parallelFor(static_cast<std::int64_t>(tiles.size()),
                           [&](std::int64_t i) {
                               tile(tiles[static_cast<std::size_t>(i)]);
                           });
    } else {
        for (std::int64_t t : tiles)
            tile(t);
    }
}

void
BitAccurateFabric::forEachTile(const std::vector<std::int64_t> &tiles,
                               const std::function<void(std::int64_t)> &fn)
{
    // Occupancy accounting: one work unit per tile visit, folded into
    // bank groups by tile index. Pure function of the command stream.
    for (std::int64_t t : tiles)
        bankOps_[static_cast<std::size_t>(t) % FabricStats::kBankSlots]
            .fetch_add(1, std::memory_order_relaxed);
    if (pool_ != nullptr && !pool_->inlineOnly() && tiles.size() > 1) {
        pool_->parallelFor(static_cast<std::int64_t>(tiles.size()),
                           [&](std::int64_t i) {
                               fn(tiles[static_cast<std::size_t>(i)]);
                           });
    } else {
        for (std::int64_t t : tiles)
            fn(t);
    }
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
    // FNV-1a over the key fields.
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ULL;
    };
    mix(static_cast<std::uint64_t>(k.tile));
    mix(k.positional ? 1u : 0u);
    mix(k.dim);
    mix(static_cast<std::uint64_t>(k.maskLo));
    mix(static_cast<std::uint64_t>(k.maskHi));
    for (Coord c : k.lo)
        mix(static_cast<std::uint64_t>(c));
    for (Coord c : k.hi)
        mix(static_cast<std::uint64_t>(c));
    return static_cast<std::size_t>(h);
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
    MaskKey key;
    key.tile = t;
    key.positional = apply_shift_mask;
    if (apply_shift_mask) {
        key.dim = cmd.dim;
        key.maskLo = cmd.maskLo;
        key.maskHi = cmd.maskHi;
    }
    const unsigned nd = cmd.tensor.dims();
    key.lo.reserve(nd);
    key.hi.reserve(nd);
    for (unsigned d = 0; d < nd; ++d) {
        key.lo.push_back(cmd.tensor.lo(d));
        key.hi.push_back(cmd.tensor.hi(d));
    }
    MaskShard &sh = maskShards_[MaskKeyHash{}(key) % kMaskShards];
    {
        std::lock_guard<std::mutex> g(sh.mu);
        auto it = sh.map.find(key);
        if (it != sh.map.end()) {
            maskHits_.fetch_add(1, std::memory_order_relaxed);
            return it->second;
        }
    }
    // Build outside the lock (cheap, and keeps shard contention low); a
    // racing builder loses the emplace and both return the first entry.
    maskMisses_.fetch_add(1, std::memory_order_relaxed);
    BitRow built = buildTileMask(cmd, t, apply_shift_mask);
    std::lock_guard<std::mutex> g(sh.mu);
    auto [it, inserted] = sh.map.emplace(std::move(key), std::move(built));
    return it->second;
}

void
BitAccurateFabric::execCompute(const InMemCommand &cmd)
{
    const bool positional = cmd.maskHi > cmd.maskLo;
    std::vector<std::int64_t> tiles =
        layout_.tilesIntersecting(cmd.tensor);
    ensureTiles(tiles);
    forEachTile(tiles, [&](std::int64_t t) {
        const BitRow &mask = tileMask(cmd, t, positional);
        if (!mask.any())
            return;
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
    });
}

void
BitAccurateFabric::execIntraShift(const InMemCommand &cmd)
{
    const std::int64_t stride = strideInTile(cmd.dim);
    const int delta =
        static_cast<int>(cmd.intraTileDist * stride);
    std::vector<std::int64_t> tiles =
        layout_.tilesIntersecting(cmd.tensor);
    ensureTiles(tiles);
    forEachTile(tiles, [&](std::int64_t t) {
        const BitRow &mask = tileMask(cmd, t, true);
        if (!mask.any())
            return;
        tile(t).shift(cmd.dtype, cmd.wlA, cmd.wlDst, delta, mask);
    });
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
    // are safe — and so each phase can fan out: reads are
    // per-source-tile, writes per-destination-tile, and two threads never
    // touch the same SRAM array. Each run moves whole bitline word-spans
    // (extractTo/depositFrom handle arbitrary alignment, so single
    // elements take the same path as full lines) through a
    // per-source-tile staging arena.
    std::vector<std::vector<MoveSegment>> segs(src_tiles.size());
    std::vector<std::vector<std::uint64_t>> arenas(src_tiles.size());
    auto gatherTile = [&](std::size_t i) {
        const std::int64_t st = src_tiles[i];
        HyperRect part = clipped.intersect(layout_.tileRect(st));
        if (part.empty())
            return;
        const BitMatrix &bm = tile(st).bits();
        auto &sv = segs[i];
        auto &ar = arenas[i];
        // Broadcasts enumerate the same source span once per replica;
        // stage each distinct extraction once and share the arena slot.
        std::unordered_map<std::uint64_t, std::size_t> staged;
        enumerate(part, [&](unsigned srcPos, std::int64_t dt,
                            unsigned dstPos, unsigned len, bool fill) {
            // Fill runs and single elements stage as one packed word
            // (readElement), full runs as bits word-spans (extractTo).
            const bool elem = fill || len == 1;
            const std::uint64_t key =
                (elem ? 1ULL << 63 : std::uint64_t(len)) |
                (std::uint64_t(srcPos) << 32);
            auto [it, fresh] = staged.emplace(key, ar.size());
            if (fresh) {
                if (elem) {
                    ar.push_back(bm.readElement(srcPos, wl_src, bits));
                } else {
                    const std::size_t wspan = (len + 63) / 64;
                    const std::size_t off = ar.size();
                    ar.resize(off + bits * wspan);
                    for (unsigned b = 0; b < bits; ++b)
                        bm.row(wl_src + b)
                            .extractTo(ar.data() + off + b * wspan,
                                       srcPos, len);
                }
            }
            sv.push_back({dt, dstPos, len, it->second, fill});
        });
    };
    if (pool_ != nullptr && !pool_->inlineOnly() && src_tiles.size() > 1) {
        pool_->parallelFor(static_cast<std::int64_t>(src_tiles.size()),
                           [&](std::int64_t i) {
                               gatherTile(static_cast<std::size_t>(i));
                           });
    } else {
        for (std::size_t i = 0; i < src_tiles.size(); ++i)
            gatherTile(i);
    }

    // Bucket by destination tile (sequential and deterministic: source
    // order preserved; destination cells are unique, so write order is
    // irrelevant).
    std::unordered_map<std::int64_t,
                       std::vector<std::pair<std::size_t, std::size_t>>>
        buckets;
    for (std::size_t i = 0; i < segs.size(); ++i)
        for (std::size_t k = 0; k < segs[i].size(); ++k)
            buckets[segs[i][k].dstTile].emplace_back(i, k);
    std::vector<std::int64_t> dst_tiles;
    dst_tiles.reserve(buckets.size());
    for (auto &[dt, v] : buckets)
        dst_tiles.push_back(dt);
    std::sort(dst_tiles.begin(), dst_tiles.end());
    ensureTiles(dst_tiles);

    forEachTile(dst_tiles, [&](std::int64_t dt) {
        BitMatrix &bm = tile(dt).bits();
        for (auto [i, k] : buckets.at(dt)) {
            const MoveSegment &sg = segs[i][k];
            if (sg.fill) {
                const std::uint64_t v = arenas[i][sg.arenaOff];
                for (unsigned b = 0; b < bits; ++b)
                    bm.row(wl_dst + b)
                        .fillRange(sg.dstPos, sg.dstPos + sg.len,
                                   (v >> b) & 1ULL);
            } else if (sg.len == 1) {
                bm.writeElement(sg.dstPos, wl_dst, bits,
                                arenas[i][sg.arenaOff]);
            } else {
                const std::size_t wspan = (sg.len + 63) / 64;
                for (unsigned b = 0; b < bits; ++b)
                    bm.row(wl_dst + b)
                        .depositFrom(
                            arenas[i].data() + sg.arenaOff + b * wspan,
                            sg.dstPos, sg.len);
            }
        }
    });
}

void
BitAccurateFabric::execInterShift(const InMemCommand &cmd)
{
    // Elements cross tiles: the packed H-tree / NoC transfer,
    // functionally, as run-length coalesced segment copies.
    const Coord tile_k = layout_.tile()[cmd.dim];
    const Coord dist = cmd.interTileDist * tile_k + cmd.intraTileDist;
    HyperRect clipped = cmd.tensor.intersect(arrayRect_);
    std::vector<std::int64_t> src_tiles =
        layout_.tilesIntersecting(clipped);
    ensureTiles(src_tiles);
    moveRuns(src_tiles, clipped, dtypeBits(cmd.dtype), cmd.wlA, cmd.wlDst,
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
    std::vector<std::int64_t> src_tiles = layout_.tilesIntersecting(src);
    ensureTiles(src_tiles);
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
    std::vector<std::int64_t> all(
        static_cast<std::size_t>(layout_.numTiles()));
    for (std::size_t i = 0; i < all.size(); ++i)
        all[i] = static_cast<std::int64_t>(i);
    ensureTiles(all);
    forEachTile(all, [&](std::int64_t t) {
        ComputeSram &s = tile(t);
        s.writeImmediate(cmd.dtype,
                         std::bit_cast<std::uint32_t>(
                             static_cast<float>(cmd.imm)),
                         cmd.wlDst, s.fullMask());
    });
}

void
BitAccurateFabric::applyFault(const InMemCommand &cmd,
                              const PlannedFault &pf)
{
    ComputeSram &s = tile(pf.tile);
    const bool parity_before = s.rowParity(pf.wl);
    const std::uint64_t good = s.readElement(pf.bl, cmd.wlDst, cmd.dtype);
    s.flipBit(pf.wl, pf.bl);
    // Row parity flips on any single-bit upset — detection is certain.
    infs_assert(s.rowParity(pf.wl) != parity_before,
                "single-bit flip must flip row parity");
    // Repair: rewrite the corrupted element (ECC correction / re-read of
    // the known-good operand).
    s.writeElement(pf.bl, cmd.wlDst, cmd.dtype, good);
}

void
BitAccurateFabric::injectAndRepair(const InMemCommand &cmd)
{
    auto touched = layout_.tilesIntersecting(cmd.tensor);
    if (touched.empty())
        return;
    const unsigned bits = dtypeBits(cmd.dtype);
    // Pick the upset site from the SRAM stream: tile, wordline within the
    // destination slot, bitline.
    PlannedFault pf;
    pf.cmdIndex = 0;
    pf.tile = touched[fault_->draw(FaultDomain::Sram, touched.size())];
    pf.wl = cmd.wlDst + static_cast<unsigned>(
                            fault_->draw(FaultDomain::Sram, bits));
    pf.bl = static_cast<unsigned>(
        fault_->draw(FaultDomain::Sram, bitlines_));
    fault_->recordDetection();
    applyFault(cmd, pf);
    fault_->recordRetry();
}

void
BitAccurateFabric::executeNoFault(const InMemCommand &cmd)
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
        break; // Ordering only; handled by the segment walk.
    }
    const auto dt = std::chrono::steady_clock::now() - t0;
    const auto k = static_cast<std::size_t>(cmd.kind);
    kindCount_[k].fetch_add(1, std::memory_order_relaxed);
    kindNanos_[k].fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(dt)
                .count()),
        std::memory_order_relaxed);
}

void
BitAccurateFabric::executeCommand(const InMemCommand &cmd)
{
    executeNoFault(cmd);
    if (cmd.kind == CmdKind::Compute && fault_ && fault_->sampleSramFlip())
        injectAndRepair(cmd);
}

std::vector<std::int64_t>
BitAccurateFabric::touchedTiles(const InMemCommand &cmd) const
{
    std::vector<std::int64_t> tiles;
    auto add = [&](const HyperRect &r) {
        auto v = layout_.tilesIntersecting(r.intersect(arrayRect_));
        tiles.insert(tiles.end(), v.begin(), v.end());
    };
    switch (cmd.kind) {
      case CmdKind::Compute:
      case CmdKind::IntraShift:
        add(cmd.tensor);
        break;
      case CmdKind::InterShift: {
        add(cmd.tensor);
        const Coord tile_k = layout_.tile()[cmd.dim];
        const Coord dist = cmd.interTileDist * tile_k + cmd.intraTileDist;
        add(cmd.tensor.shifted(cmd.dim, dist));
        break;
      }
      case CmdKind::BroadcastBl: {
        add(cmd.tensor);
        const Coord span = cmd.tensor.size(cmd.dim);
        for (Coord j = 0; j < cmd.bcCount; ++j)
            add(cmd.tensor.shifted(cmd.dim, cmd.bcDist + j * span));
        break;
      }
      case CmdKind::BroadcastVal: {
        tiles.resize(static_cast<std::size_t>(layout_.numTiles()));
        for (std::size_t i = 0; i < tiles.size(); ++i)
            tiles[i] = static_cast<std::int64_t>(i);
        break;
      }
      case CmdKind::Sync:
        break;
    }
    std::sort(tiles.begin(), tiles.end());
    tiles.erase(std::unique(tiles.begin(), tiles.end()), tiles.end());
    return tiles;
}

void
BitAccurateFabric::executeSegment(
    const InMemProgram &prog, std::size_t lo, std::size_t hi,
    const std::vector<const PlannedFault *> &faults)
{
    if (hi <= lo)
        return;
    auto runOne = [&](std::size_t i) {
        const InMemCommand &cmd = prog.commands[i];
        executeNoFault(cmd);
        if (faults[i] != nullptr)
            applyFault(cmd, *faults[i]);
    };
    if (pool_ == nullptr || pool_->inlineOnly() || hi - lo == 1) {
        for (std::size_t i = lo; i < hi; ++i)
            runOne(i);
        return;
    }

    // Lane partition: commands whose touched-tile sets overlap share a
    // lane and execute in program order; disjoint lanes run concurrently
    // — the host-side mirror of the banks' independence. Union-find over
    // tile ownership.
    const std::size_t n = hi - lo;
    std::vector<std::vector<std::int64_t>> touched(n);
    pool_->parallelFor(static_cast<std::int64_t>(n), [&](std::int64_t k) {
        touched[static_cast<std::size_t>(k)] =
            touchedTiles(prog.commands[lo + static_cast<std::size_t>(k)]);
    });
    std::vector<std::size_t> parent(n);
    for (std::size_t i = 0; i < n; ++i)
        parent[i] = i;
    std::function<std::size_t(std::size_t)> find =
        [&](std::size_t x) -> std::size_t {
        while (parent[x] != x) {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        return x;
    };
    std::unordered_map<std::int64_t, std::size_t> tile_owner;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::int64_t t : touched[i]) {
            auto [it, inserted] = tile_owner.emplace(t, i);
            if (!inserted) {
                std::size_t a = find(it->second), b = find(i);
                if (a != b)
                    parent[b] = a;
                it->second = find(a);
            }
        }
    }
    std::unordered_map<std::size_t, std::size_t> root_lane;
    std::vector<std::vector<std::size_t>> lanes;
    for (std::size_t i = 0; i < n; ++i) {
        std::size_t r = find(i);
        auto [it, inserted] = root_lane.emplace(r, lanes.size());
        if (inserted)
            lanes.emplace_back();
        lanes[it->second].push_back(i);
    }

    if (hazardCheck_ && lanes.size() > 1) {
        // Engine self-check (DESIGN.md §10): the lanes about to run
        // concurrently must have pairwise-disjoint tile sets — the same
        // disjointness invariant the command hazard analyzer proves at
        // lowering time (verifyLevel == Full).
        std::unordered_map<std::int64_t, std::size_t> owner;
        for (std::size_t l = 0; l < lanes.size(); ++l) {
            for (std::size_t i : lanes[l]) {
                for (std::int64_t t : touched[i]) {
                    auto [it, inserted] = owner.emplace(t, l);
                    infs_assert(inserted || it->second == l,
                                "bank-parallel hazard: tile %lld shared "
                                "by concurrent lanes %zu and %zu",
                                static_cast<long long>(t), it->second, l);
                }
            }
        }
    }

    if (lanes.size() == 1) {
        for (std::size_t i = lo; i < hi; ++i)
            runOne(i);
        return;
    }
    std::vector<std::function<void()>> tasks;
    tasks.reserve(lanes.size());
    for (const auto &lane : lanes) {
        tasks.push_back([&, lane] {
            for (std::size_t k : lane)
                runOne(lo + k);
        });
    }
    pool_->runTasks(std::move(tasks));
}

void
BitAccurateFabric::execute(const InMemProgram &prog)
{
    // Fault pre-sampling: one sequential walk in program order consumes
    // the RNG streams exactly as the legacy inline path did, so the
    // injected schedule (and every counter) is bit-identical for any
    // pool size. The state effects are applied later inside the owning
    // lane — ordered with respect to every command that shares a tile.
    std::vector<PlannedFault> planned;
    std::vector<const PlannedFault *> faults(prog.commands.size(),
                                             nullptr);
    if (fault_ != nullptr) {
        for (std::size_t i = 0; i < prog.commands.size(); ++i) {
            const InMemCommand &cmd = prog.commands[i];
            if (cmd.kind != CmdKind::Compute || !fault_->sampleSramFlip())
                continue;
            auto touched = layout_.tilesIntersecting(cmd.tensor);
            if (touched.empty())
                continue;
            const unsigned bits = dtypeBits(cmd.dtype);
            PlannedFault pf;
            pf.cmdIndex = i;
            pf.tile =
                touched[fault_->draw(FaultDomain::Sram, touched.size())];
            pf.wl = cmd.wlDst + static_cast<unsigned>(
                                    fault_->draw(FaultDomain::Sram, bits));
            pf.bl = static_cast<unsigned>(
                fault_->draw(FaultDomain::Sram, bitlines_));
            fault_->recordDetection();
            fault_->recordRetry();
            planned.push_back(pf);
        }
        for (const PlannedFault &pf : planned)
            faults[pf.cmdIndex] = &pf;
    }

    std::size_t seg_lo = 0;
    for (std::size_t i = 0; i <= prog.commands.size(); ++i) {
        if (i == prog.commands.size() ||
            prog.commands[i].kind == CmdKind::Sync) {
            executeSegment(prog, seg_lo, i, faults);
            seg_lo = i + 1;
        }
    }
}

} // namespace infs
