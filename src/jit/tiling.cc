#include "jit/tiling.hh"

#include <algorithm>
#include <array>
#include <cmath>

namespace infs {

LayoutHints
LayoutHints::fromGraph(const TdfgGraph &g)
{
    LayoutHints h;
    for (const TdfgNode &n : g.nodes()) {
        switch (n.kind) {
          case TdfgKind::Move:
            if (n.dist != 0)
                h.shiftDims.insert(n.dim);
            break;
          case TdfgKind::Broadcast:
            h.broadcastDims.insert(n.dim);
            break;
          case TdfgKind::Reduce:
            h.reduceDim = n.dim;
            break;
          default:
            break;
        }
    }
    return h;
}

TiledLayout::TiledLayout(std::vector<Coord> shape, std::vector<Coord> tile)
    : shape_(std::move(shape)), tile_(std::move(tile))
{
    infs_assert(shape_.size() == tile_.size(),
                "shape rank %zu != tile rank %zu", shape_.size(),
                tile_.size());
    grid_.resize(shape_.size());
    for (std::size_t d = 0; d < shape_.size(); ++d) {
        infs_assert(tile_[d] > 0, "tile dim %zu must be positive", d);
        grid_[d] = (shape_[d] + tile_[d] - 1) / tile_[d];
    }
}

Expected<TiledLayout>
TiledLayout::make(std::vector<Coord> shape, std::vector<Coord> tile)
{
    using Result = Expected<TiledLayout>;
    if (shape.size() != tile.size()) {
        return Result::failure(
            ErrCode::LayoutConstraint,
            "shape rank " + std::to_string(shape.size()) +
                " != tile rank " + std::to_string(tile.size()));
    }
    for (std::size_t d = 0; d < tile.size(); ++d) {
        if (tile[d] <= 0) {
            return Result::failure(ErrCode::LayoutConstraint,
                                   "tile dim " + std::to_string(d) +
                                       " must be positive");
        }
    }
    return TiledLayout(std::move(shape), std::move(tile));
}

std::int64_t
TiledLayout::numTiles() const
{
    std::int64_t n = 1;
    for (Coord g : grid_)
        n *= g;
    return n;
}

std::int64_t
TiledLayout::tileVolume() const
{
    std::int64_t v = 1;
    for (Coord t : tile_)
        v *= t;
    return v;
}

std::int64_t
TiledLayout::tileOf(const std::vector<Coord> &pt) const
{
    infs_assert(pt.size() == shape_.size(), "point rank mismatch");
    std::int64_t idx = 0;
    std::int64_t mult = 1;
    for (std::size_t d = 0; d < shape_.size(); ++d) {
        Coord td = pt[d] / tile_[d];
        infs_assert(pt[d] >= 0 && td < grid_[d], "point outside array");
        idx += td * mult;
        mult *= grid_[d];
    }
    return idx;
}

std::int64_t
TiledLayout::positionInTile(const std::vector<Coord> &pt) const
{
    std::int64_t idx = 0;
    std::int64_t mult = 1;
    for (std::size_t d = 0; d < shape_.size(); ++d) {
        idx += (pt[d] % tile_[d]) * mult;
        mult *= tile_[d];
    }
    return idx;
}

std::vector<std::int64_t>
TiledLayout::tilesIntersecting(const HyperRect &r) const
{
    std::vector<std::int64_t> out;
    if (r.empty())
        return out;
    // Tile-grid sub-rectangle covered by r (clamped to the array).
    std::vector<Coord> lo(dims()), hi(dims());
    for (unsigned d = 0; d < dims(); ++d) {
        Coord rlo = std::max<Coord>(r.lo(d), 0);
        Coord rhi = std::min<Coord>(r.hi(d), shape_[d]);
        if (rhi <= rlo)
            return out;
        lo[d] = rlo / tile_[d];
        hi[d] = (rhi - 1) / tile_[d] + 1;
    }
    // Enumerate the tile sub-grid.
    std::vector<Coord> t = lo;
    while (true) {
        std::int64_t idx = 0, mult = 1;
        for (unsigned d = 0; d < dims(); ++d) {
            idx += t[d] * mult;
            mult *= grid_[d];
        }
        out.push_back(idx);
        unsigned d = 0;
        for (; d < dims(); ++d) {
            if (++t[d] < hi[d])
                break;
            t[d] = lo[d];
        }
        if (d == dims())
            break;
    }
    return out;
}

HyperRect
TiledLayout::tileRect(std::int64_t t) const
{
    infs_assert(t >= 0 && t < numTiles(), "tile %lld out of range",
                static_cast<long long>(t));
    std::vector<Coord> lo(dims()), hi(dims());
    for (unsigned d = 0; d < dims(); ++d) {
        Coord td = t % grid_[d];
        t /= grid_[d];
        lo[d] = td * tile_[d];
        hi[d] = std::min<Coord>(lo[d] + tile_[d], shape_[d]);
    }
    return HyperRect(std::move(lo), std::move(hi));
}

std::int64_t
TiledLayout::countTilesIntersecting(const HyperRect &r) const
{
    if (r.empty())
        return 0;
    std::int64_t count = 1;
    for (unsigned d = 0; d < dims(); ++d) {
        Coord rlo = std::max<Coord>(r.lo(d), 0);
        Coord rhi = std::min<Coord>(r.hi(d), shape_[d]);
        if (rhi <= rlo)
            return 0;
        count *= (rhi - 1) / tile_[d] - rlo / tile_[d] + 1;
    }
    return count;
}

BankSet
TiledLayout::banksFor(const HyperRect &r, const AddressMap &map) const
{
    BankSet banks;
    if (r.empty())
        return banks;
    // Per dim: the tile-grid range [lo, hi) r covers, clamped to the
    // array, and the tile-index stride of one step along the dim.
    const unsigned nd = dims();
    infs_assert(nd <= HyperRect::kMaxRank,
                "banksFor supports rank <= %u, not %u", HyperRect::kMaxRank,
                nd);
    std::array<std::int64_t, HyperRect::kMaxRank> lo{}, hi{}, stride{};
    std::int64_t mult = 1;
    for (unsigned d = 0; d < nd; ++d) {
        Coord rlo = std::max<Coord>(r.lo(d), 0);
        Coord rhi = std::min<Coord>(r.hi(d), shape_[d]);
        if (rhi <= rlo)
            return banks;
        lo[d] = rlo / tile_[d];
        hi[d] = (rhi - 1) / tile_[d] + 1;
        stride[d] = mult;
        mult *= grid_[d];
    }
    const unsigned num_banks = map.l3().numBanks;
    infs_assert(num_banks <= BankSet::kMaxBanks,
                "banksFor supports <= %u banks, not %u", BankSet::kMaxBanks,
                num_banks);
    const auto total = static_cast<std::int64_t>(map.totalArrays());
    const std::int64_t per_bank = map.arraysPerBank();

    // Leading dims r spans fully merge with the first partial one (dim m)
    // into one run of consecutive tile indices [base + off, base + off +
    // run) per combination of the dims above m.
    unsigned m = 0;
    while (m + 1 < nd && lo[m] == 0 && hi[m] == grid_[m])
        ++m;
    const std::int64_t run = (hi[m] - lo[m]) * stride[m];
    const std::int64_t off = lo[m] * stride[m];
    // tileToArray fills each bank's arrays before the next and wraps at
    // totalArrays, so a run's banks form one interval, or two when it
    // crosses the wrap, and a run of totalArrays tiles covers them all.
    if (run >= total) {
        for (BankId b = 0; b < num_banks; ++b)
            banks.insert(b);
        return banks;
    }

    auto isSeen = [&](std::int64_t b) {
        return banks.contains(static_cast<BankId>(b));
    };
    auto mark = [&](std::int64_t first, std::int64_t last) {
        for (std::int64_t b = first; b <= last; ++b)
            banks.insert(static_cast<BankId>(b));
    };
    // Array slot of tile index @p idx (tiles wrap at totalArrays).
    auto slot = [&](std::int64_t idx) {
        return idx < total ? idx : idx % total;
    };
    // The first tile index at or after @p idx whose bank is unseen (in
    // unwrapped index space). Requires an unseen bank.
    auto nextUnseen = [&](std::int64_t idx) {
        const std::int64_t pos = slot(idx);
        std::int64_t b = pos / per_bank;
        if (!isSeen(b))
            return idx;
        std::int64_t at = idx - pos + b * per_bank;
        do {
            at += per_bank;
            if (++b == num_banks)
                b = 0;
        } while (isSeen(b));
        return at;
    };

    // Runs step along dim n = m + 1 (a single step when m is the last
    // dim); the dims above n advance as an odometer. Runs along n do not
    // overlap, and a run reaches an unseen bank only if it ends at or
    // past the next unseen tile index, so the walk jumps straight to the
    // first such step instead of visiting every tile row: on layouts
    // that fit the arrays, each visited run marks a new bank. Stop once
    // every bank is seen.
    const unsigned n = m + 1;
    const std::int64_t n_lo = n < nd ? lo[n] : 0;
    const std::int64_t n_hi = n < nd ? hi[n] : 1;
    const std::int64_t step = n < nd ? stride[n] : 1;
    std::array<std::int64_t, HyperRect::kMaxRank> t = lo;
    while (banks.size() < num_banks) {
        std::int64_t base = off;
        for (unsigned d = n + 1; d < nd; ++d)
            base += t[d] * stride[d];
        std::int64_t k = n_lo;
        while (k < n_hi && banks.size() < num_banks) {
            const std::int64_t start = base + k * step;
            std::int64_t next = nextUnseen(start);
            if (next < start + run) {
                const std::int64_t first = slot(start);
                const std::int64_t last = slot(start + run - 1);
                if (first <= last) {
                    mark(first / per_bank, last / per_bank);
                } else {
                    mark(first / per_bank, num_banks - 1);
                    mark(0, last / per_bank);
                }
                if (banks.size() == num_banks)
                    break;
                next = nextUnseen(start + run);
            }
            // The first later step whose run ends at or past `next`.
            k = std::max(k + 1, (next - run + 1 - base + step - 1) / step);
        }
        unsigned d = n + 1;
        for (; d < nd; ++d) {
            if (++t[d] < hi[d])
                break;
            t[d] = lo[d];
        }
        if (d >= nd)
            break;
    }
    return banks;
}

std::int64_t
maskedCoordCount(Coord lo, Coord hi, Coord tile, Coord mask_lo,
                 Coord mask_hi)
{
    const Coord m_lo = std::max<Coord>(mask_lo, 0);
    const Coord m_hi = std::min<Coord>(mask_hi, tile);
    if (hi <= lo || m_hi <= m_lo)
        return 0;
    const Coord width = m_hi - m_lo;
    // Masked coordinates in [0, x), negated for the part of [x, 0) when
    // x < 0, so any range's count is a difference of two prefixes.
    auto prefix = [&](Coord x) {
        Coord q = x / tile;
        Coord pos = x % tile;
        if (pos < 0) {
            pos += tile;
            --q;
        }
        return q * width + std::clamp<Coord>(pos - m_lo, 0, width);
    };
    return prefix(hi) - prefix(lo);
}

bool
TiledLayout::fits(const AddressMap &map) const
{
    return static_cast<std::uint64_t>(numTiles()) <= map.totalArrays();
}

namespace {

/** Recursively enumerate factorizations of @p remaining across dims. */
void
enumerateTiles(std::int64_t remaining, unsigned dim, unsigned dims,
               std::vector<Coord> &cur,
               std::vector<std::vector<Coord>> &out)
{
    if (dim == dims - 1) {
        cur[dim] = remaining;
        out.push_back(cur);
        return;
    }
    for (Coord t = 1; t <= remaining; t *= 2) {
        if (remaining % t != 0)
            continue;
        cur[dim] = t;
        enumerateTiles(remaining / t, dim + 1, dims, cur, out);
    }
}

} // namespace

std::vector<std::vector<Coord>>
TilingPolicy::validTiles(const std::vector<Coord> &shape,
                         unsigned elem_bytes) const
{
    std::vector<std::vector<Coord>> out;
    const unsigned dims = static_cast<unsigned>(shape.size());
    if (dims == 0 || dims > 3)
        return out;
    const std::int64_t B = l3_.bitlines;
    const std::int64_t L =
        static_cast<std::int64_t>(lineBytes / elem_bytes);
    const std::int64_t W =
        static_cast<std::int64_t>(l3_.computeWays) * l3_.arraysPerWay;

    // Innermost dimension must align to the cache line so transposed lines
    // are not split across banks (§4.1).
    if (shape[0] % L != 0)
        return out;

    std::vector<Coord> cur(dims, 1);
    std::vector<std::vector<Coord>> all;
    enumerateTiles(B, 0, dims, cur, all);
    for (auto &tile : all) {
        // Constraint 1 holds by construction (prod == B).
        // Constraint 2: T0 * W mod L == 0.
        if ((tile[0] * W) % L != 0)
            continue;
        out.push_back(tile);
    }
    return out;
}

double
TilingPolicy::score(const std::vector<Coord> &tile,
                    const std::vector<Coord> &shape,
                    const LayoutHints &hints) const
{
    // Higher is better. Priority weights: reduction 1.5e3 per doubling,
    // shift imbalance 1e3 per log2 step, broadcast 1 ("we prioritize by
    // the order of reduction, shift, and broadcast", §4.1). Reduction
    // outranks broadcast outright; against shifts the balanced tile
    // wins once the imbalance cost of growing the reduced dimension
    // exceeds the extra in-tile reduction rounds.
    double s = 0.0;
    const unsigned dims = static_cast<unsigned>(tile.size());

    if (hints.reduceDim && *hints.reduceDim < dims) {
        unsigned r = *hints.reduceDim;
        // Larger tile on the reduced dimension allows more rounds of
        // in-memory reduction; cap at the array extent (a tile larger
        // than the data adds nothing).
        double useful =
            static_cast<double>(std::min<Coord>(tile[r], shape[r]));
        s += 1.5e3 * std::log2(useful);
    }
    if (!hints.shiftDims.empty()) {
        // Close-to-square across the shifted dims: penalize imbalance.
        double imbalance = 0.0;
        double target = std::log2(static_cast<double>(l3_.bitlines)) /
                        static_cast<double>(dims);
        for (unsigned d = 0; d < dims; ++d)
            imbalance += std::abs(std::log2(
                             static_cast<double>(tile[d])) - target);
        s += 1e3 * (-imbalance);
    }
    for (unsigned d : hints.broadcastDims) {
        (void)d;
        // Smaller innermost tile spreads a broadcast row over more banks.
        s += -std::log2(static_cast<double>(tile[0]));
        break; // One broadcast contribution is enough.
    }
    return s;
}

TileDecision
TilingPolicy::choose(const std::vector<Coord> &shape, unsigned elem_bytes,
                     const LayoutHints &hints) const
{
    TileDecision best;
    for (const auto &tile : validTiles(shape, elem_bytes)) {
        double sc = score(tile, shape, hints);
        if (!best.valid || sc > best.score) {
            best.valid = true;
            best.tile = tile;
            best.score = sc;
        }
    }
    return best;
}

std::vector<TileDecision>
TilingPolicy::candidates(const std::vector<Coord> &shape,
                         unsigned elem_bytes, const LayoutHints &hints,
                         unsigned max_n) const
{
    std::vector<TileDecision> out;
    if (max_n == 0)
        return out;
    std::vector<TileDecision> all;
    for (const auto &tile : validTiles(shape, elem_bytes)) {
        TileDecision d;
        d.valid = true;
        d.tile = tile;
        d.score = score(tile, shape, hints);
        all.push_back(std::move(d));
    }
    if (all.empty())
        return out;
    // Stable sort keeps enumeration order among equal scores, so
    // candidates[0] is exactly the choose() winner (choose keeps the
    // earliest tile on ties via its strict `>` comparison).
    std::stable_sort(all.begin(), all.end(),
                     [](const TileDecision &a, const TileDecision &b) {
                         return a.score > b.score;
                     });
    const unsigned dims = static_cast<unsigned>(shape.size());
    const bool pin_reduce = hints.reduceDim && *hints.reduceDim < dims;
    const Coord reduce_tile =
        pin_reduce ? all.front().tile[*hints.reduceDim] : 0;
    for (TileDecision &d : all) {
        if (pin_reduce && d.tile[*hints.reduceDim] != reduce_tile)
            continue;
        out.push_back(std::move(d));
        if (out.size() == max_n)
            break;
    }
    return out;
}

} // namespace infs
