#include "jit/decompose.hh"

#include <array>

#include "sim/logging.hh"

namespace infs {

namespace {

/** The intervals one dimension of a tensor splits into. */
struct DimSplit {
    std::pair<Coord, Coord> part[3];
    unsigned count = 0;
};

/** Alg. 1 along one dimension: split [p, q) at the boundaries of tile
 * size t into head, middle and tail intervals, dropping empty ones. */
DimSplit
splitInterval(Coord p, Coord q, Coord t)
{
    // Lines 3-4: align p and q to tile boundaries.
    auto floordiv = [](Coord a, Coord b) {
        return a >= 0 ? a / b : -((-a + b - 1) / b);
    };
    const Coord a = floordiv(p, t) * t;
    const Coord b = floordiv(p + t - 1, t) * t;
    const Coord c = floordiv(q, t) * t;
    DimSplit s;
    auto emit = [&](Coord lo, Coord hi) {
        if (lo < hi)
            s.part[s.count++] = {lo, hi};
    };
    if (b <= c) {
        // a <= p < b <= c <= q < d: head / middle / tail (Alg. 1 l. 8-16).
        if (a < p) {
            emit(p, b); // Head interval (p not tile-aligned).
            emit(b, c); // Possible middle interval.
        } else {
            emit(p, c); // p aligns with a: one aligned interval.
        }
        if (c < q)
            emit(c, q); // Possible tail interval.
    } else {
        // Entire range within one tile: no decomposition in this dim.
        emit(p, q);
    }
    return s;
}

/** Append to @p out every subtensor that takes @p rect's bounds below
 * @p dim and one interval of @p splits per dim from @p dim on. */
void
decomposeFrom(HyperRect &rect, const DimSplit *splits, unsigned dim,
              std::vector<HyperRect> &out)
{
    if (dim == rect.dims()) {
        out.push_back(rect);
        return;
    }
    const DimSplit &s = splits[dim];
    for (unsigned i = 0; i < s.count; ++i) {
        rect = rect.withDim(dim, s.part[i].first, s.part[i].second);
        decomposeFrom(rect, splits, dim + 1, out);
    }
}

} // namespace

Expected<std::vector<HyperRect>>
tryDecomposeTensor(const HyperRect &tensor, const std::vector<Coord> &tile)
{
    using Result = Expected<std::vector<HyperRect>>;
    if (tensor.dims() != tile.size()) {
        return Result::failure(
            ErrCode::LayoutConstraint,
            "tensor rank " + std::to_string(tensor.dims()) +
                " != tile rank " + std::to_string(tile.size()));
    }
    for (std::size_t d = 0; d < tile.size(); ++d) {
        if (tile[d] <= 0) {
            return Result::failure(ErrCode::LayoutConstraint,
                                   "tile dim " + std::to_string(d) +
                                       " must be positive");
        }
    }
    std::vector<HyperRect> out;
    if (tensor.empty())
        return out;
    // The subtensors are the cross product of each dim's intervals.
    std::array<DimSplit, HyperRect::kMaxRank> splits;
    std::size_t count = 1;
    for (unsigned d = 0; d < tensor.dims(); ++d) {
        splits[d] = splitInterval(tensor.lo(d), tensor.hi(d), tile[d]);
        count *= splits[d].count;
    }
    out.reserve(count);
    HyperRect rect = tensor;
    decomposeFrom(rect, splits.data(), 0, out);
    return out;
}

} // namespace infs
