/**
 * @file
 * Transposed data layout selection (§4.1). A tile is the set of data
 * dimensions mapped to one SRAM array; the runtime searches tile sizes
 * meeting the paper's two constraints and picks one with movement-aware
 * heuristics (reduction > shift > broadcast priority).
 */

#ifndef INFS_JIT_TILING_HH
#define INFS_JIT_TILING_HH

#include <algorithm>
#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include "jit/bank_set.hh"
#include "mem/address_map.hh"
#include "sim/config.hh"
#include "sim/expected.hh"
#include "tdfg/graph.hh"

namespace infs {

/** Data-movement hints the compiler derives from the tDFG (§3.4). */
struct LayoutHints {
    std::set<unsigned> shiftDims;      ///< Dimensions mv nodes shift along.
    std::set<unsigned> broadcastDims;  ///< Dimensions bc nodes expand.
    std::optional<unsigned> reduceDim; ///< Reduced dimension, if any.

    /** Derive hints by scanning a tDFG's data-movement nodes. */
    static LayoutHints fromGraph(const TdfgGraph &g);
};

/**
 * Consecutive bitlines of one tile that hold consecutive dense lattice
 * elements: bitlines [bitline, bitline + len) hold the elements at dense
 * (row-major, dim 0 innermost) indices [dense, dense + len).
 */
struct TileRun {
    std::int64_t bitline = 0;
    std::int64_t dense = 0;
    std::int64_t len = 0;
};

/**
 * The tiled, transposed layout of one array: how lattice coordinates map
 * to (tile, position-in-tile), and tiles map contiguously to SRAM arrays.
 */
class TiledLayout
{
  public:
    TiledLayout() = default;
    TiledLayout(std::vector<Coord> shape, std::vector<Coord> tile);

    /**
     * Validating factory: rank mismatch or a non-positive tile dimension
     * comes back as a LayoutConstraint diagnostic (the constructor
     * asserts instead). Use this on user-supplied tiles (forceTile).
     */
    static Expected<TiledLayout> make(std::vector<Coord> shape,
                                      std::vector<Coord> tile);

    unsigned dims() const { return static_cast<unsigned>(shape_.size()); }
    const std::vector<Coord> &shape() const { return shape_; }
    const std::vector<Coord> &tile() const { return tile_; }
    Coord tileSize(unsigned d) const { return tile_[d]; }

    /** Tiles per dimension (ceil division; boundary tiles possible). */
    const std::vector<Coord> &grid() const { return grid_; }

    /** Total number of tiles. */
    std::int64_t numTiles() const;

    /** Bitlines per tile (product of tile dims). */
    std::int64_t tileVolume() const;

    /** Linear tile index containing a lattice coordinate. */
    std::int64_t tileOf(const std::vector<Coord> &pt) const;

    /** Bitline index within the tile for a lattice coordinate. */
    std::int64_t positionInTile(const std::vector<Coord> &pt) const;

    /** Linear tile indices whose tiles intersect @p r. */
    std::vector<std::int64_t> tilesIntersecting(const HyperRect &r) const;

    /**
     * Lattice rectangle covered by tile @p t, clamped to the array shape
     * (boundary tiles are partial). Lets per-tile walks iterate O(tile
     * volume) cells instead of filtering the whole tensor by tileOf().
     */
    HyperRect tileRect(std::int64_t t) const;

    /** Number of tiles intersecting @p r (O(dims), no enumeration). */
    std::int64_t countTilesIntersecting(const HyperRect &r) const;

    /**
     * L3 banks owning any tile intersecting @p r. Tiles fill banks
     * contiguously (§5.2), so each run of consecutive tile indices covers
     * one bank interval, split at most once where tile indices wrap at
     * totalArrays. The leading dims @p r spans fully merge into one run,
     * and the walk along the next dim jumps to the runs that reach a bank
     * not yet in the set: O(banks) on layouts that fit the arrays, not
     * O(tile rows). Rank at most HyperRect::kMaxRank and at most
     * BankSet::kMaxBanks banks; marks the banks straight into the
     * returned inline set, so it never allocates.
     */
    BankSet banksFor(const HyperRect &r, const AddressMap &map) const;

    /** Whether a whole-array element count fits the available arrays. */
    bool fits(const AddressMap &map) const;

    /**
     * Visit the lattice cells held by bitlines [@p bl_lo, @p bl_hi) of the
     * tile whose lattice origin is @p origin (tile-aligned, one coordinate
     * per dim), as one TileRun per visible dim-0 row piece, in bitline
     * order. In a partial boundary tile, bitlines whose coordinate lies
     * beyond the shape hold no cell and are skipped. Requires
     * 0 <= bl_lo <= bl_hi <= tileVolume(). O(dims) per tile row: the one
     * home of the bitline <-> dense-index arithmetic shared by the bit
     * fabric's transfers and the word model's shifts.
     */
    template <class Fn>
    void
    forEachTileRun(const Coord *origin, std::int64_t bl_lo,
                   std::int64_t bl_hi, Fn &&fn) const
    {
        const Coord tile0 = tile_[0];
        const std::int64_t ext0 =
            std::min<std::int64_t>(tile0, shape_[0] - origin[0]);
        std::int64_t bl = bl_lo;
        while (bl < bl_hi) {
            const std::int64_t row_lo = bl - bl % tile0;
            const std::int64_t next = std::min(bl_hi, row_lo + tile0);
            const std::int64_t end = std::min(next, row_lo + ext0);
            if (bl < end) {
                std::int64_t rest = bl / tile0;
                std::int64_t dense = origin[0] + (bl - row_lo);
                std::int64_t stride = shape_[0];
                bool visible = true;
                for (std::size_t d = 1; d < shape_.size(); ++d) {
                    const Coord c = origin[d] + rest % tile_[d];
                    rest /= tile_[d];
                    if (c >= shape_[d]) {
                        visible = false;
                        break;
                    }
                    dense += c * stride;
                    stride *= shape_[d];
                }
                if (visible)
                    fn(TileRun{bl, dense, end - bl});
            }
            bl = next;
        }
    }

  private:
    std::vector<Coord> shape_;
    std::vector<Coord> tile_;
    std::vector<Coord> grid_;
};

/**
 * Number of coordinates x in [@p lo, @p hi) whose in-tile position (x mod
 * @p tile, taken in [0, tile)) lies in [@p mask_lo, @p mask_hi). Positions
 * repeat with period @p tile, so this is O(1): whole periods times the
 * clamped mask width, plus a partial period at each end. The one home of
 * the shift-mask element count (Alg. 2 masks, the timing walk, cmdopt).
 */
std::int64_t maskedCoordCount(Coord lo, Coord hi, Coord tile, Coord mask_lo,
                              Coord mask_hi);

/** Result of the runtime's tile-size search. */
struct TileDecision {
    bool valid = false;
    std::vector<Coord> tile;
    double score = 0.0;
};

/**
 * §4.1 tile-size search. @p elem_bytes is the element size, @p shape the
 * array shape (dim 0 innermost / contiguous).
 */
class TilingPolicy
{
  public:
    explicit TilingPolicy(const L3Config &l3) : l3_(l3) {}

    /**
     * All tile sizes satisfying the constraints:
     *  (1) prod(T_i) == bitlines per SRAM array;
     *  (2) T0 * W mod L == 0 (W arrays/bank, L elements/line);
     * plus the array's innermost dimension aligning to the cache line
     * (S0 mod L == 0). Returns empty when the array is not tileable (then
     * in-memory computing is disabled, §4.1).
     */
    std::vector<std::vector<Coord>>
    validTiles(const std::vector<Coord> &shape, unsigned elem_bytes) const;

    /**
     * Pick a tile using the movement heuristics:
     *  - reduction favors a large tile on the reduced dimension;
     *  - shifts favor close-to-square tiles;
     *  - broadcast reads favor a small innermost tile;
     *  - priority: reduction > shift > broadcast.
     */
    TileDecision choose(const std::vector<Coord> &shape, unsigned elem_bytes,
                        const LayoutHints &hints) const;

    /** Score one candidate (exposed for the Fig. 16/17 oracle sweep). */
    double score(const std::vector<Coord> &tile,
                 const std::vector<Coord> &shape,
                 const LayoutHints &hints) const;

    /**
     * Fat-binary candidate set (DESIGN.md §14): the choose() winner first,
     * then the next-best-scoring valid tiles, capped at @p max_n. When the
     * hints name a reduced dimension, every candidate shares the winner's
     * tile size on that dimension — the in-memory reduction tree's shape
     * (and therefore the non-associative fp sum order) is a function of
     * tileSize(reduceDim), so pinning it keeps all candidates bit-identical
     * and the dispatcher free to pick any of them. Deterministic: ties
     * resolve by validTiles() enumeration order. Empty when the shape is
     * untileable.
     */
    std::vector<TileDecision>
    candidates(const std::vector<Coord> &shape, unsigned elem_bytes,
               const LayoutHints &hints, unsigned max_n) const;

  private:
    L3Config l3_;
};

} // namespace infs

#endif // INFS_JIT_TILING_HH
