/**
 * @file
 * Bit-accurate fabric: executes JIT-lowered in-memory programs on real
 * ComputeSram arrays (one per tile), performing the genuine bit-serial
 * arithmetic and H-tree data movement. This is the end-to-end functional
 * validation path for Alg. 1 + Alg. 2 — results are cross-checked against
 * the tDFG interpreter in tests. It models function, not time (the
 * TensorController owns timing).
 *
 * A program runs start to finish on the calling thread, in program
 * order (DESIGN.md §10): per-tile tasks are too small to outweigh a
 * worker wake-up, so the fabric takes no thread pool.
 */

#ifndef INFS_UARCH_BIT_EXEC_HH
#define INFS_UARCH_BIT_EXEC_HH

#include <array>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "bitserial/compute_sram.hh"
#include "jit/commands.hh"
#include "jit/tiling.hh"

namespace infs {

class FaultInjector;

/**
 * Host-side execution counters for one fabric: per-command-kind counts and
 * wall time (the CI regression-triage breakdown) plus tile-mask cache
 * effectiveness. Wall time is the host time spent in each kind on the
 * thread that ran the program.
 */
struct FabricStats {
    struct Kind {
        std::uint64_t count = 0;
        double wallMs = 0.0;
    };
    /** Indexed by static_cast<size_t>(CmdKind). */
    std::array<Kind, 6> byKind{};
    std::uint64_t maskCacheHits = 0;
    std::uint64_t maskCacheMisses = 0;
    /** Scratch-row pool allocations summed across tiles (steady-state
     * programs reuse pooled rows, so this stays flat after warmup). */
    std::uint64_t scratchAllocs = 0;

    /**
     * Deterministic per-bank-group occupancy: work units (per-tile command
     * visits) folded into kBankSlots groups by tile index. Unlike wallMs
     * this is a pure function of the command stream, so the fat-binary
     * dispatcher may consume it without breaking reproducibility
     * (DESIGN.md §14).
     */
    static constexpr unsigned kBankSlots = 64;
    std::array<std::uint64_t, kBankSlots> bankOps{};

    /** Occupancy imbalance over the active bank groups: max/mean - 1;
     * 0 when balanced or when nothing executed yet. */
    double
    occupancyImbalance() const
    {
        std::uint64_t total = 0, mx = 0;
        unsigned used = 0;
        for (std::uint64_t v : bankOps) {
            if (v == 0)
                continue;
            total += v;
            if (v > mx)
                mx = v;
            ++used;
        }
        if (used == 0)
            return 0.0;
        return static_cast<double>(mx) * used / static_cast<double>(total) -
               1.0;
    }
};

/** One compute SRAM per tile of a tiled layout, plus command execution. */
class BitAccurateFabric
{
  public:
    /**
     * @param layout The tiled transposed layout (tile volume must not
     * exceed @p bitlines).
     */
    BitAccurateFabric(TiledLayout layout, unsigned wordlines = 256,
                      unsigned bitlines = 256);

    const TiledLayout &layout() const { return layout_; }

    /**
     * Transpose a dense array (lattice-anchored, dim 0 innermost) into
     * the fabric at wordline slot @p wl, tile by tile in bitline order.
     * Bitlines that hold no lattice cell and wordlines outside
     * [wl, wl + 32) are left untouched.
     */
    void loadArray(std::span<const float> data, unsigned wl);

    /** Inverse of loadArray: read the fabric back to a dense array. */
    void storeArray(std::span<float> data, unsigned wl) const;

    /** Read a single lattice element from slot @p wl. */
    float element(const std::vector<Coord> &pt, unsigned wl) const;

    /**
     * Execute every command of @p prog in program order on the calling
     * thread. Sync commands only order commands, so they are skipped and
     * not counted.
     */
    void execute(const InMemProgram &prog);

    /** Execute one command, then sample and repair its SRAM upset. */
    void executeCommand(const InMemCommand &cmd);

    /** Direct access for tests. */
    ComputeSram &tile(std::int64_t t);

    /**
     * Attach a fault injector (nullptr detaches). Compute commands then
     * sample SRAM wordline bit flips: the flip lands in the command's
     * destination slot, row parity detects it, and the repair path
     * restores the corrupted element — so execution stays functionally
     * correct under injected faults (asserted against the tDFG
     * interpreter in tests).
     */
    void attachFaultInjector(FaultInjector *f) { fault_ = f; }

    /** Snapshot of the per-command-kind counters and cache stats. */
    FabricStats stats() const;

    /**
     * Per-tile bitline mask of cmd.tensor cells (shift-mask aware).
     * Memoized by tile-relative geometry: the clip of cmd.tensor against
     * the array and tile @p t, relative to the tile origin, plus the
     * positional window (dim, maskLo, maskHi) when @p apply_shift_mask.
     * The mask depends on nothing else, so every interior tile of a
     * command shares one entry. Built word-level on first use; the layout
     * is immutable after construction, so entries never go stale and the
     * returned reference is stable for the fabric's lifetime.
     */
    const BitRow &tileMask(const InMemCommand &cmd, std::int64_t t,
                           bool apply_shift_mask) const;

    /** Fresh, uncached build of the same mask (differential tests). */
    BitRow tileMaskUncached(const InMemCommand &cmd, std::int64_t t,
                            bool apply_shift_mask) const;

  private:
    /** Sample an upset for @p cmd (tile, wordline, bitline), flip it,
     * detect it via row parity and repair it. */
    void injectAndRepair(const InMemCommand &cmd);
    /**
     * Tile-order transfer walk shared by loadArray and storeArray: every
     * tile in index order, each 64-bitline word of it that holds a
     * lattice cell, as fn(tile, word index, that word's visible runs).
     */
    using ChunkFn = std::function<void(std::int64_t, unsigned,
                                       std::span<const TileRun>)>;
    void forEachChunk(const ChunkFn &fn) const;

    /** Bitline index delta for a unit step along @p dim inside a tile. */
    std::int64_t strideInTile(unsigned dim) const;

    /** Word-level mask construction backing tileMask (setRange runs over
     * the innermost contiguous dimension). */
    BitRow buildTileMask(const InMemCommand &cmd, std::int64_t t,
                         bool apply_shift_mask) const;

    /**
     * emit(srcPos, dstTile, dstPos, len, fill) for one coalesced run.
     * fill == false: @p len consecutive source elements starting at
     * srcPos land at dstPos. fill == true: the single source element at
     * srcPos replicates across @p len consecutive destinations (the
     * H tree's one-to-many mode, scattered as word-level range fills).
     */
    using MoveRunFn = std::function<void(unsigned, std::int64_t, unsigned,
                                         unsigned, bool)>;

    /**
     * Enumerate the maximal coalesced runs of a tile-clipped part moved
     * by @p dist along @p dim: each run is contiguous in source bitlines
     * (dim 0 is innermost) and lands contiguously in exactly one
     * destination tile. @p window applies the Alg. 2 positional shift
     * mask [maskLo, maskHi); destinations outside the array shape along
     * @p dim are discarded (§3.2).
     */
    void forEachMoveRun(const HyperRect &part, unsigned dim, bool window,
                        Coord maskLo, Coord maskHi, Coord dist,
                        const MoveRunFn &fn) const;

    /** Broadcast special case (dim 0, unit span): per outer coordinate
     * the bcCount replicas of one source element tile a contiguous dim-0
     * destination run — emit fill runs split at tile boundaries. */
    void forEachFillRun(const HyperRect &part, Coord bcDist, Coord bcCount,
                        const MoveRunFn &fn) const;

    /** Generic broadcast enumeration: all bcCount replica moves of a
     * tile-clipped part in ONE odometer pass (the per-replica loop sits
     * inside, so scratch vectors are built once per part, not once per
     * replica — broadcasts have bcCount in the thousands). */
    void forEachBroadcastRun(const HyperRect &part, unsigned dim,
                             Coord span, Coord bcDist, Coord bcCount,
                             const MoveRunFn &fn) const;

    /**
     * Batched gather/scatter of whole bitline word-spans between tiles
     * (replaces the per-element PendingWrite path). @p enumerate is
     * called once per source tile with that tile's clipped part and an
     * emit callback; every run is staged before any is written, so
     * overlapping source/destination slots stay safe.
     */
    void moveRuns(const std::vector<std::int64_t> &src_tiles,
                  const HyperRect &clipped, unsigned bits, unsigned wl_src,
                  unsigned wl_dst,
                  const std::function<void(const HyperRect &,
                                           const MoveRunFn &)> &enumerate);

    void execCompute(const InMemCommand &cmd);
    void execIntraShift(const InMemCommand &cmd);
    void execInterShift(const InMemCommand &cmd);
    void execBroadcast(const InMemCommand &cmd);
    void execBroadcastVal(const InMemCommand &cmd);

    /** Occupancy accounting for one per-tile command visit: one work
     * unit, folded into a bank group by tile index. */
    void
    countVisit(std::int64_t t)
    {
        ++bankOps_[static_cast<std::size_t>(t) % FabricStats::kBankSlots];
    }

    /**
     * Everything buildTileMask reads: the clip of cmd.tensor against the
     * array and one tile, relative to that tile's origin, and the
     * positional window (zero when unused). An empty clip has one
     * all-zero key.
     */
    struct MaskKey {
        std::array<std::int32_t, HyperRect::kMaxRank> lo{};
        std::array<std::int32_t, HyperRect::kMaxRank> hi{};
        Coord maskLo = 0;
        Coord maskHi = 0;
        unsigned dim = 0;
        bool positional = false;

        bool operator==(const MaskKey &o) const = default;
    };

    struct MaskKeyHash {
        std::size_t operator()(const MaskKey &k) const;
    };

    MaskKey maskKey(const InMemCommand &cmd, std::int64_t t,
                    bool apply_shift_mask) const;

    TiledLayout layout_;
    unsigned wordlines_;
    unsigned bitlines_;
    /** Hoisted HyperRect::array(layout_.shape()) — one per fabric, not
     * one per command execution. */
    HyperRect arrayRect_;
    FaultInjector *fault_ = nullptr;
    // Lazily allocated tiles (large layouts touch few in tests).
    mutable std::vector<std::unique_ptr<ComputeSram>> tiles_;

    mutable std::unordered_map<MaskKey, BitRow, MaskKeyHash> masks_;
    mutable std::uint64_t maskHits_ = 0;
    mutable std::uint64_t maskMisses_ = 0;
    std::array<std::uint64_t, 6> kindCount_{};
    std::array<std::uint64_t, 6> kindNanos_{};
    /** Per-bank-group work-unit counters (FabricStats::bankOps). */
    std::array<std::uint64_t, FabricStats::kBankSlots> bankOps_{};
};

} // namespace infs

#endif // INFS_UARCH_BIT_EXEC_HH
