/**
 * @file
 * Bit-accurate fabric: executes JIT-lowered in-memory programs on real
 * ComputeSram arrays (one per tile), performing the genuine bit-serial
 * arithmetic and H-tree data movement. This is the end-to-end functional
 * validation path for Alg. 1 + Alg. 2 — results are cross-checked against
 * the tDFG interpreter in tests. It models function, not time (the
 * TensorController owns timing).
 *
 * Execution is bank-parallel on the host (DESIGN.md §10): tiles are
 * independent SRAM arrays, so per-tile work inside one command fans out
 * across a thread pool, and whole commands between two Sync barriers run
 * concurrently when their touched-tile sets are disjoint (lane
 * partitioning — the simulator-side mirror of the hardware's 64
 * independent banks). Results are bit-identical for every pool size.
 */

#ifndef INFS_UARCH_BIT_EXEC_HH
#define INFS_UARCH_BIT_EXEC_HH

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "bitserial/compute_sram.hh"
#include "jit/commands.hh"
#include "jit/tiling.hh"
#include "sim/thread_pool.hh"

namespace infs {

class FaultInjector;

/**
 * Host-side execution counters for one fabric: per-command-kind counts and
 * wall time (the CI regression-triage breakdown) plus tile-mask cache
 * effectiveness. Wall time is summed across concurrently executing lanes,
 * so it is CPU time spent in each kind, not elapsed time.
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
     * Execute every command of @p prog, bank-parallel when a thread pool
     * is attached. Between two Sync barriers, commands whose touched-tile
     * sets are disjoint execute concurrently (each lane in program
     * order); per-tile work inside a command fans out as well. Fault
     * sampling is hoisted into a sequential pre-pass in program order, so
     * the injected schedule — and therefore the result and every counter
     * — is identical for any pool size.
     */
    void execute(const InMemProgram &prog);

    /** Execute one command (inline, legacy single-command entry). */
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

    /** Attach a host thread pool (nullptr = inline execution). */
    void setThreadPool(ThreadPool *pool) { pool_ = pool; }

    /**
     * Debug-mode precondition check (DESIGN.md §10): before running a
     * sync segment's lanes concurrently, re-verify that the lanes'
     * touched-tile sets really are disjoint — the same invariant the
     * PR-2 command hazard analyzer proves at lowering time. Aborts on
     * violation; off by default (the analyzer already gates JIT output
     * when SystemConfig::verifyLevel == Full).
     */
    void setHazardCheck(bool on) { hazardCheck_ = on; }

    /** Tiles (lattice rects intersected, shift targets, broadcast
     * destinations) command @p cmd reads or writes. Sorted, unique. */
    std::vector<std::int64_t> touchedTiles(const InMemCommand &cmd) const;

    /** Snapshot of the per-command-kind counters and cache stats. */
    FabricStats stats() const;
    void resetStats();

    /**
     * Per-tile bitline mask of cmd.tensor cells (shift-mask aware).
     * Memoized: keyed by (tile, tensor bounds, positional window), built
     * word-level on first use, served from a sharded thread-safe cache
     * afterwards (same discipline as the JIT lowering memo). The layout
     * is immutable after construction, so entries never go stale; the
     * returned reference is stable for the fabric's lifetime.
     */
    const BitRow &tileMask(const InMemCommand &cmd, std::int64_t t,
                           bool apply_shift_mask) const;

    /** Fresh, uncached build of the same mask (differential tests). */
    BitRow tileMaskUncached(const InMemCommand &cmd, std::int64_t t,
                            bool apply_shift_mask) const;

  private:
    /** Deterministically pre-sampled SRAM upset for one command. */
    struct PlannedFault {
        std::size_t cmdIndex;
        std::int64_t tile;
        unsigned wl;
        unsigned bl;
    };

    /** Apply one pre-sampled upset: flip, detect via parity, repair. */
    void applyFault(const InMemCommand &cmd, const PlannedFault &pf);
    /** Sample (legacy inline path) and apply an upset for @p cmd. */
    void injectAndRepair(const InMemCommand &cmd);
    /** Execute @p cmd's state update without fault hooks. */
    void executeNoFault(const InMemCommand &cmd);
    /** Run commands [lo, hi) of @p prog as one sync segment. */
    void executeSegment(const InMemProgram &prog, std::size_t lo,
                        std::size_t hi,
                        const std::vector<const PlannedFault *> &faults);
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

    /** Allocate every tile in @p tiles (parallel loops must not race the
     * lazy allocation in tile()). */
    void ensureTiles(const std::vector<std::int64_t> &tiles);

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
     * emit callback; staged segment bits flow through per-source-tile
     * arenas so overlapping source/destination slots stay safe and both
     * phases fan out across the pool.
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

    /** parallelFor over @p tiles when a pool is attached, else inline. */
    void forEachTile(const std::vector<std::int64_t> &tiles,
                     const std::function<void(std::int64_t)> &fn);

    /** Everything that identifies one memoized tile mask. */
    struct MaskKey {
        std::int64_t tile = 0;
        bool positional = false;
        unsigned dim = 0;
        Coord maskLo = 0;
        Coord maskHi = 0;
        std::vector<Coord> lo; ///< cmd.tensor bounds (clip is derived).
        std::vector<Coord> hi;

        bool operator==(const MaskKey &o) const = default;
    };

    struct MaskKeyHash {
        std::size_t operator()(const MaskKey &k) const;
    };

    /** Sharded cache (the PR 3 JIT-memo discipline: hash-picked shard,
     * per-shard lock, node-stable entries). */
    static constexpr std::size_t kMaskShards = 16;
    struct MaskShard {
        std::mutex mu;
        std::unordered_map<MaskKey, BitRow, MaskKeyHash> map;
    };

    TiledLayout layout_;
    unsigned wordlines_;
    unsigned bitlines_;
    /** Hoisted HyperRect::array(layout_.shape()) — one per fabric, not
     * one per command execution. */
    HyperRect arrayRect_;
    FaultInjector *fault_ = nullptr;
    ThreadPool *pool_ = nullptr;
    bool hazardCheck_ = false;
    // Lazily allocated tiles (large layouts touch few in tests).
    mutable std::vector<std::unique_ptr<ComputeSram>> tiles_;

    mutable std::array<MaskShard, kMaskShards> maskShards_;
    mutable std::atomic<std::uint64_t> maskHits_{0};
    mutable std::atomic<std::uint64_t> maskMisses_{0};
    mutable std::array<std::atomic<std::uint64_t>, 6> kindCount_{};
    mutable std::array<std::atomic<std::uint64_t>, 6> kindNanos_{};
    /** Per-bank-group work-unit counters (FabricStats::bankOps). */
    std::array<std::atomic<std::uint64_t>, FabricStats::kBankSlots>
        bankOps_{};
    /** Scratch-alloc total at the last resetStats() (snapshots report the
     * delta; tiles never reset their own counters). */
    std::uint64_t scratchBase_ = 0;
};

} // namespace infs

#endif // INFS_UARCH_BIT_EXEC_HH
