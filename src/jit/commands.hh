/**
 * @file
 * In-memory commands the JIT runtime lowers the tDFG into (§4.2) and the
 * tensor controllers execute (§5.2). Shift commands carry the five
 * arguments of Alg. 2: tensor, dimension, shift mask (positions within the
 * tile), and inter-/intra-tile distances.
 */

#ifndef INFS_JIT_COMMANDS_HH
#define INFS_JIT_COMMANDS_HH

#include <string>
#include <vector>
#include <utility>

#include "bitserial/latency.hh"
#include "sim/types.hh"
#include "stream/pattern.hh"
#include "tdfg/hyperrect.hh"

namespace infs {

/** Kinds of in-memory commands. */
enum class CmdKind : std::uint8_t {
    IntraShift,   ///< Move bitlines within each SRAM array (H tree).
    InterShift,   ///< Move bitlines across tiles (H tree + NoC).
    Compute,      ///< Bit-serial op across selected bitlines.
    BroadcastBl,  ///< Replicate a tile row/column to aligned bitlines.
    BroadcastVal, ///< Broadcast an immediate to selected bitlines.
    Sync,         ///< Global barrier for inter-tile movement (§4.2).
};

const char *cmdKindName(CmdKind k);

/** One lowered in-memory command. */
struct InMemCommand {
    CmdKind kind = CmdKind::Compute;

    /**
     * Producing tDFG node. Commands sharing a group come from one node's
     * tile decomposition (Alg. 1): they touch disjoint tiles, so their
     * SRAM arrays execute them concurrently; ordering applies between
     * groups (per-bank synchronous issue, §4.2).
     */
    unsigned group = 0;

    /** Decomposed subtensor this command applies to. */
    HyperRect tensor;

    // --- Shift / broadcast fields (Alg. 2). ---
    unsigned dim = 0;        ///< Shift dimension k.
    Coord maskLo = 0;        ///< Shift mask [maskLo, maskHi) within tile.
    Coord maskHi = 0;
    Coord interTileDist = 0; ///< Tiles to cross (sign = direction).
    Coord intraTileDist = 0; ///< Bitlines to move within the tile.
    Coord bcCount = 1;       ///< BroadcastBl: replication count.
    Coord bcDist = 0;        ///< BroadcastBl: destination offset.

    // --- Compute fields. ---
    BitOp op = BitOp::Add;
    DType dtype = DType::Fp32;
    unsigned wlA = 0;        ///< Source operand wordline.
    unsigned wlB = 0;        ///< Second operand wordline.
    unsigned wlDst = 0;      ///< Destination wordline.
    bool useImm = false;
    double imm = 0.0;

    /** Banks whose tiles this command touches (step 3 of §4.2). */
    std::vector<BankId> banks;

    /** One-line rendering for traces and golden tests. */
    std::string str() const;

    bool operator==(const InMemCommand &) const = default;
};

/**
 * Work performed by the command-stream optimizer (src/jit/cmdopt.hh) on
 * one lowered program. Every counter is a count of commands *removed* or
 * barriers *elided*, so the optimized stream's per-kind counts are never
 * larger than the raw stream's (pinned by tests/jit/test_cmdopt_property).
 */
struct CmdStats {
    unsigned fusedMoves = 0;        ///< Shift commands merged into wider ones.
    unsigned dedupedBroadcasts = 0; ///< Redundant broadcasts removed.
    unsigned dedupedCommands = 0;   ///< Other provably redundant commands.
    unsigned hoistedMasks = 0;      ///< Repeated tile-mask setups merged.
    unsigned elidedSyncs = 0;       ///< Barriers the hazard facts disprove.
    unsigned bailouts = 0;          ///< Optimized stream rejected; raw kept.

    void
    accumulate(const CmdStats &o)
    {
        fusedMoves += o.fusedMoves;
        dedupedBroadcasts += o.dedupedBroadcasts;
        dedupedCommands += o.dedupedCommands;
        hoistedMasks += o.hoistedMasks;
        elidedSyncs += o.elidedSyncs;
        bailouts += o.bailouts;
    }

    bool operator==(const CmdStats &) const = default;
};

/** A fully lowered in-memory program plus lowering statistics. */
struct InMemProgram {
    std::vector<InMemCommand> commands;

    /** Wordline home slot (first wordline) assigned to each array. */
    std::vector<std::pair<ArrayId, unsigned>> arraySlots;
    /** Where each output array's result tensor lives after execution. */
    std::vector<std::pair<ArrayId, unsigned>> outputSlots;

    // Lowering statistics for Fig. 13/14 and the JIT-overhead study.
    unsigned numIntraShift = 0;
    unsigned numInterShift = 0;
    unsigned numCompute = 0;
    unsigned numBroadcast = 0;
    unsigned numSync = 0;
    Tick jitTicks = 0;       ///< Modeled JIT lowering time (§4.2).
    bool memoized = false;   ///< Reused from the memoization cache.
    CmdStats opt;            ///< Command-optimizer work on this program.

    void
    recount()
    {
        numIntraShift = numInterShift = numCompute = numBroadcast =
            numSync = 0;
        for (const InMemCommand &c : commands) {
            switch (c.kind) {
              case CmdKind::IntraShift: ++numIntraShift; break;
              case CmdKind::InterShift: ++numInterShift; break;
              case CmdKind::Compute: ++numCompute; break;
              case CmdKind::BroadcastBl:
              case CmdKind::BroadcastVal: ++numBroadcast; break;
              case CmdKind::Sync: ++numSync; break;
            }
        }
    }
};

} // namespace infs

#endif // INFS_JIT_COMMANDS_HH
