/**
 * @file
 * Command-stream optimizer: a peephole/scheduling pass over the lowered
 * in-memory program, run between Alg. 2 lowering and backend execution
 * (SystemConfig::cmdOpt, DESIGN.md §13). Three sub-passes, in order:
 *
 *  1. redundant-command elimination — a command identical to an earlier
 *     one (all effect parameters, window rect, AND bank set) is removed
 *     when nothing in between wrote any cell it reads or writes and it is
 *     not in-place (re-execution is then byte-idempotent); broadcasts
 *     whose destination bitlines are provably already populated are the
 *     canonical case;
 *  2. movement coalescing — same-group shift commands restating one
 *     logical effect over different windows (the reduce lowering emits
 *     its rounds once per decomposed subtensor) merge into one wider
 *     command when their rects exactly partition the bounding union, no
 *     intervening command touches the moved cells, and the merged
 *     per-bank charge the timing walk levies (jit/cmd_effect.hh
 *     moveCharge) does not exceed either original's, so per-bank busy
 *     times never increase;
 *  3. Sync elision (SystemConfig::cmdOptSyncElision) — a barrier is
 *     removed when the hazard analyzer's cross-bank dependence test
 *     (jit/cmd_effect.hh asyncDependence, the analyzer's rule (c)) proves
 *     no RAW/WAW spans it: every asynchronous inter-tile writer still
 *     pending at the barrier has no dependent consumer before the next
 *     kept barrier. The final commit barrier is always kept while async
 *     movement is pending (§5.3).
 *
 * Every rewrite condition is stated over the command model of
 * jit/cmd_effect.hh, the one the analyzer checks with.
 *
 * Soundness: rewrites 1-2 preserve the bytes of every lattice cell by
 * construction (idempotent re-execution / exact window partition of one
 * cell-wise effect), and removing a Sync never changes bits on any
 * backend — the bit fabric and the functional backend both execute
 * commands in program order, so same-tile dependences are ordered
 * regardless of barrier placement. What elision must (and does) preserve
 * is hazard-analyzer cleanliness; infs-verify re-checks every optimized
 * stream and the JIT falls back to the raw stream when a verify hook
 * reports any diagnostic.
 */

#ifndef INFS_JIT_CMDOPT_HH
#define INFS_JIT_CMDOPT_HH

#include "jit/commands.hh"
#include "jit/tiling.hh"
#include "mem/address_map.hh"
#include "sim/config.hh"

namespace infs {

/**
 * Optimize @p prog in place for @p layout and return the work counters
 * (also stored into prog.opt). Per-kind command counts are refreshed via
 * recount(); jitTicks and slot tables are untouched.
 */
CmdStats optimizeCommands(InMemProgram &prog, const TiledLayout &layout,
                          const AddressMap &map, const SystemConfig &cfg);

} // namespace infs

#endif // INFS_JIT_CMDOPT_HH
