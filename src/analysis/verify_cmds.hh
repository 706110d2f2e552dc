/**
 * @file
 * Level-2 static analysis: the lowered-command hazard analyzer. Checks an
 * InMemProgram against the §4.2 execution model — per-bank synchronous
 * issue, asynchronous inter-tile movement committed only by Sync — and
 * reports: (a) intra-group tile overlaps breaking Alg. 1's disjointness,
 * (b) RAW hazards whose dependence banks carry no ordering edge, (c)
 * InterShift/BroadcastBl results consumed without an intervening Sync,
 * and (d) wordline slot-capacity and LOT-consistency violations
 * (DESIGN.md §9).
 */

#ifndef INFS_ANALYSIS_VERIFY_CMDS_HH
#define INFS_ANALYSIS_VERIFY_CMDS_HH

#include "analysis/diag.hh"
#include "jit/commands.hh"
#include "jit/tiling.hh"
#include "mem/address_map.hh"
#include "sim/config.hh"

namespace infs {

/**
 * Run every command-stream invariant check over @p prog as lowered for
 * @p layout. @p map resolves tiles to banks (dependences are tracked at
 * bank granularity: a command only touches cells its bank set owns);
 * @p cfg supplies the element type and L3 geometry. Never aborts.
 */
VerifyReport verifyCommands(const InMemProgram &prog,
                            const TiledLayout &layout, const AddressMap &map,
                            const SystemConfig &cfg);

} // namespace infs

#endif // INFS_ANALYSIS_VERIFY_CMDS_HH
