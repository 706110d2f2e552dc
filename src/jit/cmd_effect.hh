/**
 * @file
 * The lowered command model: what one InMemCommand reads, writes, depends
 * on and costs, resolved against its tiled layout. The hazard analyzer
 * (analysis/verify_cmds), the command optimizer (jit/cmdopt) and the
 * timing walk (uarch/tensor_controller) all read these definitions, so
 * the optimizer licenses its rewrites with exactly the facts the analyzer
 * checks, and its coalescing guard compares exactly what the walk charges.
 *
 * The bit fabric and the word model keep their own command geometry: they
 * are the independent references the checksum diffs rely on.
 */

#ifndef INFS_JIT_CMD_EFFECT_HH
#define INFS_JIT_CMD_EFFECT_HH

#include <cstdint>

#include "jit/commands.hh"
#include "jit/tiling.hh"
#include "mem/address_map.hh"
#include "sim/config.hh"

namespace infs {

/** Wordline slots per array for the configured element type (e.g. 7 for
 * fp32 on 256-wordline arrays). The top slot is reserved for constants;
 * fewer wordlines than two slots give 0. */
unsigned wordlineSlots(const SystemConfig &cfg);

/** The wordline slots (slot = start wordline) a command reads: at most
 * two, held inline. */
struct ReadSlots {
    unsigned slot[2] = {0, 0};
    unsigned count = 0;

    const unsigned *begin() const { return slot; }
    const unsigned *end() const { return slot + count; }

    bool
    contains(unsigned s) const
    {
        for (unsigned r : *this) {
            if (r == s)
                return true;
        }
        return false;
    }
};

ReadSlots readSlots(const InMemCommand &c);

inline bool
isShift(CmdKind k)
{
    return k == CmdKind::IntraShift || k == CmdKind::InterShift;
}

/** True when the command's effect depends on its `dim` field: shifts,
 * BroadcastBl, and computes carrying a positional mask. */
bool usesDim(const InMemCommand &c);

/**
 * True when @p a and @p b have the same byte-level effect except for the
 * window rect and the bank set: every other field that defines what a
 * command does, dtype included. The reduce lowering restates one effect
 * per decomposed subtensor this way.
 */
bool sameEffect(const InMemCommand &a, const InMemCommand &b);

/**
 * One command's effect resolved against the layout. Dependences are
 * bank-granular: a command only reads/writes cells whose owning bank is
 * in its bank set (per-bank synchronous issue, §4.2), so the rects are
 * over-approximations the bank filter tightens.
 */
struct CmdEffect {
    HyperRect src; ///< Read region, clamped to the array bounds.
    HyperRect dst; ///< Written region, clamped to the array bounds.
    /** Inter-tile effect: the write lands in other banks asynchronously
     * and becomes visible only after a Sync (InterShift always; a
     * BroadcastBl whose replication escapes one tile). */
    bool async = false;
};

/** Resolve @p c (not a Sync; rank and dim already checked against
 * @p layout) within @p array_rect, the layout's array bounds. */
CmdEffect effectOf(const InMemCommand &c, const TiledLayout &layout,
                   const HyperRect &array_rect);

/** How a later command depends on an asynchronous writer. */
enum class CmdDep : std::uint8_t { None, Raw, Waw };

/**
 * The cross-bank dependence of command @p r on the asynchronous writer
 * @p w issued before it: Raw when r reads w's destination slot over cells
 * w writes, Waw when r overwrites them, in both cases only where the
 * overlap's banks meet r's banks. Same-group commands restate one effect
 * and never depend on each other. A dependence with no Sync between the
 * two is a hazard; without one the Sync between them is elidable.
 */
CmdDep asyncDependence(const InMemCommand &w, const CmdEffect &we,
                       const InMemCommand &r, const CmdEffect &re,
                       const TiledLayout &layout, const AddressMap &map);

/** Elements of @p c's tensor selected by its mask: the masked dim-k
 * coordinates for shifts and masked computes, every cell otherwise. */
std::uint64_t maskedElements(const InMemCommand &c,
                             const TiledLayout &layout);

/**
 * The per-bank busy-time charge the timing walk levies for one InterShift
 * or BroadcastBl. The masked bytes serialize through each involved bank's
 * H-tree port; an InterShift whose tile delta crosses a bank boundary
 * also serializes its crossing share into the NoC.
 */
struct MoveCharge {
    double bytesOnce = 0.0;     ///< Masked bytes moved per execution.
    Tick htree = 0;             ///< Row move + 8 + H-tree serialization.
    std::int64_t tileDelta = 0; ///< |Linear tile-index delta| (InterShift).
    double crossing = 0.0;      ///< Share of bytes crossing a bank; 0 if none.
    Tick noc = 0;               ///< NoC injection serialization of that share.

    /** Busy ticks each of the command's banks is charged. */
    Tick perBank() const { return htree + noc; }
};

MoveCharge moveCharge(const InMemCommand &c, const TiledLayout &layout,
                      const AddressMap &map, const SystemConfig &cfg);

} // namespace infs

#endif // INFS_JIT_CMD_EFFECT_HH
