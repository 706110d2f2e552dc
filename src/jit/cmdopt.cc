#include "jit/cmdopt.hh"

#include <vector>

#include "jit/cmd_effect.hh"

namespace infs {

CmdStats
optimizeCommands(InMemProgram &prog, const TiledLayout &layout,
                 const AddressMap &map, const SystemConfig &cfg)
{
    CmdStats st;
    std::vector<InMemCommand> &cmds = prog.commands;
    const unsigned dims = layout.dims();
    const HyperRect array_rect = HyperRect::array(layout.shape());

    // Resolve effects up front through the command model the analyzer
    // checks with; a command it would reject statically (rank mismatch,
    // empty region, dim out of rank, no banks) makes the whole stream
    // opaque — the JIT never emits such commands, and rewriting around
    // one cannot be licensed by dependence facts.
    std::vector<CmdEffect> eff(cmds.size());
    for (std::size_t i = 0; i < cmds.size(); ++i) {
        const InMemCommand &c = cmds[i];
        if (c.kind == CmdKind::Sync)
            continue;
        if (c.tensor.dims() != dims || !c.tensor.overlaps(array_rect) ||
            c.banks.empty() || (usesDim(c) && c.dim >= dims)) {
            prog.opt = st;
            return st;
        }
        eff[i] = effectOf(c, layout, array_rect);
    }

    std::vector<char> alive(cmds.size(), 1);

    // True when command x writes any cell command j reads or writes
    // (slot-matched, cell-granular): x between a rewrite's source and
    // target positions invalidates the rewrite.
    auto writesConflict = [&](std::size_t x, std::size_t j) {
        if (cmds[x].kind == CmdKind::Sync)
            return false;
        if (readSlots(cmds[j]).contains(cmds[x].wlDst) &&
            eff[x].dst.overlaps(eff[j].src))
            return true;
        return cmds[x].wlDst == cmds[j].wlDst &&
               eff[x].dst.overlaps(eff[j].dst);
    };
    // True when command x reads any cell command j writes (hoisting j
    // above x would let x observe j's effect too early).
    auto readsConflict = [&](std::size_t x, std::size_t j) {
        return readSlots(cmds[x]).contains(cmds[j].wlDst) &&
               eff[x].src.overlaps(eff[j].dst);
    };

    // ---- Pass 1: redundant-command elimination. Command j is removable
    // when an identical earlier command i (all effect parameters, window
    // rect, bank set) exists with no intervening write to any cell j
    // reads or writes: re-executing j then writes exactly the bytes i
    // already wrote. In-place commands (dst slot among the read slots,
    // e.g. compute fold-chain steps) are never byte-idempotent and are
    // excluded. The backward scan stops at the first clobbering write, so
    // only a still-fresh twin ever matches.
    for (std::size_t j = 0; j < cmds.size(); ++j) {
        if (!alive[j] || cmds[j].kind == CmdKind::Sync)
            continue;
        if (readSlots(cmds[j]).contains(cmds[j].wlDst))
            continue; // In place.
        for (std::size_t i = j; i-- > 0;) {
            if (!alive[i] || cmds[i].kind == CmdKind::Sync)
                continue;
            if (sameEffect(cmds[i], cmds[j]) &&
                cmds[i].tensor == cmds[j].tensor &&
                cmds[i].banks == cmds[j].banks) {
                alive[j] = 0;
                if (cmds[j].kind == CmdKind::BroadcastBl ||
                    cmds[j].kind == CmdKind::BroadcastVal)
                    ++st.dedupedBroadcasts;
                else
                    ++st.dedupedCommands;
                break;
            }
            if (writesConflict(i, j))
                break;
        }
    }

    // ---- Pass 2: movement coalescing. Same-group shift commands
    // restating one logical move over different windows (the reduce
    // lowering emits its rounds once per decomposed subtensor) merge into
    // one wider command when the window rects exactly partition their
    // bounding union (identical cell set, so the moved bytes are
    // identical), nothing in between touches the cells being hoisted, no
    // barrier is crossed, and — for inter-tile shifts, whose H-tree
    // serialization grows with the window — the merged per-bank latency
    // does not exceed either original's.
    for (std::size_t j = 0; j < cmds.size(); ++j) {
        if (!alive[j] || !isShift(cmds[j].kind))
            continue;
        for (std::size_t i = j; i-- > 0;) {
            if (cmds[i].kind == CmdKind::Sync)
                break; // Never hoist movement across a barrier.
            if (!alive[i])
                continue;
            if (cmds[i].group == cmds[j].group &&
                sameEffect(cmds[i], cmds[j])) {
                const HyperRect &a = cmds[i].tensor;
                const HyperRect &b = cmds[j].tensor;
                HyperRect u = a.boundingUnion(b);
                if (a.overlaps(b) || u.volume() != a.volume() + b.volume())
                    break; // Not an exact partition; no wider move.
                InMemCommand merged = cmds[i];
                merged.tensor = u;
                merged.banks |= cmds[j].banks;
                if (merged.kind == CmdKind::InterShift) {
                    auto charge = [&](const InMemCommand &c) {
                        return moveCharge(c, layout, map, cfg).perBank();
                    };
                    const Tick m = charge(merged);
                    if (m > charge(cmds[i]) || m > charge(cmds[j]))
                        break; // Merging would slow a bank down.
                }
                const Coord tile_k = layout.tileSize(merged.dim);
                if (merged.maskLo > 0 || merged.maskHi < tile_k)
                    ++st.hoistedMasks;
                cmds[i] = std::move(merged);
                eff[i] = effectOf(cmds[i], layout, array_rect);
                alive[j] = 0;
                ++st.fusedMoves;
                break;
            }
            if (writesConflict(i, j) || readsConflict(i, j))
                break;
        }
    }

    // ---- Pass 3: Sync elision (analyzer rule (c), inverted). Walk the
    // stream tracking the asynchronous inter-tile writers still pending
    // since the last KEPT barrier. A barrier is elided when no pending
    // writer has a dependent consumer — a cross-bank read of its
    // destination slot over overlapping cells, or a same-slot overlapping
    // overwrite — before the next barrier; the pending set then carries
    // forward, so the extended window is re-checked at that next barrier.
    // A kept barrier discharges all pending movement. The trailing commit
    // barrier is kept whenever movement is still pending at program end
    // (§5.3: context switches wait on it).
    if (cfg.cmdOptSyncElision) {
        std::size_t last_cmd = 0;
        bool any_cmd = false;
        for (std::size_t i = 0; i < cmds.size(); ++i) {
            if (alive[i] && cmds[i].kind != CmdKind::Sync) {
                last_cmd = i;
                any_cmd = true;
            }
        }
        std::vector<std::size_t> pending;
        for (std::size_t i = 0; i < cmds.size(); ++i) {
            if (!alive[i])
                continue;
            if (cmds[i].kind != CmdKind::Sync) {
                if (eff[i].async)
                    pending.push_back(i);
                continue;
            }
            if (!any_cmd || i > last_cmd) {
                // Trailing barrier: the §5.3 commit point. Keep it while
                // movement is pending; once one is kept, the rest elide.
                if (pending.empty()) {
                    alive[i] = 0;
                    ++st.elidedSyncs;
                } else {
                    pending.clear();
                }
                continue;
            }
            bool needed = false;
            for (std::size_t r = i + 1;
                 r < cmds.size() && !needed; ++r) {
                if (!alive[r])
                    continue;
                if (cmds[r].kind == CmdKind::Sync)
                    break; // Window ends at the next barrier.
                for (std::size_t w : pending) {
                    if (asyncDependence(cmds[w], eff[w], cmds[r], eff[r],
                                        layout, map) != CmdDep::None) {
                        needed = true;
                        break;
                    }
                }
            }
            if (needed) {
                pending.clear();
            } else {
                alive[i] = 0;
                ++st.elidedSyncs;
            }
        }
    }

    std::size_t out = 0;
    for (std::size_t i = 0; i < cmds.size(); ++i) {
        if (alive[i]) {
            if (out != i)
                cmds[out] = std::move(cmds[i]);
            ++out;
        }
    }
    cmds.resize(out);
    prog.recount();
    prog.opt = st;
    return st;
}

} // namespace infs
