#include "jit/cmdopt.hh"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace infs {

namespace {

/**
 * Per-command effect record, resolved against the layout exactly as the
 * hazard analyzer resolves it (src/analysis/verify_cmds.cc): clamped
 * read/write regions, the asynchronous-inter-tile flag, and a sorted bank
 * list. Every rewrite condition below is stated over these records so the
 * pass licenses itself with the same dependence facts the analyzer checks.
 */
struct Eff {
    HyperRect src;     ///< Read region, clamped to the array bounds.
    HyperRect dst;     ///< Written region, clamped to the array bounds.
    bool async = false; ///< Write lands in other banks after a Sync only.
    std::vector<BankId> banks; ///< Sorted copy of the command's banks.
};

/** Wordline slots a command reads (mirror of the analyzer's readSlots). */
std::vector<unsigned>
readSlots(const InMemCommand &c)
{
    switch (c.kind) {
      case CmdKind::IntraShift:
      case CmdKind::InterShift:
      case CmdKind::BroadcastBl:
        return {c.wlA};
      case CmdKind::Compute:
        return c.useImm ? std::vector<unsigned>{c.wlA}
                        : std::vector<unsigned>{c.wlA, c.wlB};
      case CmdKind::BroadcastVal:
      case CmdKind::Sync:
        return {};
    }
    return {};
}

bool
sortedIntersects(const std::vector<BankId> &a, const std::vector<BankId> &b)
{
    auto ia = a.begin();
    auto ib = b.begin();
    while (ia != a.end() && ib != b.end()) {
        if (*ia < *ib)
            ++ia;
        else if (*ib < *ia)
            ++ib;
        else
            return true;
    }
    return false;
}

bool
isShift(CmdKind k)
{
    return k == CmdKind::IntraShift || k == CmdKind::InterShift;
}

Eff
effectOf(const InMemCommand &c, const TiledLayout &layout,
         const HyperRect &array_rect)
{
    Eff e;
    e.src = c.tensor.intersect(array_rect);
    switch (c.kind) {
      case CmdKind::IntraShift:
      case CmdKind::InterShift: {
        const Coord tile_k = layout.tileSize(c.dim);
        e.dst = c.tensor
                    .shifted(c.dim,
                             c.interTileDist * tile_k + c.intraTileDist)
                    .intersect(array_rect);
        e.async = c.kind == CmdKind::InterShift;
        break;
      }
      case CmdKind::BroadcastBl: {
        const Coord span = c.tensor.size(c.dim);
        e.dst = c.tensor
                    .withDim(c.dim, c.tensor.lo(c.dim) + c.bcDist,
                             c.tensor.lo(c.dim) + c.bcDist +
                                 c.bcCount * span)
                    .intersect(array_rect);
        e.async = c.bcCount * span > layout.tileSize(c.dim);
        break;
      }
      default:
        e.dst = e.src;
        break;
    }
    e.banks = c.banks;
    std::sort(e.banks.begin(), e.banks.end());
    return e;
}

/** All fields that define a command's byte-level effect except the window
 * rect and the bank list (the analyzer's sameEffectParams plus dtype). */
bool
sameEffect(const InMemCommand &a, const InMemCommand &b)
{
    return a.kind == b.kind && a.dim == b.dim && a.maskLo == b.maskLo &&
           a.maskHi == b.maskHi && a.interTileDist == b.interTileDist &&
           a.intraTileDist == b.intraTileDist && a.bcCount == b.bcCount &&
           a.bcDist == b.bcDist && a.op == b.op && a.dtype == b.dtype &&
           a.useImm == b.useImm && a.imm == b.imm && a.wlA == b.wlA &&
           a.wlB == b.wlB && a.wlDst == b.wlDst;
}

/**
 * The per-bank busy-time charge TensorController::execute levies for one
 * InterShift, reproduced bit-for-bit (masked element count, H-tree
 * serialization truncation, NoC-injection serialization when the tile
 * delta crosses a bank). The coalescing guard compares these so a merged
 * command never charges any bank more than the originals did.
 */
Tick
interShiftLatency(const InMemCommand &c, const TiledLayout &layout,
                  const AddressMap &map, const SystemConfig &cfg)
{
    const unsigned bits = dtypeBits(cfg.tensor.elemType);
    const unsigned elem_bytes = bits / 8;
    const HyperRect &t = c.tensor;
    std::uint64_t elems = 0;
    if (!t.empty()) {
        const auto covered = static_cast<std::uint64_t>(
            maskedCoordCount(t.lo(c.dim), t.hi(c.dim),
                             layout.tileSize(c.dim), c.maskLo, c.maskHi));
        elems = covered *
                static_cast<std::uint64_t>(t.volume() / t.size(c.dim));
    }
    const double bytes_once = static_cast<double>(elems) * elem_bytes;
    const double banks_involved =
        static_cast<double>(std::max<std::size_t>(c.banks.size(), 1));
    Tick lat = dtypeBits(c.dtype) + 8 +
               static_cast<Tick>(
                   bytes_once / banks_involved /
                   static_cast<double>(cfg.l3.htreeBandwidth));
    std::int64_t stride = 1;
    for (unsigned d = 0; d < c.dim; ++d)
        stride *= layout.grid()[d];
    std::int64_t tile_delta = c.interTileDist * stride;
    std::int64_t abs_delta = tile_delta < 0 ? -tile_delta : tile_delta;
    const double crossing = std::min(
        1.0, static_cast<double>(abs_delta) /
                 static_cast<double>(map.arraysPerBank()));
    if (crossing > 0.0 && abs_delta > 0) {
        lat += static_cast<Tick>(
            bytes_once * crossing / banks_involved /
            static_cast<double>(cfg.noc.linkBytes));
    }
    return lat;
}

} // namespace

CmdStats
optimizeCommands(InMemProgram &prog, const TiledLayout &layout,
                 const AddressMap &map, const SystemConfig &cfg,
                 const CmdOptOptions &opts)
{
    CmdStats st;
    std::vector<InMemCommand> &cmds = prog.commands;
    const unsigned dims = layout.dims();
    const HyperRect array_rect = HyperRect::array(layout.shape());

    // Resolve effects up front; a command the analyzer would reject
    // statically (rank mismatch, empty region, dim out of rank, no banks)
    // makes the whole stream opaque — the JIT never emits such commands,
    // and rewriting around one cannot be licensed by dependence facts.
    std::vector<Eff> eff(cmds.size());
    for (std::size_t i = 0; i < cmds.size(); ++i) {
        const InMemCommand &c = cmds[i];
        if (c.kind == CmdKind::Sync)
            continue;
        if (c.tensor.dims() != dims ||
            c.tensor.intersect(array_rect).empty() || c.banks.empty()) {
            prog.opt = st;
            return st;
        }
        const bool uses_dim =
            isShift(c.kind) || c.kind == CmdKind::BroadcastBl ||
            (c.kind == CmdKind::Compute && c.maskHi > c.maskLo);
        if (uses_dim && c.dim >= dims) {
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
        for (unsigned s : readSlots(cmds[j])) {
            if (cmds[x].wlDst == s &&
                !eff[x].dst.intersect(eff[j].src).empty())
                return true;
        }
        return cmds[x].wlDst == cmds[j].wlDst &&
               !eff[x].dst.intersect(eff[j].dst).empty();
    };
    // True when command x reads any cell command j writes (hoisting j
    // above x would let x observe j's effect too early).
    auto readsConflict = [&](std::size_t x, std::size_t j) {
        for (unsigned s : readSlots(cmds[x])) {
            if (s == cmds[j].wlDst &&
                !eff[x].src.intersect(eff[j].dst).empty())
                return true;
        }
        return false;
    };

    // ---- Pass 1: redundant-command elimination. Command j is removable
    // when an identical earlier command i (all effect parameters, window
    // rect, bank list) exists with no intervening write to any cell j
    // reads or writes: re-executing j then writes exactly the bytes i
    // already wrote. In-place commands (dst slot among the read slots,
    // e.g. compute fold-chain steps) are never byte-idempotent and are
    // excluded. The backward scan stops at the first clobbering write, so
    // only a still-fresh twin ever matches.
    if (opts.dedup) {
        for (std::size_t j = 0; j < cmds.size(); ++j) {
            if (!alive[j] || cmds[j].kind == CmdKind::Sync)
                continue;
            bool in_place = false;
            for (unsigned s : readSlots(cmds[j]))
                in_place |= s == cmds[j].wlDst;
            if (in_place)
                continue;
            for (std::size_t i = j; i-- > 0;) {
                if (!alive[i] || cmds[i].kind == CmdKind::Sync)
                    continue;
                if (sameEffect(cmds[i], cmds[j]) &&
                    cmds[i].tensor == cmds[j].tensor &&
                    eff[i].banks == eff[j].banks) {
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
    if (opts.coalesce) {
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
                    if (!a.intersect(b).empty() ||
                        u.volume() != a.volume() + b.volume())
                        break; // Not an exact partition; no wider move.
                    InMemCommand merged = cmds[i];
                    merged.tensor = u;
                    merged.banks.clear();
                    std::set_union(eff[i].banks.begin(), eff[i].banks.end(),
                                   eff[j].banks.begin(), eff[j].banks.end(),
                                   std::back_inserter(merged.banks));
                    if (merged.kind == CmdKind::InterShift) {
                        const Tick m =
                            interShiftLatency(merged, layout, map, cfg);
                        if (m > interShiftLatency(cmds[i], layout, map,
                                                  cfg) ||
                            m > interShiftLatency(cmds[j], layout, map,
                                                  cfg))
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
    if (opts.syncElision) {
        std::size_t last_cmd = 0;
        bool any_cmd = false;
        for (std::size_t i = 0; i < cmds.size(); ++i) {
            if (alive[i] && cmds[i].kind != CmdKind::Sync) {
                last_cmd = i;
                any_cmd = true;
            }
        }
        auto depends = [&](std::size_t w, std::size_t r) {
            if (cmds[r].group == cmds[w].group)
                return false; // Same-group restatement exemption.
            for (unsigned s : readSlots(cmds[r])) {
                if (s != cmds[w].wlDst)
                    continue;
                const HyperRect o = eff[w].dst.intersect(eff[r].src);
                if (o.empty())
                    continue;
                std::vector<BankId> dep = layout.banksFor(o, map);
                std::sort(dep.begin(), dep.end());
                if (sortedIntersects(dep, eff[r].banks))
                    return true;
            }
            if (cmds[r].wlDst == cmds[w].wlDst) {
                const HyperRect o = eff[w].dst.intersect(eff[r].dst);
                if (!o.empty()) {
                    std::vector<BankId> dep = layout.banksFor(o, map);
                    std::sort(dep.begin(), dep.end());
                    if (sortedIntersects(dep, eff[r].banks))
                        return true;
                }
            }
            return false;
        };
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
                    if (depends(w, r)) {
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
