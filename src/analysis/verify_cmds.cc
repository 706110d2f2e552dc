#include "analysis/verify_cmds.hh"

#include <algorithm>
#include <cstdlib>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "jit/cmd_effect.hh"

namespace infs {

namespace {

/** One analyzable command with its effect resolved by the command model
 * (jit/cmd_effect.hh). */
struct Rec {
    std::size_t idx = 0;
    const InMemCommand *c = nullptr;
    CmdEffect e;
};

std::string
cmdWhere(std::size_t idx, const InMemCommand &c)
{
    return "cmd " + std::to_string(idx) + " (" + c.str() + ")";
}

} // namespace

VerifyReport
verifyCommands(const InMemProgram &prog, const TiledLayout &layout,
               const AddressMap &map, const SystemConfig &cfg)
{
    VerifyReport rep("commands");
    const unsigned dims = layout.dims();
    const unsigned bits = dtypeBits(cfg.tensor.elemType);
    const unsigned num_slots = wordlineSlots(cfg);
    const unsigned wl_cap = num_slots * bits;
    const HyperRect array_rect = HyperRect::array(layout.shape());

    // ---- (d) LOT consistency: array home slots and output slots.
    // Diagnostic locations are callables, built only when a check fails.
    auto checkSlotWl = [&](unsigned wl, const auto &where,
                           const char *what) {
        if (bits && wl % bits != 0) {
            rep.add(VerifyCode::CmdSlotMisaligned, where(),
                    std::string(what) + " wordline " + std::to_string(wl) +
                        " not aligned to " + std::to_string(bits) +
                        "-bit slots");
            return false;
        }
        if (wl >= wl_cap) {
            rep.add(VerifyCode::CmdSlotOutOfRange, where(),
                    std::string(what) + " wordline " + std::to_string(wl) +
                        " beyond the " + std::to_string(num_slots) +
                        "-slot capacity (top slot reserved)");
            return false;
        }
        return true;
    };
    {
        std::set<ArrayId> seen_arrays;
        std::set<unsigned> seen_wls;
        for (const auto &[array, wl] : prog.arraySlots) {
            auto where = [a = array] {
                return "lot array" + std::to_string(a);
            };
            if (!seen_arrays.insert(array).second) {
                rep.add(VerifyCode::LotInconsistent, where(),
                        "array has two home slots");
            }
            if (!seen_wls.insert(wl).second) {
                rep.add(VerifyCode::LotInconsistent, where(),
                        "home wordline " + std::to_string(wl) +
                            " shared with another array");
            }
            checkSlotWl(wl, where, "home");
        }
        if (prog.arraySlots.size() > cfg.tensor.lotEntries) {
            rep.add(VerifyCode::LotInconsistent, "lot",
                    std::to_string(prog.arraySlots.size()) +
                        " arrays exceed the " +
                        std::to_string(cfg.tensor.lotEntries) +
                        "-entry LOT");
        }
        for (const auto &[array, wl] : prog.outputSlots) {
            auto where = [a = array] {
                return "output array" + std::to_string(a);
            };
            checkSlotWl(wl, where, "output");
            if (!seen_arrays.count(array)) {
                rep.add(VerifyCode::LotInconsistent, where(),
                        "output array has no LOT home slot");
            }
        }
    }

    // ---- Per-command static checks; clean commands become hazard Recs.
    std::vector<Rec> recs;
    std::vector<std::size_t> syncs;
    for (std::size_t i = 0; i < prog.commands.size(); ++i) {
        const InMemCommand &c = prog.commands[i];
        if (c.kind == CmdKind::Sync) {
            syncs.push_back(i);
            continue;
        }
        auto where = [&] { return cmdWhere(i, c); };
        const std::size_t before = rep.size();

        if (c.tensor.dims() != dims) {
            rep.add(VerifyCode::CmdRankMismatch, where(),
                    "tensor rank " + std::to_string(c.tensor.dims()) +
                        " != layout rank " + std::to_string(dims));
            continue;
        }
        if (!c.tensor.overlaps(array_rect)) {
            rep.add(VerifyCode::CmdEmptyTensor, where(),
                    "tensor " + c.tensor.str() +
                        " does not intersect the array bounds");
            continue;
        }

        const bool uses_dim = usesDim(c);
        if (uses_dim && c.dim >= dims) {
            rep.add(VerifyCode::CmdDimOutOfRank, where(),
                    "dim " + std::to_string(c.dim) + " out of layout rank " +
                        std::to_string(dims));
            continue;
        }
        const Coord tile_k = uses_dim ? layout.tileSize(c.dim) : 0;

        if (isShift(c.kind)) {
            if (c.maskLo < 0 || c.maskLo >= c.maskHi || c.maskHi > tile_k) {
                rep.add(VerifyCode::CmdBadMask, where(),
                        "shift mask [" + std::to_string(c.maskLo) + "," +
                            std::to_string(c.maskHi) +
                            ") outside tile positions [0," +
                            std::to_string(tile_k) + ")");
            }
            const Coord intra_abs = std::abs(c.intraTileDist);
            if (c.kind == CmdKind::IntraShift &&
                (c.interTileDist != 0 || c.intraTileDist == 0)) {
                rep.add(VerifyCode::CmdBadShiftDist, where(),
                        "intra-tile shift must move within the tile only");
            } else if (c.kind == CmdKind::InterShift &&
                       c.interTileDist == 0) {
                rep.add(VerifyCode::CmdBadShiftDist, where(),
                        "inter-tile shift with zero tile distance");
            } else if (intra_abs >= tile_k) {
                rep.add(VerifyCode::CmdBadShiftDist, where(),
                        "intra-tile distance " +
                            std::to_string(c.intraTileDist) +
                            " exceeds the tile size " +
                            std::to_string(tile_k));
            }
        } else if (c.kind == CmdKind::Compute && c.maskHi > 0 &&
                   (c.maskLo < 0 || c.maskLo >= c.maskHi ||
                    c.maskHi > tile_k)) {
            rep.add(VerifyCode::CmdBadMask, where(),
                    "compute mask [" + std::to_string(c.maskLo) + "," +
                        std::to_string(c.maskHi) +
                        ") outside tile positions [0," +
                        std::to_string(tile_k) + ")");
        } else if (c.kind == CmdKind::BroadcastBl && c.bcCount < 1) {
            rep.add(VerifyCode::CmdBadBroadcast, where(),
                    "replication count " + std::to_string(c.bcCount) +
                        " < 1");
        }

        checkSlotWl(c.wlDst, where, "destination");
        for (unsigned wl : readSlots(c))
            checkSlotWl(wl, where, "source");

        if (c.banks.empty()) {
            rep.add(VerifyCode::CmdBankInvalid, where(), "no banks recorded");
        } else {
            for (BankId b = cfg.l3.numBanks; b < BankSet::kMaxBanks; ++b) {
                if (c.banks.contains(b)) {
                    rep.add(VerifyCode::CmdBankInvalid, where(),
                            "bank " + std::to_string(b) + " beyond the " +
                                std::to_string(cfg.l3.numBanks) +
                                "-bank L3");
                    break;
                }
            }
        }
        if (rep.size() != before)
            continue; // Statically broken: exclude from hazard analysis.

        recs.push_back({i, &c, effectOf(c, layout, array_rect)});
    }

    // ---- (a) Alg. 1 disjointness within each command group.
    {
        std::unordered_map<unsigned, std::vector<const Rec *>> groups;
        for (const Rec &r : recs)
            groups[r.c->group].push_back(&r);
        for (const auto &[group, members] : groups) {
            for (std::size_t j = 1; j < members.size(); ++j) {
                for (std::size_t k = 0; k < j; ++k) {
                    const InMemCommand &a = *members[k]->c;
                    const InMemCommand &b = *members[j]->c;
                    if (a.tensor.intersect(b.tensor)
                            .intersect(array_rect)
                            .empty())
                        continue;
                    // A multi-operand compute lowers to a fold chain:
                    // same-group computes over one region are sequential
                    // per-bank steps, not parallel tiles.
                    if (a.kind == CmdKind::Compute &&
                        b.kind == CmdKind::Compute)
                        continue;
                    // Alg. 2 lowers one mv into shifts over complementary
                    // position masks: the moved element sets are disjoint
                    // even though the subtensor rects coincide.
                    if (isShift(a.kind) && isShift(b.kind) &&
                        (a.maskHi <= b.maskLo || b.maskHi <= a.maskLo))
                        continue;
                    // The reduce lowering restates one cross-tile round
                    // per subtensor: only the window differs.
                    if (sameEffect(a, b))
                        continue;
                    rep.add(VerifyCode::IntraGroupOverlap,
                            cmdWhere(members[j]->idx, b),
                            "overlaps " + cmdWhere(members[k]->idx, a) +
                                " within group " + std::to_string(group) +
                                " — Alg. 1 tiles must be disjoint");
                }
            }
        }
    }

    // ---- (c) Asynchronous inter-tile effects need a Sync before any
    // dependent command (per-bank issue does not order cross-bank data).
    for (const Rec &w : recs) {
        if (!w.e.async)
            continue;
        auto next_sync = std::upper_bound(syncs.begin(), syncs.end(), w.idx);
        const std::size_t bound = next_sync != syncs.end()
                                      ? *next_sync
                                      : prog.commands.size();
        for (const Rec &r : recs) {
            if (r.idx <= w.idx || r.idx >= bound)
                continue;
            switch (asyncDependence(*w.c, w.e, *r.c, r.e, layout, map)) {
              case CmdDep::Raw:
                rep.add(r.c->kind == CmdKind::Compute
                            ? VerifyCode::MissingSync
                            : VerifyCode::RawHazard,
                        cmdWhere(r.idx, *r.c),
                        "consumes wl " + std::to_string(w.c->wlDst) +
                            " from " + cmdWhere(w.idx, *w.c) +
                            " with no Sync in between");
                break;
              case CmdDep::Waw:
                rep.add(VerifyCode::WawHazard, cmdWhere(r.idx, *r.c),
                        "overwrites wl " + std::to_string(w.c->wlDst) +
                            " written by " + cmdWhere(w.idx, *w.c) +
                            " with no Sync in between");
                break;
              case CmdDep::None:
                break;
            }
        }
    }

    // ---- (b) Local RAW coverage: the most recent writer of the cells a
    // command reads must share the dependence banks (per-bank program
    // order is then the ordering edge); a writer whose bank set misses
    // them never delivers the value to the reader's banks.
    {
        std::unordered_map<unsigned, std::vector<const Rec *>> writers;
        for (const Rec &r : recs)
            writers[r.c->wlDst].push_back(&r);
        for (const Rec &r : recs) {
            for (unsigned s : readSlots(*r.c)) {
                auto it = writers.find(s);
                if (it == writers.end())
                    continue; // Preloaded slot (array home / stream load).
                const auto &ws = it->second;
                for (auto wi = ws.rbegin(); wi != ws.rend(); ++wi) {
                    const Rec &w = **wi;
                    if (w.idx >= r.idx || w.c->group == r.c->group)
                        continue;
                    const HyperRect o = w.e.dst.intersect(r.e.src);
                    if (o.empty())
                        continue;
                    const BankSet dep = layout.banksFor(o, map);
                    if (!dep.intersects(r.c->banks))
                        continue; // Cells the reader never touches.
                    // Most recent relevant writer decides; older writers
                    // are shadowed. Async writers were handled above.
                    if (!w.e.async && !dep.intersects(w.c->banks)) {
                        rep.add(VerifyCode::RawHazard, cmdWhere(r.idx, *r.c),
                                "reads wl " + std::to_string(s) + " over " +
                                    o.str() + " from " +
                                    cmdWhere(w.idx, *w.c) +
                                    ", whose banks never produce those "
                                    "cells (no ordering edge)");
                    }
                    break;
                }
            }
        }
    }

    return rep;
}

} // namespace infs
