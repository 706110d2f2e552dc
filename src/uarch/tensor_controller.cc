#include "uarch/tensor_controller.hh"

#include <algorithm>

#include "jit/cmd_effect.hh"
#include "sim/fault.hh"

namespace infs {

double
TensorController::meanHops(unsigned bank_delta)
{
    const unsigned banks = cfg_.l3.numBanks;
    if (hopMeans_.empty())
        hopMeans_.assign(banks, -1.0);
    double &mean = hopMeans_[bank_delta];
    if (mean < 0.0) {
        double hops = 0.0;
        for (BankId b = 0; b < banks; ++b)
            hops += noc_.hops(b, static_cast<BankId>((b + bank_delta) %
                                                     banks));
        mean = hops / banks;
    }
    return mean;
}

InMemExecResult
TensorController::execute(const InMemProgram &prog,
                          const TiledLayout &layout, BankId core,
                          std::uint64_t repeat)
{
    InMemExecResult res;
    if (repeat == 0)
        return res;
    const double rep = static_cast<double>(repeat);
    const unsigned bits = dtypeBits(cfg_.tensor.elemType);
    const unsigned elem_bytes = bits / 8;
    const unsigned banks = cfg_.l3.numBanks;
    // Per-bank issue model: commands of the same group (one node's tile
    // decomposition) touch disjoint arrays and overlap; groups serialize
    // (per-bank synchronous issue, §4.2).
    std::vector<Tick> busy(banks, 0);       // End of the current group.
    std::vector<Tick> group_base(banks, 0); // Start of the current group.
    std::vector<unsigned> cur_group(banks, ~0u);
    const double per_hop = cfg_.noc.routerStages + cfg_.noc.linkLatency;

    // Command dispatch from TCcore's command cache to the banks.
    noc_.accountBulk(static_cast<double>(prog.commands.size()) * 16.0 * rep,
                     noc_.avgHops(), TrafficClass::Offload);

    auto bumpBanks = [&](const BankSet &bs, Tick lat, unsigned group) {
        bs.forEach([&](BankId b) {
            if (cur_group[b] != group) {
                group_base[b] = busy[b];
                cur_group[b] = group;
            }
            busy[b] = std::max(busy[b], group_base[b] + lat);
        });
    };
    auto maxBusy = [&]() {
        Tick m = 0;
        for (Tick t : busy)
            m = std::max(m, t);
        return m;
    };

    // Fault model: each command issue may fail transiently (controller
    // parity catches it; bounded retry). Penalty cycles accumulate once
    // per execute() call — fault sampling does not scale with `repeat` so
    // the schedule stays a function of the command sequence alone.
    Tick fault_extra = 0;
    for (std::size_t ci = 0; ci < prog.commands.size(); ++ci) {
        const InMemCommand &cmd = prog.commands[ci];
        if (fault_ && cmd.kind != CmdKind::Sync) {
            CmdFault cf = fault_->sampleCmdFault();
            if (cf.faulted) {
                ++res.faultsInjected;
                ++res.faultsDetected;
                fault_extra += fault_->recordDetection();
                bool cleared = false;
                for (unsigned r = 0; r < cfg_.fault.retryBudget; ++r) {
                    ++res.faultRetries;
                    fault_extra += fault_->recordRetry();
                    if (!cf.persistent) {
                        cleared = true;
                        break;
                    }
                }
                if (!cleared) {
                    // Hard fault: abandon the in-memory attempt; the
                    // caller degrades the region (near-memory / core).
                    fault_->recordExhausted();
                    res.failed = true;
                    break;
                }
            }
        }
        switch (cmd.kind) {
          case CmdKind::Compute: {
            Tick cyc = lat_.opCycles(cmd.op, cmd.dtype);
            if (cmd.useImm)
                cyc += bits; // Broadcast the constant first (§5.2).
            if (fault_ && fault_->sampleSramFlip()) {
                // A wordline bit flipped during the bit-serial op; row
                // parity catches it and the op re-executes.
                ++res.faultsInjected;
                ++res.faultsDetected;
                fault_extra += fault_->recordDetection();
                ++res.faultRetries;
                fault_extra += fault_->recordRetry(cyc);
            }
            bumpBanks(cmd.banks, cyc, cmd.group);
            res.computeCycles += cyc;
            res.inMemOps += maskedElements(cmd, layout);
            // Energy: ~3 row activations per bit step in each involved
            // SRAM array (2 senses + 1 write).
            const auto tiles = static_cast<double>(
                layout.countTilesIntersecting(cmd.tensor));
            energy_.charge(EnergyEvent::SramRowActivate,
                           3.0 * bits * tiles * rep);
            break;
          }
          case CmdKind::BroadcastVal: {
            Tick cyc = bits;
            bumpBanks(cmd.banks, cyc, cmd.group);
            res.moveCycles += cyc;
            break;
          }
          case CmdKind::IntraShift: {
            Tick cyc = lat_.intraShiftCycles(cmd.dtype);
            bumpBanks(cmd.banks, cyc, cmd.group);
            res.moveCycles += cyc;
            res.intraTileBytes +=
                static_cast<double>(maskedElements(cmd, layout)) *
                elem_bytes * rep;
            const auto tiles = static_cast<double>(
                layout.countTilesIntersecting(cmd.tensor));
            energy_.charge(EnergyEvent::HtreeRowMove, bits * tiles * rep);
            break;
          }
          case CmdKind::InterShift: {
            // Pack bits, traverse the H tree, and cross to the target
            // tile. Unlike intra-array shifts (bitline-parallel), the
            // crossing data serializes through each bank's H-tree port —
            // this is what makes poorly tiled layouts slow (Fig 16/17).
            const MoveCharge mc = moveCharge(cmd, layout, map_, cfg_);
            const double bytes = mc.bytesOnce * rep;
            bumpBanks(cmd.banks, mc.perBank(), cmd.group);
            res.moveCycles += mc.perBank();
            res.interTileBytes += bytes;
            if (mc.crossing > 0.0) {
                // Mean hop count of the per-bank destination pattern.
                const std::int64_t bank_delta =
                    std::max<std::int64_t>(
                        mc.tileDelta / map_.arraysPerBank(), 1) %
                    banks;
                noc_.accountBulk(bytes * mc.crossing,
                                 meanHops(static_cast<unsigned>(bank_delta)),
                                 TrafficClass::InterTile);
                res.interTileNocBytes += bytes * mc.crossing;
            }
            const auto tiles = static_cast<double>(
                layout.countTilesIntersecting(cmd.tensor));
            energy_.charge(EnergyEvent::HtreeRowMove,
                           2.0 * bits * rep * tiles);
            break;
          }
          case CmdKind::BroadcastBl: {
            // One source row replicated across the destination region via
            // the buffered H tree; remote tiles receive it over the NoC
            // multicast. The source data serializes out of its banks.
            const MoveCharge mc = moveCharge(cmd, layout, map_, cfg_);
            const double bytes = mc.bytesOnce * rep;
            bumpBanks(cmd.banks, mc.perBank(), cmd.group);
            res.moveCycles += mc.perBank();
            // Multicast: source data travels once along the tree spanning
            // the destination banks (cheap, §4.1 "broadcast is
            // inexpensive, as it can reuse the read data").
            if (cmd.banks.size() > 1)
                noc_.accountBulk(bytes,
                                 std::min<double>(noc_.avgHops(),
                                                  double(cmd.banks.size())),
                                 TrafficClass::InterTile);
            res.interTileBytes += bytes;
            energy_.charge(EnergyEvent::HtreeRowMove,
                           bits * rep *
                               static_cast<double>(cmd.banks.size()));
            break;
          }
          case CmdKind::Sync: {
            // Global barrier: every TCL3 reports sent/received counts to
            // TCcore, which broadcasts the release (§5.2).
            Tick wall = maxBusy();
            Tick sync_lat = static_cast<Tick>(2.0 * noc_.avgHops() *
                                              per_hop) +
                            8;
            for (unsigned b = 0; b < banks; ++b) {
                busy[b] = wall + sync_lat;
                group_base[b] = busy[b];
                cur_group[b] = ~0u;
            }
            res.syncCycles += sync_lat;
            noc_.accountBulk(static_cast<double>(banks) * 2.0 * 16.0 * rep,
                             noc_.avgHops(), TrafficClass::Offload);
            // TCcore round trip.
            noc_.send(core, 0, static_cast<Bytes>(16 * repeat),
                      TrafficClass::Offload);
            break;
          }
        }
    }

    // Per-command ops and per-repeat cycle components scale linearly;
    // fault penalties were accumulated once per execute() call.
    res.inMemOps *= repeat;
    res.computeCycles *= repeat;
    res.moveCycles *= repeat;
    res.syncCycles *= repeat;
    res.retryCycles = fault_extra;
    res.cycles = maxBusy() * repeat + fault_extra;
    res.bankBusy.resize(banks);
    for (unsigned b = 0; b < banks; ++b)
        res.bankBusy[b] = busy[b] * repeat;
    return res;
}

} // namespace infs
