#include "uarch/system.hh"

#include <algorithm>
#include <optional>

#include "analysis/verify_cmds.hh"
#include "analysis/verify_tdfg.hh"

namespace infs {

InfinitySystem::InfinitySystem(SystemConfig cfg)
    : cfg_(cfg), pool_(cfg.hostThreads), fault_(cfg.fault), noc_(cfg.noc),
      l3_(cfg.l3), dram_(cfg.dram, cfg.core.ghz),
      map_(cfg.l3, cfg.noc.memCtrls), jit_(cfg),
      near_(cfg_, noc_, l3_, dram_, map_, energy_),
      tc_(cfg_, noc_, map_, energy_, &fault_), ttu_(2)
{
    if (fault_.enabled())
        noc_.attachFaultInjector(&fault_);

    // Post-lowering verification (DESIGN.md §9): at Graphs re-check the
    // tDFG the JIT consumed; at Full additionally run the command hazard
    // analyzer. Failures surface as recoverable errors, so the executor
    // degrades the region rather than running hazardous commands.
    if (cfg_.verifyLevel != VerifyLevel::Off) {
        const VerifyLevel level = cfg_.verifyLevel;
        const SystemConfig cfg_copy = cfg_;
        jit_.setVerifyHook(
            [level, cfg_copy](const TdfgGraph &g, const InMemProgram &prog,
                              const TiledLayout &layout,
                              const AddressMap &map)
                -> std::optional<Error> {
                VerifyReport rep = verifyTdfg(g);
                if (level == VerifyLevel::Full)
                    rep.merge(verifyCommands(prog, layout, map, cfg_copy));
                if (!rep.clean()) {
                    infs_warn("verify: %s", rep.str().c_str());
                    return rep.toError();
                }
                return std::nullopt;
            });
    }
}

PrepareResult
InfinitySystem::prepareTransposed(Bytes bytes, double l3_residency)
{
    PrepareResult res;
    // Reserve the compute ways (idempotent across phases: callers release
    // at region end; here we tolerate already-reserved ways).
    if (l3_.reservedWays(0) == 0) {
        bool ok = l3_.reserveWays(cfg_.l3.computeWays);
        infs_assert(ok, "cannot reserve compute ways");
    }

    Bytes dram_bytes = static_cast<Bytes>(
        static_cast<double>(bytes) * (1.0 - l3_residency));
    res.dramBytes = dram_bytes;
    Tick dram_cycles = dram_bytes > 0 ? dram_.transfer(dram_bytes) : 0;

    // TTU conversion: one TTU per bank converts lines in parallel.
    Tick ttu_cycles =
        ttu_.conversionCycles(bytes / 4, DType::Fp32) / cfg_.l3.numBanks;

    // Layout conversion crosses banks: NUCA home bank -> tile bank.
    noc_.accountBulk(static_cast<double>(bytes), noc_.avgHops(),
                     TrafficClass::Data);
    l3_.read(0, bytes);
    l3_.write(0, bytes);
    energy_.charge(EnergyEvent::L3Access,
                   2.0 * static_cast<double>(bytes) / lineBytes);

    // Bank port bandwidth bound for the conversion sweep.
    Tick bw_cycles = l3_.streamCycles(2 * bytes, cfg_.l3.numBanks);
    res.cycles = std::max({dram_cycles, ttu_cycles, bw_cycles});
    res.movedBytes = bytes;
    return res;
}

Tick
InfinitySystem::releaseTransposed(Bytes dirty_bytes)
{
    if (l3_.reservedWays(0) > 0)
        l3_.releaseWays(l3_.reservedWays(0));
    if (dirty_bytes == 0)
        return 0;
    // Delayed release (§5.2): dirty data that fits the released cache
    // capacity stays resident as normal lines; only the overflow is
    // evicted to memory by the store stream.
    Bytes capacity = l3_.normalCapacity();
    Bytes writeback = dirty_bytes > capacity ? dirty_bytes - capacity : 0;
    if (writeback == 0)
        return 0;
    l3_.read(0, writeback);
    energy_.charge(EnergyEvent::L3Access,
                   static_cast<double>(writeback) / lineBytes);
    return dram_.transfer(writeback);
}

void
InfinitySystem::resetStats()
{
    noc_.resetStats();
    l3_.resetStats();
    dram_.resetStats();
    energy_.reset();
    jit_.resetStats();
    // Zero the fault counters AND restart the schedule from the config
    // seed, so every Executor::run() sees the identical fault sequence.
    fault_.reset();
}

} // namespace infs
