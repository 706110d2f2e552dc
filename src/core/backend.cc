#include "core/backend.hh"

#include <array>

#include "core/plan.hh"
#include "energy/energy.hh"
#include "mem/address_map.hh"
#include "noc/mesh.hh"
#include "uarch/tensor_controller.hh"

namespace infs {

// Factories defined in backend_fabric.cc / backend_functional.cc;
// registered here.
std::unique_ptr<ExecBackend> makeFabricBackend(const SystemConfig &cfg);
std::unique_ptr<ExecBackend> makeFunctionalBackend(const SystemConfig &cfg);

namespace {

struct BackendEntry {
    ExecBackendKind kind;
    std::unique_ptr<ExecBackend> (*make)(const SystemConfig &);
};

constexpr std::array<BackendEntry, 2> kBackendRegistry{{
    {ExecBackendKind::Fabric, &makeFabricBackend},
    {ExecBackendKind::Functional, &makeFunctionalBackend},
}};

} // namespace

std::unique_ptr<ExecBackend>
makeBackend(ExecBackendKind kind, const SystemConfig &cfg)
{
    for (const BackendEntry &e : kBackendRegistry)
        if (e.kind == kind)
            return e.make(cfg);
    infs_panic("unregistered backend kind %u",
               static_cast<unsigned>(kind));
}

std::optional<BackendJob>
planPrimaryJob(const Workload &w, const SystemConfig &cfg,
               std::int64_t volume_cap)
{
    BackendJob job;
    job.volume = 1;
    for (Coord s : w.primaryShape)
        job.volume *= s;
    if (volume_cap > 0 && job.volume > volume_cap)
        return std::nullopt;
    RegionPlan plan = planRegion(w, cfg, /*jit_enabled=*/true);
    if (!plan.layout)
        return std::nullopt;
    job.layout = std::move(*plan.layout);

    AddressMap map(cfg.l3, cfg.noc.memCtrls);
    JitCompiler jit(cfg);
    for (const PhasePlan &pp : plan.phases) {
        if (!pp.onPrimary)
            continue;
        auto prog_or = jit.tryLower(*pp.g0, job.layout, map);
        if (!prog_or)
            continue;
        job.prog = *prog_or;
        return job;
    }
    return std::nullopt;
}

TimingReplayResult
replayTiming(const SystemConfig &cfg, const BackendJob &job,
             ThreadPool * /*pool*/)
{
    // Private system models, fault injection off: the replay is a pure
    // function of (program, layout, config), so the fabric backend's time
    // is this replay by construction — and the differential tests certify
    // it stays that way.
    MeshNoc noc(cfg.noc);
    AddressMap map(cfg.l3, cfg.noc.memCtrls);
    EnergyAccount energy;
    TensorController tc(cfg, noc, map, energy, nullptr);
    InMemExecResult r = tc.execute(*job.prog, job.layout, 0);
    TimingReplayResult out;
    out.simCycles = r.cycles;
    out.nocHopBytes = noc.totalHopBytes();
    out.energyJoules = energy.totalJoules();
    return out;
}

unsigned
chooseSchedule(const std::vector<ScheduleCandidate> &candidates,
               const FabricStats &observed)
{
    infs_assert(!candidates.empty(), "no schedule candidates");
    // Imbalance sensitivity: beta = 0.25 means a fully serialized
    // occupancy history (I = 1) penalizes a half-tile-count schedule by
    // 25% of its replayed makespan.
    constexpr double beta = 0.25;
    const double imb = observed.occupancyImbalance();
    std::int64_t max_tiles = 1;
    for (const ScheduleCandidate &c : candidates)
        max_tiles = std::max(max_tiles, c.layout.numTiles());
    unsigned best = 0;
    double best_cost = 0.0;
    for (unsigned i = 0; i < candidates.size(); ++i) {
        const ScheduleCandidate &c = candidates[i];
        const double spread = static_cast<double>(max_tiles) /
                              static_cast<double>(
                                  std::max<std::int64_t>(
                                      c.layout.numTiles(), 1));
        const double cost = static_cast<double>(c.replayCycles) *
                            (1.0 + beta * imb * (spread - 1.0));
        if (i == 0 || cost < best_cost) {
            best = i;
            best_cost = cost;
        }
    }
    return best;
}

} // namespace infs
