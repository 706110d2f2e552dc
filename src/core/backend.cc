#include "core/backend.hh"

#include <array>

#include "energy/energy.hh"
#include "mem/address_map.hh"
#include "noc/mesh.hh"
#include "tdfg/interp.hh"
#include "uarch/tensor_controller.hh"

namespace infs {

void
ExecBackend::runWorkloadFunctional(const Workload &w,
                                   ArrayStore &store) const
{
    if (w.setup)
        w.setup(store);
    for (const Phase &p : w.phases) {
        for (std::uint64_t it = 0; it < p.iterations; ++it) {
            if (p.functionalFallback) {
                // Overrides the interpreter when set (it may stage data
                // and invoke the interpreter itself).
                p.functionalFallback(store, it);
            } else if (p.buildTdfg) {
                TdfgGraph g = p.buildTdfg(it);
                TdfgInterpreter interp(store);
                interp.run(g);
            }
        }
    }
}

// Factories defined in backend_fabric.cc / backend_functional.cc /
// backend_timing.cc; registered here.
std::unique_ptr<ExecBackend> makeFabricBackend(const SystemConfig &cfg);
std::unique_ptr<ExecBackend> makeFunctionalBackend(const SystemConfig &cfg);
std::unique_ptr<ExecBackend> makeTimingBackend(const SystemConfig &cfg);

namespace {

struct BackendEntry {
    ExecBackendKind kind;
    std::unique_ptr<ExecBackend> (*make)(const SystemConfig &);
};

constexpr std::array<BackendEntry, 3> kBackendRegistry{{
    {ExecBackendKind::Fabric, &makeFabricBackend},
    {ExecBackendKind::Functional, &makeFunctionalBackend},
    {ExecBackendKind::Timing, &makeTimingBackend},
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

std::optional<TiledLayout>
primaryLayout(const Workload &w, const SystemConfig &cfg)
{
    // §4.1 layout choice exactly as the executor resolves it: hints from
    // every tensor phase, one primary layout for the region.
    LayoutHints hints;
    bool have_tdfg = false;
    for (const Phase &p : w.phases) {
        if (!p.buildTdfg)
            continue;
        LayoutHints h = LayoutHints::fromGraph(p.buildTdfg(0));
        hints.shiftDims.insert(h.shiftDims.begin(), h.shiftDims.end());
        hints.broadcastDims.insert(h.broadcastDims.begin(),
                                   h.broadcastDims.end());
        if (h.reduceDim)
            hints.reduceDim = h.reduceDim;
        have_tdfg = true;
    }
    if (!have_tdfg)
        return std::nullopt;
    TilingPolicy policy(cfg.l3);
    TileDecision tile = policy.choose(w.primaryShape, w.elemBytes, hints);
    if (!tile.valid)
        return std::nullopt;
    auto made = TiledLayout::make(w.primaryShape, tile.tile);
    if (!made)
        return std::nullopt;
    return std::move(*made);
}

std::optional<BackendJob>
planPrimaryJob(const Workload &w, const SystemConfig &cfg,
               std::int64_t volume_cap)
{
    auto layout = primaryLayout(w, cfg);
    if (!layout)
        return std::nullopt;
    BackendJob job;
    job.layout = std::move(*layout);
    job.volume = 1;
    for (Coord s : job.layout.shape())
        job.volume *= s;
    if (volume_cap > 0 && job.volume > volume_cap)
        return std::nullopt;

    AddressMap map(cfg.l3, cfg.noc.memCtrls);
    JitCompiler jit(cfg);
    for (const Phase &p : w.phases) {
        if (!p.buildTdfg)
            continue;
        TdfgGraph g = p.buildTdfg(0);
        if (!p.latticeShape.empty() || g.dims() != job.layout.dims())
            continue; // Primary-layout phases only.
        auto prog_or = jit.tryLower(g, job.layout, map);
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
    // function of (program, layout, config), so fabric and timing report
    // the same sim_cycles by construction — and the differential tests
    // certify it stays that way.
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
