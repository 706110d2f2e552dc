/**
 * @file
 * The fabric backend: bit-accurate execution on real bitlines
 * (BitAccurateFabric) for the checksum, plus the shared cycle replay for
 * sim_cycles/NoC/energy. Ground truth on both axes.
 */

#include "core/backend.hh"

#include "sim/logging.hh"

namespace infs {

namespace {

class FabricBackend final : public ExecBackend
{
  public:
    using ExecBackend::ExecBackend;

    ExecBackendKind kind() const override
    {
        return ExecBackendKind::Fabric;
    }

    BackendResult runJob(const BackendJob &job) override
    {
        infs_assert(job.prog != nullptr, "fabric backend needs a program");
        BackendResult res;
        BitAccurateFabric fab(job.layout, cfg_.l3.wordlines,
                              cfg_.l3.bitlines);
        seedJobInputs(fab, job);
        fab.execute(*job.prog);
        res.checksum = checksumJobOutputs(fab, job);
        res.fabric = fab.stats();

        TimingReplayResult t = replayTiming(cfg_, job, pool_);
        res.simCycles = t.simCycles;
        res.nocHopBytes = t.nocHopBytes;
        res.energyJoules = t.energyJoules;
        return res;
    }
};

} // namespace

std::unique_ptr<ExecBackend>
makeFabricBackend(const SystemConfig &cfg)
{
    return std::make_unique<FabricBackend>(cfg);
}

} // namespace infs
