/**
 * @file
 * Differential determinism: the host pool's fan-outs (JIT pre-lowering,
 * fat-binary candidates, gauss_elim blocks) must be bit-exact against the
 * sequential path. Every ExecStats field, the functional arrays and the
 * fault-injection counters have to match between hostThreads=1 and
 * hostThreads=8 — the pool changes wall-clock time only, never the
 * simulated machine (DESIGN.md §10).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "core/executor.hh"
#include "core/plan.hh"
#include "uarch/system.hh"
#include "workloads/workloads.hh"

namespace infs {
namespace {

/** Field-by-field ExecStats equality. Floating-point fields are summed
 * in a fixed order by the engine, so even they must match exactly. */
void
expectStatsEqual(const ExecStats &a, const ExecStats &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.dramCycles, b.dramCycles);
    EXPECT_EQ(a.jitCycles, b.jitCycles);
    EXPECT_EQ(a.moveCycles, b.moveCycles);
    EXPECT_EQ(a.computeCycles, b.computeCycles);
    EXPECT_EQ(a.finalReduceCycles, b.finalReduceCycles);
    EXPECT_EQ(a.mixCycles, b.mixCycles);
    EXPECT_EQ(a.nearMemCycles, b.nearMemCycles);
    EXPECT_EQ(a.coreCycles, b.coreCycles);
    EXPECT_EQ(a.syncCycles, b.syncCycles);
    ASSERT_EQ(a.nocHopBytes.size(), b.nocHopBytes.size());
    for (std::size_t c = 0; c < a.nocHopBytes.size(); ++c)
        EXPECT_DOUBLE_EQ(a.nocHopBytes[c], b.nocHopBytes[c]) << c;
    EXPECT_DOUBLE_EQ(a.nocUtilization, b.nocUtilization);
    EXPECT_DOUBLE_EQ(a.intraTileBytes, b.intraTileBytes);
    EXPECT_DOUBLE_EQ(a.interTileBytes, b.interTileBytes);
    EXPECT_DOUBLE_EQ(a.interTileNocBytes, b.interTileNocBytes);
    EXPECT_EQ(a.totalOps, b.totalOps);
    EXPECT_EQ(a.inMemOps, b.inMemOps);
    EXPECT_DOUBLE_EQ(a.energyJoules, b.energyJoules);
    EXPECT_DOUBLE_EQ(a.dramBytes, b.dramBytes);
    EXPECT_EQ(a.faultsInjected, b.faultsInjected);
    EXPECT_EQ(a.faultsDetected, b.faultsDetected);
    EXPECT_EQ(a.faultRetries, b.faultRetries);
    EXPECT_EQ(a.retryCycles, b.retryCycles);
    EXPECT_EQ(a.regionsDegraded, b.regionsDegraded);
    EXPECT_EQ(a.phaseCycles, b.phaseCycles);
    EXPECT_EQ(a.chosenTile, b.chosenTile);
}

ExecStats
runWith(unsigned host_threads, const Workload &w, Paradigm p,
        bool faults = false)
{
    SystemConfig cfg = testSystemConfig();
    cfg.hostThreads = host_threads;
    if (faults) {
        cfg.fault.enabled = true;
        cfg.fault.seed = 0x5eed;
        cfg.fault.sramBitFlipRate = 0.5;
        cfg.fault.cmdTransientRate = 0.25;
    }
    InfinitySystem sys(cfg);
    return Executor(sys, p).run(w);
}

class HostThreadsTest : public ::testing::TestWithParam<Paradigm>
{
};

TEST_P(HostThreadsTest, StencilStatsIdentical)
{
    Workload w = makeStencil2d(512, 512, 6);
    w.assumeTransposed = true;
    expectStatsEqual(runWith(1, w, GetParam()), runWith(8, w, GetParam()));
}

TEST_P(HostThreadsTest, MmStatsIdentical)
{
    Workload w = makeMm(64, 64, 64, 2);
    w.assumeTransposed = true;
    expectStatsEqual(runWith(1, w, GetParam()), runWith(8, w, GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Paradigms, HostThreadsTest,
                         ::testing::Values(Paradigm::InfS,
                                           Paradigm::InfSNoJit,
                                           Paradigm::InL3));

TEST(HostThreads, FaultCountersIdentical)
{
    Workload w = makeStencil2d(256, 256, 4);
    w.assumeTransposed = true;
    ExecStats a = runWith(1, w, Paradigm::InfS, true);
    ExecStats b = runWith(8, w, Paradigm::InfS, true);
    EXPECT_GT(a.faultsInjected, 0u);
    expectStatsEqual(a, b);
}

TEST(HostThreads, FunctionalResultsIdentical)
{
    // Not just timing: the computed arrays themselves must agree.
    Workload w = makeStencil1d(4096, 5);
    w.assumeTransposed = true;

    auto run = [&](unsigned host_threads) {
        SystemConfig cfg = testSystemConfig();
        cfg.hostThreads = host_threads;
        InfinitySystem sys(cfg);
        ArrayStore store;
        Executor(sys, Paradigm::InfS).run(w, &store);
        return store;
    };
    ArrayStore s1 = run(1);
    ArrayStore s8 = run(8);
    ASSERT_EQ(s1.size(), s8.size());
    for (ArrayId a = 0; a < static_cast<ArrayId>(s1.size()); ++a) {
        const auto &d1 = s1.array(a).data;
        const auto &d8 = s8.array(a).data;
        ASSERT_EQ(d1.size(), d8.size()) << "array " << a;
        for (std::size_t i = 0; i < d1.size(); ++i)
            ASSERT_EQ(std::bit_cast<std::uint32_t>(d1[i]),
                      std::bit_cast<std::uint32_t>(d8[i]))
                << "array " << a << " elem " << i;
    }
}

TEST(HostThreads, NestedCandidateLoweringIdentical)
{
    // The production nesting: the executor's pre-lowering batch holds one
    // task per memoized region, and each task lowers its fat-binary
    // candidates as an inner batch on the same pool. dwt2d in steady
    // state has two such regions with three candidates each.
    Workload w = makeDwt2d(256, 256);
    w.assumeTransposed = true;
    const RegionPlan plan = planRegion(w, testSystemConfig(), true);
    ASSERT_GT(plan.candidates.size(), 1u);
    unsigned nested = 0;
    for (const PhasePlan &pp : plan.phases)
        nested += pp.route == Route::InMemory && !pp.memoKey.empty() &&
                  pp.onPrimary;
    ASSERT_GT(nested, 1u);
    const ExecStats seq = runWith(1, w, Paradigm::InfS);
    EXPECT_GE(seq.scheduleId, 0);
    expectStatsEqual(seq, runWith(4, w, Paradigm::InfS));
    expectStatsEqual(seq, runWith(8, w, Paradigm::InfS));
}

TEST(HostThreads, GaussElimNonMemoizedPathIdentical)
{
    // gauss_elim rebuilds its tDFG every iteration (no memo key), so it
    // exercises the block-parallel per-iteration lowering path: one
    // block at 8 threads, two blocks (64 + 31 iterations) at 2.
    Workload w = makeGaussElim(96);
    w.assumeTransposed = true;
    const ExecStats seq = runWith(1, w, Paradigm::InfS);
    expectStatsEqual(seq, runWith(8, w, Paradigm::InfS));
    expectStatsEqual(seq, runWith(2, w, Paradigm::InfS));
}

} // namespace
} // namespace infs
