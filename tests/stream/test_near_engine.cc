#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "stream/near_engine.hh"

namespace infs {
namespace {

class NearEngineTest : public ::testing::Test
{
  protected:
    NearEngineTest()
        : cfg(defaultSystemConfig()), noc(cfg.noc), l3(cfg.l3),
          dram(cfg.dram, cfg.core.ghz), engine(cfg, noc, l3, dram, energy)
    {
    }

    SystemConfig cfg;
    MeshNoc noc;
    L3Model l3;
    DramModel dram;
    EnergyAccount energy;
    NearStreamEngine engine;
};

TEST_F(NearEngineTest, VecAddStreams)
{
    // C[i] = A[i] + B[i]: two load streams forwarding to one store stream
    // (Fig 1b). 1M elements each, fully L3 resident.
    const std::int64_t n = 1 << 20;
    std::vector<NearStream> streams(3);
    streams[0].pattern = AccessPattern::linear(0, 0, n);
    streams[0].forwardTo = 2;
    streams[1].pattern = AccessPattern::linear(1, 0, n);
    streams[1].forwardTo = 2;
    streams[2].pattern = AccessPattern::linear(2, 0, n);
    streams[2].isStore = true;
    streams[2].flopsPerElem = 1;
    NearExecResult r = engine.run(streams, 0);
    EXPECT_EQ(r.elements, 3u << 20);
    EXPECT_EQ(r.l3Bytes, Bytes(3) * 4 * n);
    EXPECT_EQ(r.dramBytes, 0u);
    EXPECT_EQ(r.flops, Bytes(n));
    // Bandwidth bound: 12 MB over 64 x 64 B/cycle = 3072 cycles + fixed.
    EXPECT_GT(r.cycles, 3000u);
    EXPECT_LT(r.cycles, 4000u);
    // Forwarding traffic exists but is far below core-centric movement
    // (which would be ~bytes x avg_hops for all three arrays).
    EXPECT_GT(noc.hopBytes(TrafficClass::Data), 0.0);
    EXPECT_GT(noc.hopBytes(TrafficClass::Offload), 0.0);
}

TEST_F(NearEngineTest, DramBoundWhenNotResident)
{
    const std::int64_t n = 1 << 20;
    std::vector<NearStream> streams(1);
    streams[0].pattern = AccessPattern::linear(0, 0, n);
    streams[0].l3Residency = 0.0;
    NearExecResult r = engine.run(streams, 0);
    EXPECT_EQ(r.dramBytes, Bytes(4) * n);
    // 4 MB at 12.8 B/cycle ~ 327k cycles.
    EXPECT_GT(r.cycles, 300000u);
    EXPECT_EQ(dram.totalBytes(), Bytes(4) * n);
}

TEST_F(NearEngineTest, ComputeBoundWithHeavyPerElementWork)
{
    const std::int64_t n = 1 << 18;
    std::vector<NearStream> streams(1);
    streams[0].pattern = AccessPattern::linear(0, 0, n);
    streams[0].flopsPerElem = 100;
    NearExecResult r = engine.run(streams, 0);
    // 26.2M flops / 1024 per cycle ~ 25.6k cycles, above the bw bound.
    EXPECT_GT(r.cycles, 25000u);
}

TEST_F(NearEngineTest, IndirectStreamsCostReuseBlindTraffic)
{
    const std::int64_t n = 1 << 16;
    std::vector<NearStream> affine(1), indirect(1);
    affine[0].pattern = AccessPattern::linear(0, 0, n);
    indirect[0].pattern = AccessPattern::gather(0, 1, n);
    NearExecResult ra = engine.run(affine, 0);
    double affine_traffic = noc.totalHopBytes();
    noc.resetStats();
    NearExecResult ri = engine.run(indirect, 0);
    double indirect_traffic = noc.totalHopBytes();
    EXPECT_GT(indirect_traffic, 5.0 * affine_traffic);
    EXPECT_EQ(ra.elements, ri.elements);
}

TEST_F(NearEngineTest, ReduceSendsResultToCore)
{
    const std::int64_t n = 4096;
    std::vector<NearStream> streams(1);
    streams[0].pattern = AccessPattern::linear(0, 0, n);
    streams[0].isReduce = true;
    streams[0].flopsPerElem = 1;
    NearExecResult r = engine.run(streams, 42);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(noc.hopBytes(TrafficClass::Offload), 0.0);
}

TEST_F(NearEngineTest, EnergyCharged)
{
    const std::int64_t n = 1 << 16;
    std::vector<NearStream> streams(1);
    streams[0].pattern = AccessPattern::linear(0, 0, n);
    streams[0].flopsPerElem = 2;
    engine.run(streams, 0);
    EXPECT_GT(energy.count(EnergyEvent::L3Access), 0.0);
    EXPECT_DOUBLE_EQ(energy.count(EnergyEvent::StreamEngineOp),
                     2.0 * n);
}

/** The models one engine charges, fresh. */
struct EngineModels {
    explicit EngineModels(const SystemConfig &c)
        : cfg(c), noc(c.noc), l3(c.l3), dram(c.dram, c.core.ghz),
          engine(cfg, noc, l3, dram, energy)
    {
    }

    SystemConfig cfg;
    MeshNoc noc;
    L3Model l3;
    DramModel dram;
    EnergyAccount energy;
    NearStreamEngine engine;
};

/** Every directed link of @p noc's mesh, as (from, to) pairs. */
std::vector<std::pair<BankId, BankId>>
meshLinks(const MeshNoc &noc)
{
    std::vector<std::pair<BankId, BankId>> links;
    const NocConfig &c = noc.config();
    for (BankId from = 0; from < noc.numNodes(); ++from) {
        const MeshCoord m = noc.coord(from);
        if (m.x + 1 < c.meshX)
            links.emplace_back(from, noc.node({m.x + 1, m.y}));
        if (m.x > 0)
            links.emplace_back(from, noc.node({m.x - 1, m.y}));
        if (m.y + 1 < c.meshY)
            links.emplace_back(from, noc.node({m.x, m.y + 1}));
        if (m.y > 0)
            links.emplace_back(from, noc.node({m.x, m.y - 1}));
    }
    return links;
}

TEST(NearEngine, RepeatChargesLikeRepeatedRuns)
{
    // One group with every stream feature: an affine stream forwarding
    // to a store (half of it missing L3), an indirect gather, and a
    // reduce shipping its value back to the core.
    std::vector<NearStream> streams(4);
    streams[0].pattern = AccessPattern::linear(0, 0, 3000);
    streams[0].forwardTo = 2;
    streams[0].l3Residency = 0.5;
    streams[1].pattern = AccessPattern::gather(1, 3, 1000);
    streams[1].forwardTo = 2;
    streams[2].pattern = AccessPattern::linear(2, 0, 3000);
    streams[2].isStore = true;
    streams[2].flopsPerElem = 3;
    streams[3].pattern = AccessPattern::linear(4, 0, 5000);
    streams[3].isReduce = true;
    streams[3].flopsPerElem = 1;

    for (const SystemConfig &cfg :
         {defaultSystemConfig(), testSystemConfig()}) {
        for (BankId core : {BankId(0), BankId(5)}) {
            for (std::uint64_t n : {1u, 2u, 7u, 4095u}) {
                SCOPED_TRACE(testing::Message()
                             << cfg.l3.numBanks << " banks, core " << core
                             << ", N = " << n);
                EngineModels once(cfg), each(cfg);
                const NearExecResult r =
                    once.engine.run(streams, core, 4, n);
                NearExecResult last;
                for (std::uint64_t i = 0; i < n; ++i)
                    last = each.engine.run(streams, core);
                EXPECT_EQ(r.cycles, last.cycles);
                EXPECT_EQ(r.l3Bytes, last.l3Bytes);
                EXPECT_EQ(r.dramBytes, last.dramBytes);
                EXPECT_EQ(r.elements, last.elements);
                EXPECT_EQ(r.flops, last.flops);
                for (unsigned c = 0; c < numTrafficClasses; ++c)
                    EXPECT_EQ(once.noc.hopBytes(TrafficClass(c)),
                              each.noc.hopBytes(TrafficClass(c)))
                        << trafficClassName(TrafficClass(c));
                for (const auto &[from, to] : meshLinks(once.noc))
                    ASSERT_EQ(once.noc.linkBusyBytes(from, to),
                              each.noc.linkBusyBytes(from, to))
                        << from << "->" << to;
                for (Tick elapsed : {Tick(1), Tick(977), r.cycles * n})
                    EXPECT_EQ(once.noc.utilization(elapsed),
                              each.noc.utilization(elapsed));
                EXPECT_EQ(once.l3.bytesRead(), each.l3.bytesRead());
                EXPECT_EQ(once.l3.bytesWritten(), each.l3.bytesWritten());
                EXPECT_EQ(once.dram.totalBytes(), each.dram.totalBytes());
                for (unsigned e = 0; e < numEnergyEvents; ++e)
                    EXPECT_EQ(once.energy.count(EnergyEvent(e)),
                              each.energy.count(EnergyEvent(e)))
                        << energyEventName(EnergyEvent(e));
                // Every model saw traffic, so a dropped repeat shows.
                EXPECT_GT(once.noc.hopBytes(TrafficClass::Data), 0.0);
                EXPECT_GT(once.noc.hopBytes(TrafficClass::Offload), 0.0);
                EXPECT_GT(once.l3.bytesWritten(), 0u);
                EXPECT_GT(once.dram.totalBytes(), 0u);
            }
        }
    }
}

} // namespace
} // namespace infs
