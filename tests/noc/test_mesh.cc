#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "noc/mesh.hh"
#include "sim/fault.hh"
#include "sim/rng.hh"

namespace infs {
namespace {

NocConfig
cfg8x8()
{
    return NocConfig{};
}

TEST(MeshNoc, CoordinateRoundTrip)
{
    MeshNoc noc(cfg8x8());
    for (BankId n = 0; n < noc.numNodes(); ++n)
        EXPECT_EQ(noc.node(noc.coord(n)), n);
    EXPECT_EQ(noc.coord(0), (MeshCoord{0, 0}));
    EXPECT_EQ(noc.coord(7), (MeshCoord{7, 0}));
    EXPECT_EQ(noc.coord(8), (MeshCoord{0, 1}));
    EXPECT_EQ(noc.coord(63), (MeshCoord{7, 7}));
}

TEST(MeshNoc, ManhattanHops)
{
    MeshNoc noc(cfg8x8());
    EXPECT_EQ(noc.hops(0, 0), 0u);
    EXPECT_EQ(noc.hops(0, 7), 7u);
    EXPECT_EQ(noc.hops(0, 63), 14u);
    EXPECT_EQ(noc.hops(63, 0), 14u);
    EXPECT_EQ(noc.hops(9, 18), 2u); // (1,1) -> (2,2).
}

TEST(MeshNoc, SendAccountsHopBytes)
{
    MeshNoc noc(cfg8x8());
    noc.send(0, 7, 64, TrafficClass::Data);
    EXPECT_DOUBLE_EQ(noc.hopBytes(TrafficClass::Data), 64.0 * 7);
    EXPECT_DOUBLE_EQ(noc.hopBytes(TrafficClass::Control), 0.0);
    noc.send(0, 1, 8, TrafficClass::Control);
    EXPECT_DOUBLE_EQ(noc.hopBytes(TrafficClass::Control), 8.0);
    EXPECT_DOUBLE_EQ(noc.totalHopBytes(), 64.0 * 7 + 8.0);
}

TEST(MeshNoc, SendLatencyModel)
{
    MeshNoc noc(cfg8x8());
    // 1 hop: 5 router stages + 1 link cycle; 64B over 32B links adds 1
    // extra serialization cycle.
    EXPECT_EQ(noc.send(0, 1, 64, TrafficClass::Data), 6u + 1u);
    // Local delivery costs only serialization.
    EXPECT_EQ(noc.send(5, 5, 32, TrafficClass::Data), 0u);
}

TEST(MeshNoc, LocalMessageChargesNothing)
{
    MeshNoc noc(cfg8x8());
    noc.send(3, 3, 4096, TrafficClass::Data);
    EXPECT_DOUBLE_EQ(noc.totalHopBytes(), 0.0);
    EXPECT_DOUBLE_EQ(noc.utilization(1000), 0.0);
}

TEST(MeshNoc, UtilizationGrowsWithTraffic)
{
    MeshNoc noc(cfg8x8());
    EXPECT_DOUBLE_EQ(noc.utilization(100), 0.0);
    noc.send(0, 63, 3200, TrafficClass::Data);
    double u1 = noc.utilization(100);
    EXPECT_GT(u1, 0.0);
    noc.send(63, 0, 3200, TrafficClass::Data);
    EXPECT_GT(noc.utilization(100), u1);
    EXPECT_LT(noc.utilization(1u << 30), 1e-3);
}

TEST(MeshNoc, ResetClearsAccounting)
{
    MeshNoc noc(cfg8x8());
    noc.send(0, 5, 64, TrafficClass::Offload);
    noc.resetStats();
    EXPECT_DOUBLE_EQ(noc.totalHopBytes(), 0.0);
    EXPECT_DOUBLE_EQ(noc.utilization(10), 0.0);
}

TEST(MeshNoc, XYRoutingIsDeterministicPath)
{
    // Route 0 -> 9 goes east then north: 0 -> 1 -> 9, never through 8.
    MeshNoc a(cfg8x8());
    a.send(0, 9, 32, TrafficClass::Data);
    EXPECT_EQ(a.hops(0, 9), 2u);
    EXPECT_DOUBLE_EQ(a.hopBytes(TrafficClass::Data), 64.0);
    EXPECT_DOUBLE_EQ(a.linkBusyBytes(0, 1), 32.0);
    EXPECT_DOUBLE_EQ(a.linkBusyBytes(1, 9), 32.0);
    EXPECT_DOUBLE_EQ(a.linkBusyBytes(0, 8), 0.0);
    EXPECT_DOUBLE_EQ(a.linkBusyBytes(8, 9), 0.0);
    // The way back runs west along row 1, then south down column 0.
    a.send(9, 0, 32, TrafficClass::Data);
    EXPECT_DOUBLE_EQ(a.linkBusyBytes(9, 8), 32.0);
    EXPECT_DOUBLE_EQ(a.linkBusyBytes(8, 0), 32.0);
    EXPECT_DOUBLE_EQ(a.linkBusyBytes(1, 0), 0.0);
    EXPECT_DOUBLE_EQ(a.linkBusyBytes(9, 1), 0.0);
    // Bulk traffic adds the same share to every link slot.
    a.accountBulk(512.0, 1.0, TrafficClass::Offload);
    EXPECT_DOUBLE_EQ(a.linkBusyBytes(0, 1), 34.0);
    EXPECT_DOUBLE_EQ(a.linkBusyBytes(0, 8), 2.0);
}

/**
 * Reference NoC accounting: every unicast enumerates its X-Y route hop
 * by hop, and every bulk flow adds its per-slot share to each of the
 * numNodes x 4 link slots.
 */
struct PerLinkModel {
    NocConfig cfg;
    std::vector<double> links;
    std::array<double, numTrafficClasses> hop{};

    explicit PerLinkModel(const NocConfig &c)
        : cfg(c), links(std::size_t(c.meshX) * c.meshY * 4, 0.0)
    {
    }

    void
    send(BankId src, BankId dst, Bytes bytes, TrafficClass cls)
    {
        unsigned x = src % cfg.meshX, y = src / cfg.meshX;
        const unsigned ex = dst % cfg.meshX, ey = dst / cfg.meshX;
        hop[unsigned(cls)] += double(bytes) *
                              double((x > ex ? x - ex : ex - x) +
                                     (y > ey ? y - ey : ey - y));
        for (; x != ex; x += x < ex ? 1 : -1)
            links[(y * cfg.meshX + x) * 4 + (x < ex ? 0 : 1)] +=
                double(bytes);
        for (; y != ey; y += y < ey ? 1 : -1)
            links[(y * cfg.meshX + x) * 4 + (y < ey ? 2 : 3)] +=
                double(bytes);
    }

    void
    accountBulk(double bytes, double avg_hops, TrafficClass cls)
    {
        const double hop_bytes = bytes * avg_hops;
        hop[unsigned(cls)] += hop_bytes;
        const double per_link = hop_bytes / double(links.size());
        for (double &l : links)
            l += per_link;
    }

    double
    utilization(Tick elapsed) const
    {
        double busy = 0.0;
        for (double b : links)
            busy += b / double(cfg.linkBytes);
        const double real_links =
            2.0 * ((cfg.meshX - 1) * cfg.meshY + cfg.meshX * (cfg.meshY - 1));
        return busy / (real_links * double(elapsed));
    }

    void
    resetStats()
    {
        std::fill(links.begin(), links.end(), 0.0);
        hop.fill(0.0);
    }
};

TEST(MeshNoc, AccountingMatchesPerLinkModelBitForBit)
{
    // Random interleavings of sends, bulk flows and resets on the 8x8
    // mesh and the 4x4 test mesh. Bulk flows use the hop factors the
    // callers pass: avgHops(), 1 (stream migration), a bank-delta mean
    // (inter-tile shifts, with a k / arraysPerBank crossing share) and
    // min(avgHops(), n) (broadcasts).
    struct Machine {
        NocConfig noc;
        unsigned arraysPerBank;
    };
    const SystemConfig test = testSystemConfig();
    const SystemConfig paper;
    for (const Machine &m :
         {Machine{paper.noc, paper.l3.computeWays * paper.l3.arraysPerWay},
          Machine{test.noc, test.l3.computeWays * test.l3.arraysPerWay}}) {
        MeshNoc noc(m.noc);
        PerLinkModel ref(m.noc);
        const unsigned nodes = noc.numNodes();
        Rng rng(21 + nodes);
        int sends = 0, bulks = 0;
        for (int op = 0; op < 20000; ++op) {
            const auto cls =
                static_cast<TrafficClass>(rng.nextBounded(numTrafficClasses));
            switch (rng.nextBounded(8)) {
              case 0: case 1: case 2: {
                const auto src = BankId(rng.nextBounded(nodes));
                const auto dst = BankId(rng.nextBounded(nodes));
                const Bytes bytes = 1 + rng.nextBounded(4096);
                noc.send(src, dst, bytes, cls);
                ref.send(src, dst, bytes, cls);
                ++sends;
                break;
              }
              case 3: case 4: case 5: case 6: {
                double bytes = double(1 + rng.nextBounded(1u << 24));
                double avg_hops = noc.avgHops();
                switch (rng.nextBounded(4)) {
                  case 1:
                    avg_hops = 1.0;
                    break;
                  case 2: {
                    const auto delta = 1 + rng.nextBounded(nodes - 1);
                    double hops = 0.0;
                    for (BankId b = 0; b < nodes; ++b)
                        hops += noc.hops(b, BankId((b + delta) % nodes));
                    avg_hops = hops / nodes;
                    bytes *= double(1 + rng.nextBounded(m.arraysPerBank)) /
                             double(m.arraysPerBank);
                    break;
                  }
                  case 3:
                    avg_hops = std::min<double>(
                        noc.avgHops(), double(2 + rng.nextBounded(nodes)));
                    break;
                }
                noc.accountBulk(bytes, avg_hops, cls);
                ref.accountBulk(bytes, avg_hops, cls);
                ++bulks;
                break;
              }
              default:
                if (rng.nextBounded(50) == 0) {
                    noc.resetStats();
                    ref.resetStats();
                }
                break;
            }
            if (op % 97 != 0)
                continue;
            for (unsigned c = 0; c < numTrafficClasses; ++c)
                ASSERT_EQ(noc.hopBytes(TrafficClass(c)), ref.hop[c])
                    << "op " << op;
            for (Tick elapsed : {Tick(1), Tick(977), Tick(1) << 40})
                ASSERT_EQ(noc.utilization(elapsed), ref.utilization(elapsed))
                    << "op " << op;
            for (BankId from = 0; from < nodes; ++from) {
                const MeshCoord c = noc.coord(from);
                const unsigned dirs[4][2] = {{c.x + 1, c.y}, {c.x - 1, c.y},
                                             {c.x, c.y + 1}, {c.x, c.y - 1}};
                for (unsigned dir = 0; dir < 4; ++dir) {
                    if (dirs[dir][0] >= m.noc.meshX ||
                        dirs[dir][1] >= m.noc.meshY)
                        continue;
                    const BankId to = noc.node({dirs[dir][0], dirs[dir][1]});
                    ASSERT_EQ(noc.linkBusyBytes(from, to),
                              ref.links[from * 4 + dir])
                        << "op " << op << " link " << from << "->" << to;
                }
            }
        }
        EXPECT_GT(sends, 5000);
        EXPECT_GT(bulks, 8000);
    }
}

/** Expect @p a and @p b to have charged every class and link alike. */
void
expectSameAccounting(const MeshNoc &a, const MeshNoc &b)
{
    for (unsigned c = 0; c < numTrafficClasses; ++c)
        EXPECT_EQ(a.hopBytes(TrafficClass(c)), b.hopBytes(TrafficClass(c)));
    for (Tick elapsed : {Tick(1), Tick(977), Tick(1) << 40})
        EXPECT_EQ(a.utilization(elapsed), b.utilization(elapsed));
    for (BankId from = 0; from < a.numNodes(); ++from) {
        const MeshCoord c = a.coord(from);
        if (c.x + 1 < a.config().meshX) {
            const BankId to = a.node({c.x + 1, c.y});
            EXPECT_EQ(a.linkBusyBytes(from, to), b.linkBusyBytes(from, to));
            EXPECT_EQ(a.linkBusyBytes(to, from), b.linkBusyBytes(to, from));
        }
        if (c.y + 1 < a.config().meshY) {
            const BankId to = a.node({c.x, c.y + 1});
            EXPECT_EQ(a.linkBusyBytes(from, to), b.linkBusyBytes(from, to));
            EXPECT_EQ(a.linkBusyBytes(to, from), b.linkBusyBytes(to, from));
        }
    }
}

TEST(MeshNoc, CountedCallsEqualRepeatedCalls)
{
    // A counted send or bulk flow charges exactly what that many
    // separate calls charge, on both meshes, in random interleavings.
    for (const NocConfig &cfg : {NocConfig{}, testSystemConfig().noc}) {
        MeshNoc counted(cfg), repeated(cfg);
        const unsigned nodes = counted.numNodes();
        Rng rng(7 + nodes);
        for (int op = 0; op < 400; ++op) {
            const auto cls =
                static_cast<TrafficClass>(rng.nextBounded(numTrafficClasses));
            const std::uint64_t n = 1 + rng.nextBounded(5000);
            if (rng.nextBounded(2) == 0) {
                const auto src = BankId(rng.nextBounded(nodes));
                const auto dst = BankId(rng.nextBounded(nodes));
                const Bytes bytes = 1 + rng.nextBounded(4096);
                const Tick t = counted.send(src, dst, bytes, cls, n);
                Tick last = 0;
                for (std::uint64_t i = 0; i < n; ++i)
                    last = repeated.send(src, dst, bytes, cls);
                EXPECT_EQ(t, last);
            } else {
                const double bytes = double(1 + rng.nextBounded(1u << 16));
                const double hops =
                    rng.nextBounded(2) ? counted.avgHops() : 1.0;
                counted.accountBulk(bytes, hops, cls, n);
                for (std::uint64_t i = 0; i < n; ++i)
                    repeated.accountBulk(bytes, hops, cls);
            }
        }
        expectSameAccounting(counted, repeated);
        EXPECT_GT(counted.totalHopBytes(), 0.0);
    }
}

TEST(MeshNoc, CountedCallsSampleFaultsPerMessage)
{
    // With an injector, a counted call draws from the NoC fault stream
    // once per message or flow, as separate calls do: the fault counts,
    // retries, retry cycles and retransmitted traffic all agree.
    for (double rate : {1.0, 0.3}) {
        FaultConfig fc;
        fc.enabled = true;
        fc.nocFaultRate = rate;
        MeshNoc counted(NocConfig{}), repeated(NocConfig{});
        FaultInjector fc_counted(fc), fc_repeated(fc);
        counted.attachFaultInjector(&fc_counted);
        repeated.attachFaultInjector(&fc_repeated);
        const std::uint64_t n = 37;
        counted.send(0, 63, 64, TrafficClass::Offload, n);
        for (std::uint64_t i = 0; i < n; ++i)
            repeated.send(0, 63, 64, TrafficClass::Offload);
        counted.accountBulk(1000.0, counted.avgHops(), TrafficClass::Data,
                            n);
        for (std::uint64_t i = 0; i < n; ++i)
            repeated.accountBulk(1000.0, repeated.avgHops(),
                                 TrafficClass::Data);
        expectSameAccounting(counted, repeated);
        const FaultStats a = fc_counted.snapshot();
        const FaultStats b = fc_repeated.snapshot();
        EXPECT_EQ(a.nocPacketFaults, b.nocPacketFaults);
        EXPECT_EQ(a.detected, b.detected);
        EXPECT_EQ(a.retries, b.retries);
        EXPECT_EQ(a.retryCycles, b.retryCycles);
        if (rate == 1.0) {
            // Every message faults once: n sends and n flows of 16 lines.
            EXPECT_EQ(a.nocPacketFaults, n + n * 16);
            EXPECT_EQ(a.retries, n + n * 16);
        }
    }
}

TEST(MeshNoc, TrafficClassNames)
{
    EXPECT_STREQ(trafficClassName(TrafficClass::Control), "control");
    EXPECT_STREQ(trafficClassName(TrafficClass::InterTile), "inter_tile");
}

} // namespace
} // namespace infs
