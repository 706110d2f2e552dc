#include <gtest/gtest.h>

#include "uarch/system.hh"

namespace infs {
namespace {

class TcTest : public ::testing::Test
{
  protected:
    TcTest() : sys(defaultSystemConfig()) {}

    std::shared_ptr<const InMemProgram>
    lowerVecAdd(std::int64_t n, TiledLayout &lay)
    {
        TdfgGraph g(1, "vec_add");
        NodeId a = g.tensor(0, HyperRect::interval(0, n));
        NodeId b = g.tensor(1, HyperRect::interval(0, n));
        g.output(g.compute(BitOp::Add, {a, b}), 2);
        lay = TiledLayout({n}, {256});
        return sys.jit().lower(g, lay, sys.map());
    }

    InfinitySystem sys;
};

TEST_F(TcTest, VecAddTimingIsOneBitSerialAdd)
{
    TiledLayout lay;
    auto prog = lowerVecAdd(1 << 22, lay); // 4M elements fill all bitlines.
    InMemExecResult r =
        sys.tensorController().execute(*prog, lay, 0);
    // One fp32 add across all banks: makespan ~ fp32Add latency.
    LatencyTable lat;
    EXPECT_EQ(r.computeCycles, lat.fp32Add);
    EXPECT_GE(r.cycles, lat.fp32Add);
    EXPECT_LT(r.cycles, lat.fp32Add + 100);
    EXPECT_EQ(r.inMemOps, 1u << 22);
    EXPECT_EQ(r.interTileNocBytes, 0.0);
}

TEST_F(TcTest, StencilShiftsProduceIntraAndInterTraffic)
{
    const std::int64_t n = 1 << 20;
    TdfgGraph g(1, "stencil1d");
    NodeId a0 = g.tensor(0, HyperRect::interval(0, n - 2));
    NodeId a1 = g.tensor(0, HyperRect::interval(1, n - 1));
    NodeId a2 = g.tensor(0, HyperRect::interval(2, n));
    g.output(g.compute(BitOp::Add,
                       {g.move(a0, 0, 1), a1, g.move(a2, 0, -1)}),
             1);
    TiledLayout lay({n}, {256});
    auto prog = sys.jit().lower(g, lay, sys.map());
    InMemExecResult r = sys.tensorController().execute(*prog, lay, 0);
    // Shifting by 1 with tile 256: nearly all elements move intra-tile;
    // one element per tile crosses tiles.
    EXPECT_GT(r.intraTileBytes, 100.0 * r.interTileBytes);
    EXPECT_GT(r.interTileNocBytes, 0.0);
    EXPECT_GT(r.syncCycles, 0u);
    EXPECT_GT(sys.noc().hopBytes(TrafficClass::InterTile), 0.0);
}

TEST_F(TcTest, SyncBarriersSerialize)
{
    // Two programs identical except for sync count: more syncs => more
    // cycles.
    const std::int64_t n = 1 << 20;
    TdfgGraph g(1, "shifty");
    NodeId a = g.tensor(0, HyperRect::interval(0, n));
    NodeId m1 = g.move(a, 0, 256);       // Pure inter-tile.
    NodeId s1 = g.compute(BitOp::Add, {g.shrink(a, 0, 256, n), m1});
    NodeId m2 = g.move(s1, 0, 256);
    NodeId s2 = g.compute(BitOp::Add, {g.shrink(s1, 0, 512, n), m2});
    g.output(s2, 1);
    TiledLayout lay({n}, {256});
    auto prog = sys.jit().lower(g, lay, sys.map());
    EXPECT_GE(prog->numSync, 2u);
    InMemExecResult r = sys.tensorController().execute(*prog, lay, 0);
    EXPECT_GT(r.syncCycles, 0u);
}

TEST_F(TcTest, EnergyScalesWithTilesTouched)
{
    TiledLayout lay_small, lay_big;
    auto small = lowerVecAdd(1 << 12, lay_small);
    double e0 = sys.energy().count(EnergyEvent::SramRowActivate);
    sys.tensorController().execute(*small, lay_small, 0);
    double e1 = sys.energy().count(EnergyEvent::SramRowActivate);
    auto big = lowerVecAdd(1 << 22, lay_big);
    sys.tensorController().execute(*big, lay_big, 0);
    double e2 = sys.energy().count(EnergyEvent::SramRowActivate);
    EXPECT_GT(e1 - e0, 0.0);
    EXPECT_GT(e2 - e1, 100.0 * (e1 - e0));
}

TEST_F(TcTest, PrepareAndRelease)
{
    PrepareResult p = sys.prepareTransposed(16 << 20, 0.5);
    EXPECT_EQ(p.movedBytes, Bytes(16) << 20);
    EXPECT_EQ(p.dramBytes, Bytes(8) << 20);
    EXPECT_GT(p.cycles, 0u);
    EXPECT_EQ(sys.l3().reservedWays(0), 16u);
    // Delayed release: dirty data within the normal L3 capacity stays
    // cached; only overflow is written back.
    Tick rel_small = sys.releaseTransposed(4 << 20);
    EXPECT_EQ(rel_small, 0u);
    EXPECT_EQ(sys.l3().reservedWays(0), 0u);
    sys.prepareTransposed(16 << 20, 1.0);
    // Only dirty data beyond the whole (released) L3 capacity is evicted.
    Tick rel_big = sys.releaseTransposed(Bytes(256) << 20);
    EXPECT_GT(rel_big, 0u);
}

TEST_F(TcTest, DisjointGroupsOverlap)
{
    // The boundary decomposition of a 5-point stencil2d emits commands
    // on disjoint tiles in shared groups that execute concurrently;
    // giving every command its own group serializes them.
    const Coord n = 64;
    TdfgGraph g(2, "stencil2d");
    HyperRect inner = HyperRect::box2(1, n - 1, 1, n - 1);
    NodeId acc = g.tensor(0, inner);
    for (unsigned dim = 0; dim < 2; ++dim)
        for (Coord d : {Coord(-1), Coord(1)}) {
            NodeId t = g.tensor(0, inner.shifted(dim, d));
            acc = g.compute(BitOp::Add, {acc, g.move(t, dim, -d)});
        }
    g.output(acc, 1);
    TiledLayout lay({n, n}, {16, 16});
    auto prog = sys.jit().lower(g, lay, sys.map());
    Tick overlapped = sys.tensorController().execute(*prog, lay, 0).cycles;
    InMemProgram serial = *prog;
    for (unsigned i = 0; i < serial.commands.size(); ++i)
        serial.commands[i].group = i;
    Tick serialized = sys.tensorController().execute(serial, lay, 0).cycles;
    EXPECT_GT(serialized, overlapped);
}

TEST_F(TcTest, ResetStatsClearsEverything)
{
    TiledLayout lay;
    auto prog = lowerVecAdd(1 << 16, lay);
    sys.tensorController().execute(*prog, lay, 0);
    sys.prepareTransposed(1 << 20, 0.0);
    sys.releaseTransposed(0);
    EXPECT_GT(sys.noc().totalHopBytes(), 0.0);
    sys.resetStats();
    EXPECT_DOUBLE_EQ(sys.noc().totalHopBytes(), 0.0);
    EXPECT_EQ(sys.dram().totalBytes(), 0u);
    EXPECT_DOUBLE_EQ(sys.energy().totalJoules(), 0.0);
}

} // namespace
} // namespace infs
