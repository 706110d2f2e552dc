/**
 * @file
 * End-to-end bit-accurate validation: build a tDFG, JIT-lower it
 * (Alg. 1 + Alg. 2), execute the commands on real bit-serial SRAM
 * arrays, and compare against the tDFG interpreter. This closes the loop
 * from IR to bits.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "sim/fault.hh"
#include "sim/rng.hh"
#include "tdfg/interp.hh"
#include "uarch/bit_exec.hh"
#include "uarch/system.hh"

namespace infs {
namespace {

class BitExecTest : public ::testing::Test
{
  protected:
    BitExecTest() : cfg(testSystemConfig()), map(cfg.l3), jit(cfg) {}

    /** Find the wordline slot the program assigned to an array. */
    static unsigned
    slotOf(const InMemProgram &prog, ArrayId a)
    {
        for (auto &[id, wl] : prog.arraySlots)
            if (id == a)
                return wl;
        infs_panic("array %d has no slot", a);
    }

    static unsigned
    outputSlotOf(const InMemProgram &prog, ArrayId a)
    {
        for (auto &[id, wl] : prog.outputSlots)
            if (id == a)
                return wl;
        infs_panic("array %d has no output slot", a);
    }

    /** Every element of @p got has the bit pattern of @p want. */
    static void
    expectBitExact(const std::vector<float> &got,
                   const std::vector<float> &want)
    {
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i)
            ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
                      std::bit_cast<std::uint32_t>(want[i]))
                << i << ": " << got[i] << " vs " << want[i];
    }

    SystemConfig cfg;
    AddressMap map;
    JitCompiler jit;
};

TEST_F(BitExecTest, VecAddThroughRealBitlines)
{
    const Coord n = 1024;
    TdfgGraph g(1, "vec_add");
    NodeId a = g.tensor(0, HyperRect::interval(0, n));
    NodeId b = g.tensor(1, HyperRect::interval(0, n));
    g.output(g.compute(BitOp::Add, {a, b}), 2);
    TiledLayout lay({n}, {256});
    auto prog = jit.lower(g, lay, map);

    BitAccurateFabric fab(lay);
    std::vector<float> va(n), vb(n), out(n);
    Rng rng(4);
    for (Coord i = 0; i < n; ++i) {
        va[i] = rng.nextFloat(-10, 10);
        vb[i] = rng.nextFloat(-10, 10);
    }
    fab.loadArray(va, slotOf(*prog, 0));
    fab.loadArray(vb, slotOf(*prog, 1));
    fab.execute(*prog);
    fab.storeArray(out, outputSlotOf(*prog, 2));
    for (Coord i = 0; i < n; ++i)
        EXPECT_FLOAT_EQ(out[i], va[i] + vb[i]) << i;
}

TEST_F(BitExecTest, ConstantMultiplyUsesImmediateBroadcast)
{
    const Coord n = 512;
    TdfgGraph g(1, "scale");
    NodeId a = g.tensor(0, HyperRect::interval(0, n));
    g.output(g.compute(BitOp::Mul, {a, g.constant(1.5)}), 1);
    TiledLayout lay({n}, {256});
    auto prog = jit.lower(g, lay, map);

    BitAccurateFabric fab(lay);
    std::vector<float> va(n), out(n);
    for (Coord i = 0; i < n; ++i)
        va[i] = static_cast<float>(i) - 100.0f;
    fab.loadArray(va, slotOf(*prog, 0));
    fab.execute(*prog);
    fab.storeArray(out, outputSlotOf(*prog, 1));
    for (Coord i = 0; i < n; ++i)
        EXPECT_FLOAT_EQ(out[i], va[i] * 1.5f) << i;
}

TEST_F(BitExecTest, StencilWithIntraAndInterTileShifts)
{
    // The decisive test: Alg. 2 shift commands (boundary decomposition,
    // masks, inter-tile crossings) must reproduce the interpreter's
    // result exactly.
    const Coord n = 1024;
    TdfgGraph g(1, "stencil1d");
    NodeId a0 = g.tensor(0, HyperRect::interval(0, n - 2));
    NodeId a1 = g.tensor(0, HyperRect::interval(1, n - 1));
    NodeId a2 = g.tensor(0, HyperRect::interval(2, n));
    NodeId s = g.compute(BitOp::Add,
                         {g.move(a0, 0, 1), a1, g.move(a2, 0, -1)});
    g.output(s, 1);
    TiledLayout lay({n}, {256});
    auto prog = jit.lower(g, lay, map);
    EXPECT_GT(prog->numInterShift, 0u);

    // Interpreter reference.
    ArrayStore store;
    ArrayId A = store.declare("A", {n});
    store.declare("B", {n});
    Rng rng(6);
    for (auto &v : store.array(A).data)
        v = rng.nextFloat(-4, 4);
    std::vector<float> va = store.array(A).data;
    TdfgInterpreter interp(store);
    interp.run(g);

    BitAccurateFabric fab(lay);
    fab.loadArray(va, slotOf(*prog, 0));
    fab.execute(*prog);
    std::vector<float> out(n);
    fab.storeArray(out, outputSlotOf(*prog, 1));
    // Interior matches the interpreter exactly (same fp32 ops).
    for (Coord i = 1; i < n - 1; ++i)
        EXPECT_FLOAT_EQ(out[i], store.array(1).data[i]) << i;
}

TEST_F(BitExecTest, TwoDimensionalShifts)
{
    const Coord n0 = 64, n1 = 48;
    TdfgGraph g(2, "stencil2d");
    HyperRect inner = HyperRect::box2(1, n0 - 1, 1, n1 - 1);
    NodeId acc = g.tensor(0, inner);
    for (unsigned dim = 0; dim < 2; ++dim)
        for (Coord d : {Coord(-1), Coord(1)}) {
            NodeId t = g.tensor(0, inner.shifted(dim, d));
            acc = g.compute(BitOp::Add, {acc, g.move(t, dim, -d)});
        }
    g.output(acc, 1);
    TiledLayout lay({n0, n1}, {16, 16});
    auto prog = jit.lower(g, lay, map);

    ArrayStore store;
    ArrayId A = store.declare("A", {n0, n1});
    store.declare("B", {n0, n1});
    Rng rng(8);
    for (auto &v : store.array(A).data)
        v = rng.nextFloat(-2, 2);
    std::vector<float> va = store.array(A).data;
    TdfgInterpreter(store).run(g);

    BitAccurateFabric fab(lay);
    fab.loadArray(va, slotOf(*prog, 0));
    fab.execute(*prog);
    std::vector<float> out(static_cast<std::size_t>(n0) * n1);
    fab.storeArray(out, outputSlotOf(*prog, 1));
    for (Coord j = 1; j < n1 - 1; ++j)
        for (Coord i = 1; i < n0 - 1; ++i)
            EXPECT_FLOAT_EQ(out[static_cast<std::size_t>(i + j * n0)],
                            store.array(1).at({i, j}))
                << i << "," << j;
}

TEST_F(BitExecTest, BroadcastRankOneUpdate)
{
    // One outer-product round (Fig 8): bc commands replicate A's column
    // and B's row across the C lattice.
    const Coord m = 32, n = 48;
    TdfgGraph g(2, "rank1");
    NodeId acol = g.tensor(0, HyperRect::box2(0, 1, 0, m));
    NodeId brow = g.tensor(1, HyperRect::box2(0, n, 0, 1));
    NodeId a_bc = g.broadcast(acol, 0, 0, n);
    NodeId b_bc = g.broadcast(brow, 1, 0, m);
    g.output(g.compute(BitOp::Mul, {a_bc, b_bc}), 2);
    TiledLayout lay({n, m}, {16, 16});
    auto prog = jit.lower(g, lay, map);

    ArrayStore store;
    store.declare("Acol", {1, m});
    store.declare("Brow", {n, 1});
    store.declare("C", {n, m});
    Rng rng(10);
    for (auto &v : store.array(0).data)
        v = rng.nextFloat(-1, 1);
    for (auto &v : store.array(1).data)
        v = rng.nextFloat(-1, 1);
    TdfgInterpreter(store).run(g);

    // The fabric's lattice holds all three arrays at their slots; load
    // the inputs at their lattice positions.
    BitAccurateFabric fab(lay);
    for (Coord i = 0; i < m; ++i)
        fab.tile(lay.tileOf({0, i}))
            .writeFloat(static_cast<unsigned>(lay.positionInTile({0, i})),
                        slotOf(*prog, 0), store.array(0).data[
                            static_cast<std::size_t>(i)]);
    for (Coord j = 0; j < n; ++j)
        fab.tile(lay.tileOf({j, 0}))
            .writeFloat(static_cast<unsigned>(lay.positionInTile({j, 0})),
                        slotOf(*prog, 1), store.array(1).data[
                            static_cast<std::size_t>(j)]);
    fab.execute(*prog);
    for (Coord i = 0; i < m; ++i)
        for (Coord j = 0; j < n; ++j)
            EXPECT_FLOAT_EQ(fab.element({j, i},
                                        outputSlotOf(*prog, 2)),
                            store.array(2).at({j, i}))
                << j << "," << i;
}

TEST_F(BitExecTest, InTileReductionPartials)
{
    // Reduce 512 values with tile 256: after the in-tile rounds plus one
    // inter-tile round, lane {0} holds the total.
    const Coord n = 512;
    TdfgGraph g(1, "sum");
    NodeId a = g.tensor(0, HyperRect::interval(0, n));
    NodeId r = g.reduce(a, BitOp::Add, 0);
    g.output(r, 1);
    TiledLayout lay({n}, {256});
    auto prog = jit.lower(g, lay, map);

    BitAccurateFabric fab(lay);
    std::vector<float> va(n);
    double expect = 0.0;
    Rng rng(12);
    for (auto &v : va) {
        v = rng.nextFloat(0, 1);
        expect += v;
    }
    fab.loadArray(va, slotOf(*prog, 0));
    fab.execute(*prog);
    float total = fab.element({0}, outputSlotOf(*prog, 1));
    EXPECT_NEAR(total, expect, 1e-2);
}

/** Stencil with inter-tile shifts across 8 tiles: gather/scatter
 * crossings plus multi-tile computes, bit-exact against the interpreter
 * over the whole output rect. */
TEST_F(BitExecTest, StencilAcrossTilesBitExact)
{
    const Coord n = 2048;
    TdfgGraph g(1, "stencil1d");
    NodeId a0 = g.tensor(0, HyperRect::interval(0, n - 2));
    NodeId a1 = g.tensor(0, HyperRect::interval(1, n - 1));
    NodeId a2 = g.tensor(0, HyperRect::interval(2, n));
    g.output(g.compute(BitOp::Add,
                       {g.move(a0, 0, 1), a1, g.move(a2, 0, -1)}),
             1);
    TiledLayout lay({n}, {256});
    auto prog = jit.lower(g, lay, map);
    ASSERT_GT(prog->numInterShift, 0u);

    ArrayStore store;
    ArrayId A = store.declare("A", {n});
    store.declare("B", {n});
    Rng rng(11);
    for (auto &v : store.array(A).data)
        v = rng.nextFloat(-8, 8);
    const std::vector<float> va = store.array(A).data;
    TdfgInterpreter(store).run(g);

    BitAccurateFabric fab(lay);
    fab.loadArray(va, slotOf(*prog, 0));
    fab.execute(*prog);
    std::vector<float> out(static_cast<std::size_t>(n));
    fab.storeArray(out, outputSlotOf(*prog, 1));
    const auto &want = store.array(1).data;
    expectBitExact({out.begin() + 1, out.end() - 1},
                   {want.begin() + 1, want.end() - 1});
}

/** 2-D elementwise chain with an immediate operand across 128 tiles. */
TEST_F(BitExecTest, BroadcastChainBitExact)
{
    const Coord n0 = 64, n1 = 512;
    TdfgGraph g(2, "bc_chain");
    NodeId a = g.tensor(0, HyperRect::array({n0, n1}));
    NodeId b = g.tensor(1, HyperRect::array({n0, n1}));
    NodeId m = g.compute(BitOp::Mul, {a, b});
    g.output(g.compute(BitOp::Add, {m, g.constant(0.25)}), 2);
    TiledLayout lay({n0, n1}, {16, 16}); // Tile volume = 256 bitlines.
    auto prog = jit.lower(g, lay, map);

    ArrayStore store;
    ArrayId A = store.declare("A", {n0, n1});
    ArrayId B = store.declare("B", {n0, n1});
    store.declare("C", {n0, n1});
    Rng rng(13);
    for (auto &v : store.array(A).data)
        v = rng.nextFloat(-4, 4);
    for (auto &v : store.array(B).data)
        v = rng.nextFloat(-4, 4);
    const std::vector<float> va = store.array(A).data;
    const std::vector<float> vb = store.array(B).data;
    TdfgInterpreter(store).run(g);

    BitAccurateFabric fab(lay);
    fab.loadArray(va, slotOf(*prog, 0));
    fab.loadArray(vb, slotOf(*prog, 1));
    fab.execute(*prog);
    std::vector<float> out(va.size());
    fab.storeArray(out, outputSlotOf(*prog, 2));
    expectBitExact(out, store.array(2).data);
}

/** Faults at rate 1.0: every Compute that touches a tile draws one SRAM
 * upset, parity detects it, the repair restores it, and the schedule
 * depends on the seed alone. */
TEST_F(BitExecTest, FaultsRepairedAndReproducible)
{
    const Coord n = 1024;
    TdfgGraph g(1, "mul_add");
    NodeId a = g.tensor(0, HyperRect::interval(0, n));
    NodeId b = g.tensor(1, HyperRect::interval(0, n));
    g.output(g.compute(BitOp::Add, {g.compute(BitOp::Mul, {a, b}), a}), 2);
    TiledLayout lay({n}, {256});
    auto prog = jit.lower(g, lay, map);
    std::uint64_t computes = 0;
    for (const InMemCommand &cmd : prog->commands)
        if (cmd.kind == CmdKind::Compute &&
            !lay.tilesIntersecting(cmd.tensor).empty())
            ++computes;
    ASSERT_GE(computes, 2u);

    ArrayStore store;
    ArrayId A = store.declare("A", {n});
    ArrayId B = store.declare("B", {n});
    store.declare("C", {n});
    Rng rng(17);
    for (auto &v : store.array(A).data)
        v = rng.nextFloat(-10, 10);
    for (auto &v : store.array(B).data)
        v = rng.nextFloat(-10, 10);
    const std::vector<float> va = store.array(A).data;
    const std::vector<float> vb = store.array(B).data;
    TdfgInterpreter(store).run(g);

    auto run = [&](FaultStats &fs) {
        FaultConfig fc;
        fc.enabled = true;
        fc.seed = 0x5eed;
        fc.sramBitFlipRate = 1.0;
        FaultInjector inj(fc);
        BitAccurateFabric fab(lay);
        fab.attachFaultInjector(&inj);
        fab.loadArray(va, slotOf(*prog, 0));
        fab.loadArray(vb, slotOf(*prog, 1));
        fab.execute(*prog);
        std::vector<float> out(static_cast<std::size_t>(n));
        fab.storeArray(out, outputSlotOf(*prog, 2));
        fs = inj.snapshot();
        return out;
    };

    FaultStats first, second;
    expectBitExact(run(first), store.array(2).data);
    EXPECT_EQ(first.sramBitFlips, computes);
    EXPECT_EQ(first.detected, computes);
    EXPECT_EQ(first.retries, computes);

    expectBitExact(run(second), store.array(2).data);
    EXPECT_EQ(second.sramBitFlips, first.sramBitFlips);
    EXPECT_EQ(second.nocPacketFaults, first.nocPacketFaults);
    EXPECT_EQ(second.cmdFaults, first.cmdFaults);
    EXPECT_EQ(second.detected, first.detected);
    EXPECT_EQ(second.retries, first.retries);
    EXPECT_EQ(second.exhausted, first.exhausted);
    EXPECT_EQ(second.retryCycles, first.retryCycles);
}

} // namespace
} // namespace infs
