/**
 * @file
 * Adversarial corpus for the command hazard analyzer: mutated command
 * streams must trigger their specific diagnostic codes, and the legal
 * patterns the JIT emits (disjoint-mask shift pairs, fold chains,
 * restated reduce rounds) must stay clean.
 */

#include <gtest/gtest.h>

#include "analysis/verify_cmds.hh"

namespace infs {
namespace {

/**
 * 1-D lattice of 256 cells in 16-cell tiles on the 16-bank test system:
 * tile t lives in bank t, fp32 gives slots at wordlines 0,32,...,192.
 */
class VerifyCmds : public ::testing::Test
{
  protected:
    VerifyCmds()
        : cfg(testSystemConfig()), map(cfg.l3, cfg.noc.memCtrls),
          layout(*TiledLayout::make({256}, {16}))
    {
    }

    InMemCommand
    shift(CmdKind kind, unsigned group, Coord lo, Coord hi, Coord inter,
          Coord intra, unsigned wl_a, unsigned wl_dst)
    {
        InMemCommand c;
        c.kind = kind;
        c.group = group;
        c.tensor = HyperRect::interval(lo, hi);
        c.dim = 0;
        c.maskLo = 0;
        c.maskHi = 16;
        c.interTileDist = inter;
        c.intraTileDist = intra;
        c.wlA = wl_a;
        c.wlDst = wl_dst;
        const HyperRect dst = c.tensor.shifted(0, inter * 16 + intra);
        const HyperRect array = HyperRect::array(layout.shape());
        c.banks = layout.banksFor(c.tensor.intersect(array), map);
        c.banks |= layout.banksFor(dst.intersect(array), map);
        return c;
    }

    InMemCommand
    computeImm(unsigned group, Coord lo, Coord hi, unsigned wl_a,
               unsigned wl_dst)
    {
        InMemCommand c;
        c.kind = CmdKind::Compute;
        c.group = group;
        c.tensor = HyperRect::interval(lo, hi);
        c.useImm = true;
        c.wlA = wl_a;
        c.wlDst = wl_dst;
        c.banks = layout.banksFor(c.tensor, map);
        return c;
    }

    InMemCommand
    sync()
    {
        InMemCommand c;
        c.kind = CmdKind::Sync;
        return c;
    }

    VerifyReport
    verify(std::vector<InMemCommand> cmds)
    {
        InMemProgram prog;
        prog.commands = std::move(cmds);
        return verifyCommands(prog, layout, map, cfg);
    }

    SystemConfig cfg;
    AddressMap map;
    TiledLayout layout;
};

TEST_F(VerifyCmds, InterShiftWithSyncIsClean)
{
    VerifyReport rep = verify({
        shift(CmdKind::InterShift, 1, 0, 16, 1, 0, 0, 32),
        sync(),
        computeImm(2, 16, 32, 32, 64),
    });
    EXPECT_TRUE(rep.clean()) << rep.str();
}

TEST_F(VerifyCmds, DroppedSyncBeforeComputeIsMissingSync)
{
    VerifyReport rep = verify({
        shift(CmdKind::InterShift, 1, 0, 16, 1, 0, 0, 32),
        computeImm(2, 16, 32, 32, 64),
    });
    EXPECT_TRUE(rep.has(VerifyCode::MissingSync)) << rep.str();
}

TEST_F(VerifyCmds, DroppedSyncBeforeShiftIsRawHazard)
{
    VerifyReport rep = verify({
        shift(CmdKind::InterShift, 1, 0, 16, 1, 0, 0, 32),
        shift(CmdKind::IntraShift, 2, 16, 32, 0, 2, 32, 64),
    });
    EXPECT_TRUE(rep.has(VerifyCode::RawHazard)) << rep.str();
}

TEST_F(VerifyCmds, OverwriteBeforeSyncIsWawHazard)
{
    VerifyReport rep = verify({
        shift(CmdKind::InterShift, 1, 0, 16, 1, 0, 0, 32),
        computeImm(3, 16, 32, 64, 32), // Reads an untouched slot, but
                                       // lands in the in-flight one.
    });
    EXPECT_TRUE(rep.has(VerifyCode::WawHazard)) << rep.str();
}

TEST_F(VerifyCmds, OverlappingIntraGroupShiftsAreReported)
{
    // Same group, same tile set, different distances: Alg. 1 tiles must
    // be disjoint, so these would double-move the overlap.
    VerifyReport rep = verify({
        shift(CmdKind::IntraShift, 7, 0, 16, 0, 1, 0, 32),
        shift(CmdKind::IntraShift, 7, 0, 16, 0, 2, 0, 32),
    });
    EXPECT_TRUE(rep.has(VerifyCode::IntraGroupOverlap)) << rep.str();
}

TEST_F(VerifyCmds, DisjointMaskShiftPairIsClean)
{
    // Alg. 2 emits complementary masks over the same rect: disjoint
    // element sets, no overlap diagnostic.
    InMemCommand a = shift(CmdKind::IntraShift, 7, 0, 16, 0, 2, 0, 32);
    a.maskLo = 0;
    a.maskHi = 8;
    InMemCommand b = shift(CmdKind::IntraShift, 7, 0, 16, 0, 2, 0, 32);
    b.maskLo = 8;
    b.maskHi = 16;
    VerifyReport rep = verify({a, b});
    EXPECT_TRUE(rep.clean()) << rep.str();
}

TEST_F(VerifyCmds, RestatedEffectOverSubtensorsIsClean)
{
    // The reduce lowering restates one inter-tile round per subtensor:
    // identical effect parameters, different windows — legal.
    VerifyReport rep = verify({
        shift(CmdKind::IntraShift, 9, 0, 16, 0, 4, 0, 32),
        shift(CmdKind::IntraShift, 9, 8, 24, 0, 4, 0, 32),
    });
    EXPECT_TRUE(rep.clean()) << rep.str();
}

TEST_F(VerifyCmds, RestatementWithAnotherDtypeIsAnOverlap)
{
    // The restatement exemption covers every effect field but the window:
    // a same-group overlap that moves another element type is a real
    // Alg. 1 overlap, as the command optimizer also treats it.
    InMemCommand a = shift(CmdKind::IntraShift, 9, 0, 16, 0, 4, 0, 32);
    InMemCommand b = shift(CmdKind::IntraShift, 9, 8, 24, 0, 4, 0, 32);
    b.dtype = DType::Int8;
    VerifyReport rep = verify({a, b});
    EXPECT_TRUE(rep.has(VerifyCode::IntraGroupOverlap)) << rep.str();
}

TEST_F(VerifyCmds, SlotBeyondCapacityIsReported)
{
    // fp32 on 256 wordlines: 7 usable slots, top slot reserved, so
    // wordline 224 is out of range.
    VerifyReport rep = verify({computeImm(1, 0, 16, 0, 224)});
    EXPECT_TRUE(rep.has(VerifyCode::CmdSlotOutOfRange)) << rep.str();
}

TEST_F(VerifyCmds, MisalignedSlotIsReported)
{
    VerifyReport rep = verify({computeImm(1, 0, 16, 5, 64)});
    EXPECT_TRUE(rep.has(VerifyCode::CmdSlotMisaligned)) << rep.str();
}

TEST_F(VerifyCmds, MaskBeyondTileIsReported)
{
    InMemCommand c = shift(CmdKind::IntraShift, 1, 0, 16, 0, 2, 0, 32);
    c.maskHi = 20; // Tile holds positions [0, 16).
    VerifyReport rep = verify({c});
    EXPECT_TRUE(rep.has(VerifyCode::CmdBadMask)) << rep.str();
}

TEST_F(VerifyCmds, MissingBanksAreReported)
{
    InMemCommand c = computeImm(1, 0, 16, 0, 64);
    c.banks = BankSet{};
    VerifyReport rep = verify({c});
    EXPECT_TRUE(rep.has(VerifyCode::CmdBankInvalid)) << rep.str();
}

TEST_F(VerifyCmds, BankBeyondL3IsReported)
{
    // The 16-bank test system has banks 0..15; bank 16 (and the higher
    // bank 40) do not exist. The lowest missing bank is named.
    InMemCommand c = computeImm(1, 0, 16, 0, 64);
    c.banks.insert(40);
    c.banks.insert(cfg.l3.numBanks);
    VerifyReport rep = verify({c});
    ASSERT_EQ(rep.count(VerifyCode::CmdBankInvalid), 1u) << rep.str();
    EXPECT_NE(rep.diags().front().message.find("bank 16 beyond the 16-bank"),
              std::string::npos)
        << rep.str();
}

TEST_F(VerifyCmds, DuplicateLotHomeIsReported)
{
    InMemProgram prog;
    prog.arraySlots = {{0, 0}, {0, 32}};
    VerifyReport rep = verifyCommands(prog, layout, map, cfg);
    EXPECT_TRUE(rep.has(VerifyCode::LotInconsistent)) << rep.str();
}

TEST_F(VerifyCmds, HomesBeyondLotCapacityAreReported)
{
    // Three arrays with distinct, aligned home slots: clean while the
    // LOT holds three entries, one capacity finding once it holds two.
    InMemProgram prog;
    prog.arraySlots = {{0, 0}, {1, 32}, {2, 64}};
    cfg.tensor.lotEntries = 3;
    VerifyReport fits = verifyCommands(prog, layout, map, cfg);
    EXPECT_TRUE(fits.clean()) << fits.str();

    cfg.tensor.lotEntries = 2;
    VerifyReport rep = verifyCommands(prog, layout, map, cfg);
    ASSERT_EQ(rep.count(VerifyCode::LotInconsistent), 1u) << rep.str();
    EXPECT_EQ(rep.diags().front().where, "lot") << rep.str();
    EXPECT_NE(rep.diags().front().message.find("2-entry LOT"),
              std::string::npos)
        << rep.str();
}

TEST_F(VerifyCmds, OutputWithoutHomeIsReported)
{
    InMemProgram prog;
    prog.outputSlots = {{3, 64}};
    VerifyReport rep = verifyCommands(prog, layout, map, cfg);
    EXPECT_TRUE(rep.has(VerifyCode::LotInconsistent)) << rep.str();
}

TEST_F(VerifyCmds, LocalWriterMissingDependenceBanksIsRawHazard)
{
    // Tiles map to banks in 64-tile blocks on the test system, so a
    // cross-bank dependence needs a >64-tile layout: cells [1024,1040)
    // live in bank 1. The writer claims them in its rect but only
    // issues on bank 0, so the reader's cells are never produced — and
    // no Sync can fix a local write that never happens.
    TiledLayout wide = *TiledLayout::make({2048}, {16});
    InMemCommand w = computeImm(1, 0, 1040, 0, 32);
    w.banks = wide.banksFor(HyperRect::interval(0, 16), map);
    InMemCommand r = computeImm(2, 1024, 1040, 32, 64);
    r.banks = wide.banksFor(r.tensor, map);
    ASSERT_NE(w.banks, r.banks); // The layout really crosses banks.
    InMemProgram prog;
    prog.commands = {w, r};
    VerifyReport rep = verifyCommands(prog, wide, map, cfg);
    EXPECT_TRUE(rep.has(VerifyCode::RawHazard)) << rep.str();
}

TEST_F(VerifyCmds, LocalFoldChainIsClean)
{
    VerifyReport rep = verify({
        computeImm(1, 0, 16, 0, 32),
        computeImm(2, 0, 16, 32, 64),
        computeImm(3, 0, 16, 64, 64), // Fold into the same slot.
    });
    EXPECT_TRUE(rep.clean()) << rep.str();
}

} // namespace
} // namespace infs
