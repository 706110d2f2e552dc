/**
 * @file
 * Fault injection and graceful degradation: the injector's deterministic
 * per-domain schedules, recovery accounting, full-system reproducibility
 * under a fixed seed, bit-identity when disabled, and the
 * In-L3 -> Near-L3 -> core degradation chain for regions that cannot run
 * in memory (unlowerable tDFGs, hard command faults, bad forced tiles).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/backend.hh"
#include "core/executor.hh"
#include "sim/fault.hh"
#include "uarch/bit_exec.hh"
#include "workloads/workloads.hh"

namespace infs {
namespace {

// ----------------------------------------------------------------------
// Injector unit tests.
// ----------------------------------------------------------------------

TEST(FaultInjector, SameSeedSameSchedule)
{
    FaultConfig fc;
    fc.enabled = true;
    fc.sramBitFlipRate = 0.3;
    fc.nocFaultRate = 0.2;
    fc.cmdTransientRate = 0.4;
    fc.persistentFraction = 0.5;
    FaultInjector a(fc), b(fc);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(a.sampleSramFlip(), b.sampleSramFlip());
        CmdFault fa = a.sampleCmdFault();
        CmdFault fb = b.sampleCmdFault();
        EXPECT_EQ(fa.faulted, fb.faulted);
        EXPECT_EQ(fa.persistent, fb.persistent);
        EXPECT_EQ(a.sampleNocPacketFault(), b.sampleNocPacketFault());
    }
    FaultStats sa = a.snapshot();
    FaultStats sb = b.snapshot();
    EXPECT_GT(sa.totalInjected(), 0u);
    EXPECT_EQ(sa.sramBitFlips, sb.sramBitFlips);
    EXPECT_EQ(sa.nocPacketFaults, sb.nocPacketFaults);
    EXPECT_EQ(sa.cmdFaults, sb.cmdFaults);
}

TEST(FaultInjector, DomainStreamsAreIndependent)
{
    FaultConfig fc;
    fc.enabled = true;
    fc.sramBitFlipRate = 0.3;
    fc.nocFaultRate = 0.3;
    FaultInjector a(fc), b(fc);
    // b consults the NoC stream heavily; its SRAM schedule must not move.
    for (int i = 0; i < 500; ++i)
        (void)b.sampleNocPacketFault();
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(a.sampleSramFlip(), b.sampleSramFlip()) << i;
}

TEST(FaultInjector, DisabledNeverFires)
{
    FaultConfig fc;
    fc.enabled = false;
    fc.sramBitFlipRate = 1.0;
    fc.nocFaultRate = 1.0;
    fc.cmdTransientRate = 1.0;
    FaultInjector f(fc);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(f.sampleSramFlip());
        EXPECT_FALSE(f.sampleNocPacketFault());
        EXPECT_FALSE(f.sampleCmdFault().faulted);
    }
    EXPECT_EQ(f.sampleNocBulkFaults(1000), 0u);
    EXPECT_EQ(f.snapshot().totalInjected(), 0u);
}

TEST(FaultInjector, ResetRestartsTheSchedule)
{
    FaultConfig fc;
    fc.enabled = true;
    fc.sramBitFlipRate = 0.37;
    FaultInjector f(fc);
    std::vector<bool> first;
    for (int i = 0; i < 300; ++i)
        first.push_back(f.sampleSramFlip());
    f.reset();
    EXPECT_EQ(f.snapshot().sramBitFlips, 0u);
    for (int i = 0; i < 300; ++i)
        EXPECT_EQ(f.sampleSramFlip(), first[static_cast<std::size_t>(i)])
            << i;
}

TEST(FaultInjector, BulkFaultsTrackExpectedValue)
{
    FaultConfig fc;
    fc.enabled = true;
    fc.nocFaultRate = 0.25;
    FaultInjector f(fc);
    // 100000 * 0.25 is integral: no stochastic rounding draw needed.
    EXPECT_EQ(f.sampleNocBulkFaults(100000), 25000u);
    EXPECT_EQ(f.snapshot().nocPacketFaults, 25000u);
    // Tiny flows round stochastically but never exceed the flow size.
    EXPECT_LE(f.sampleNocBulkFaults(2), 2u);
}

TEST(FaultInjector, RecoveryAccountingSumsPenalties)
{
    FaultConfig fc;
    fc.enabled = true;
    fc.detectCycles = 4;
    fc.retryPenaltyCycles = 8;
    FaultInjector f(fc);
    EXPECT_EQ(f.recordDetection(), 4u);
    EXPECT_EQ(f.recordRetry(100), 108u);
    f.recordExhausted();
    FaultStats s = f.snapshot();
    EXPECT_EQ(s.detected, 1u);
    EXPECT_EQ(s.retries, 1u);
    EXPECT_EQ(s.exhausted, 1u);
    EXPECT_EQ(s.retryCycles, 112u);
    f.reset();
    s = f.snapshot();
    EXPECT_EQ(s.detected + s.retries + s.exhausted + s.retryCycles, 0u);
}

TEST(FaultInjector, SnapshotCountsAnInjectedFlip)
{
    FaultConfig fc;
    fc.enabled = true;
    fc.sramBitFlipRate = 1.0;
    FaultInjector f(fc);
    EXPECT_TRUE(f.sampleSramFlip());
    FaultStats s = f.snapshot();
    EXPECT_EQ(s.sramBitFlips, 1u);
    EXPECT_EQ(s.totalInjected(), 1u);
    EXPECT_EQ(s.detected, 0u);
}

// ----------------------------------------------------------------------
// NoC retransmission.
// ----------------------------------------------------------------------

TEST(NocFault, RetransmissionGrowsLatencyAndTraffic)
{
    NocConfig ncfg;
    MeshNoc clean(ncfg);
    MeshNoc faulty(ncfg);
    FaultConfig fc;
    fc.enabled = true;
    fc.nocFaultRate = 1.0;
    FaultInjector inj(fc);
    faulty.attachFaultInjector(&inj);

    Tick t_clean = clean.send(0, 7, 64, TrafficClass::Data);
    Tick t_faulty = faulty.send(0, 7, 64, TrafficClass::Data);
    EXPECT_GT(t_faulty, t_clean);
    // The retransmitted packet crosses every link again.
    EXPECT_DOUBLE_EQ(faulty.hopBytes(TrafficClass::Data),
                     2.0 * clean.hopBytes(TrafficClass::Data));
    FaultStats fs = inj.snapshot();
    EXPECT_EQ(fs.nocPacketFaults, 1u);
    EXPECT_EQ(fs.detected, 1u);
    EXPECT_EQ(fs.retries, 1u);
}

// ----------------------------------------------------------------------
// Bit-accurate fabric: inject, detect via row parity, repair — the
// co-simulation against the tDFG interpreter stays exact.
// ----------------------------------------------------------------------

unsigned
slotOf(const InMemProgram &prog, ArrayId a)
{
    for (auto &[id, wl] : prog.arraySlots)
        if (id == a)
            return wl;
    infs_panic("array %d has no slot", a);
}

unsigned
outputSlotOf(const InMemProgram &prog, ArrayId a)
{
    for (auto &[id, wl] : prog.outputSlots)
        if (id == a)
            return wl;
    infs_panic("array %d has no output slot", a);
}

TEST(FabricFault, InjectedFlipsAreDetectedAndRepaired)
{
    SystemConfig cfg = testSystemConfig();
    AddressMap map(cfg.l3);
    JitCompiler jit(cfg);
    const Coord n = 1024;
    TdfgGraph g(1, "mul_add");
    NodeId a = g.tensor(0, HyperRect::interval(0, n));
    NodeId b = g.tensor(1, HyperRect::interval(0, n));
    g.output(g.compute(BitOp::Add, {g.compute(BitOp::Mul, {a, b}), a}), 2);
    TiledLayout lay({n}, {256});
    auto prog = jit.lower(g, lay, map);

    FaultConfig fc;
    fc.enabled = true;
    fc.sramBitFlipRate = 1.0; // Every compute command suffers a flip.
    FaultInjector inj(fc);
    BitAccurateFabric fab(lay);
    fab.attachFaultInjector(&inj);

    std::vector<float> va(n), vb(n), out(n);
    Rng rng(7);
    for (Coord i = 0; i < n; ++i) {
        va[static_cast<std::size_t>(i)] = rng.nextFloat(-10, 10);
        vb[static_cast<std::size_t>(i)] = rng.nextFloat(-10, 10);
    }
    fab.loadArray(va, slotOf(*prog, 0));
    fab.loadArray(vb, slotOf(*prog, 1));
    fab.execute(*prog);
    fab.storeArray(out, outputSlotOf(*prog, 2));
    for (Coord i = 0; i < n; ++i) {
        auto s = static_cast<std::size_t>(i);
        EXPECT_FLOAT_EQ(out[s], va[s] * vb[s] + va[s]) << i;
    }
    FaultStats fs = inj.snapshot();
    EXPECT_GE(fs.sramBitFlips, 2u); // Two compute commands in the graph.
    EXPECT_EQ(fs.detected, fs.sramBitFlips);
    EXPECT_EQ(fs.retries, fs.sramBitFlips);
}

// ----------------------------------------------------------------------
// Full-system runs.
// ----------------------------------------------------------------------

TEST(FaultSystem, SameSeedReproducesCountersAndCycles)
{
    SystemConfig cfg = testSystemConfig();
    cfg.fault.enabled = true;
    cfg.fault.seed = 0xabcdef;
    cfg.fault.sramBitFlipRate = 0.5;
    cfg.fault.cmdTransientRate = 0.25;
    cfg.fault.nocFaultRate = 0.001;
    InfinitySystem sys(cfg);
    // Stencil lowers to many shift + compute commands, so the schedule
    // gets plenty of draws at these rates.
    Workload w = makeStencil2d(256, 256, 4);
    w.assumeTransposed = true; // Commit to in-memory so faults sample.
    Executor exec(sys, Paradigm::InfS);
    // Executor::run resets system stats, which also restarts the fault
    // schedule: two runs on one system must be identical.
    ExecStats a = exec.run(w);
    ExecStats b = exec.run(w);
    EXPECT_GT(a.faultsInjected, 0u);
    EXPECT_EQ(a.faultsInjected, b.faultsInjected);
    EXPECT_EQ(a.faultsDetected, b.faultsDetected);
    EXPECT_EQ(a.faultRetries, b.faultRetries);
    EXPECT_EQ(a.retryCycles, b.retryCycles);
    EXPECT_EQ(a.regionsDegraded, b.regionsDegraded);
    EXPECT_EQ(a.cycles, b.cycles);
}

TEST(FaultSystem, ZeroRatesAreBitIdenticalToDisabled)
{
    Workload w = makeVecAdd(1 << 18);
    w.assumeTransposed = true;
    SystemConfig cfg = testSystemConfig();
    InfinitySystem clean(cfg);
    ExecStats a = Executor(clean, Paradigm::InfS).run(w);
    cfg.fault.enabled = true; // All rates stay at their 0.0 default.
    InfinitySystem armed(cfg);
    ExecStats b = Executor(armed, Paradigm::InfS).run(w);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.computeCycles, b.computeCycles);
    EXPECT_EQ(a.moveCycles, b.moveCycles);
    EXPECT_DOUBLE_EQ(a.energyJoules, b.energyJoules);
    EXPECT_EQ(b.faultsInjected, 0u);
    EXPECT_EQ(b.retryCycles, 0u);
}

TEST(FaultSystem, TransientFaultsAddLatencyNotErrors)
{
    Workload w = makeVecAdd(1 << 18);
    w.assumeTransposed = true; // Commit to in-memory so faults sample.
    SystemConfig cfg = testSystemConfig();
    InfinitySystem clean(cfg);
    ExecStats base = Executor(clean, Paradigm::InfS).run(w);

    cfg.fault.enabled = true;
    cfg.fault.sramBitFlipRate = 1.0;
    cfg.fault.cmdTransientRate = 1.0;
    cfg.fault.persistentFraction = 0.0; // Transients clear on retry.
    InfinitySystem faulty(cfg);
    Executor exec(faulty, Paradigm::InfS);
    ArrayStore got;
    ExecStats st = exec.run(w, &got);

    EXPECT_GT(st.faultsInjected, 0u);
    EXPECT_EQ(st.faultsDetected, st.faultsInjected);
    EXPECT_GT(st.faultRetries, 0u);
    EXPECT_GT(st.retryCycles, 0u);
    EXPECT_EQ(st.regionsDegraded, 0u); // Everything recovered in place.
    EXPECT_GT(st.cycles, base.cycles);

    // Function is untouched by recovered faults.
    ArrayStore want;
    w.setup(want);
    w.reference(want);
    const auto &gc = got.array(2).data;
    const auto &wc = want.array(2).data;
    ASSERT_EQ(gc.size(), wc.size());
    for (std::size_t i = 0; i < gc.size(); ++i)
        ASSERT_FLOAT_EQ(gc[i], wc[i]) << i;
}

// ----------------------------------------------------------------------
// Graceful degradation.
// ----------------------------------------------------------------------

/**
 * A 1-D elementwise sum of @p arrays input arrays. Lowering needs one
 * wordline slot per live array, so with more inputs than slots the JIT
 * reports OutOfSlots (§6: no spilling) and the executor must degrade the
 * region to the near-memory stream form.
 */
Workload
makeWideSum(Coord n, unsigned arrays)
{
    Workload w;
    w.name = "wide_sum";
    w.primaryShape = {n};
    w.footprintBytes = static_cast<Bytes>((arrays + 1) * n * 4);
    w.dirtyBytes = static_cast<Bytes>(n * 4);
    w.setup = [n, arrays](ArrayStore &s) {
        for (unsigned a = 0; a < arrays; ++a) {
            std::string name = "A";
            name += std::to_string(a);
            ArrayId id = s.declare(name, {n});
            for (Coord i = 0; i < n; ++i)
                s.array(id).data[static_cast<std::size_t>(i)] =
                    static_cast<float>(a + 1) +
                    0.25f * static_cast<float>(i % 7);
        }
        s.declare("Out", {n});
    };
    w.reference = [n, arrays](ArrayStore &s) {
        for (Coord i = 0; i < n; ++i) {
            float acc = 0.0f;
            for (unsigned a = 0; a < arrays; ++a)
                acc += s.array(static_cast<ArrayId>(a))
                           .data[static_cast<std::size_t>(i)];
            s.array(static_cast<ArrayId>(arrays))
                .data[static_cast<std::size_t>(i)] = acc;
        }
    };
    Phase p;
    p.name = "wide_sum";
    p.buildTdfg = [n, arrays](std::uint64_t) {
        TdfgGraph g(1, "wide_sum");
        NodeId acc = g.tensor(0, HyperRect::interval(0, n), "A0");
        for (unsigned a = 1; a < arrays; ++a)
            acc = g.compute(
                BitOp::Add,
                {acc, g.tensor(static_cast<ArrayId>(a),
                               HyperRect::interval(0, n))});
        g.output(acc, static_cast<ArrayId>(arrays));
        return g;
    };
    for (unsigned a = 0; a < arrays; ++a) {
        NearStream s;
        s.pattern =
            AccessPattern::linear(static_cast<ArrayId>(a), 0, n);
        s.forwardTo = static_cast<ArrayId>(arrays);
        p.streams.push_back(s);
    }
    NearStream out;
    out.pattern =
        AccessPattern::linear(static_cast<ArrayId>(arrays), 0, n);
    out.isStore = true;
    out.flopsPerElem = arrays - 1;
    p.streams.push_back(out);
    p.coreFlopsPerIter = std::uint64_t(arrays - 1) * std::uint64_t(n);
    p.coreBytesPerIter = static_cast<Bytes>((arrays + 1) * n * 4);
    w.phases.push_back(std::move(p));
    return w;
}

TEST(Degradation, UnlowerableRegionFallsBackToNearMemory)
{
    // testSystemConfig has 256 wordlines -> 7 fp32 slots; 9 live input
    // arrays exceed them, so In-L3 cannot lower the region. It must
    // still complete — correctly — via the Near-L3 stream form.
    SystemConfig cfg = testSystemConfig();
    InfinitySystem sys(cfg);
    Workload w = makeWideSum(4096, 9);
    w.assumeTransposed = true; // Commit to in-memory (Fig 2 mode).
    Executor exec(sys, Paradigm::InL3);
    ArrayStore got;
    ExecStats st = exec.run(w, &got);

    EXPECT_EQ(st.regionsDegraded, 1u);
    EXPECT_GT(st.nearMemCycles, 0u);
    EXPECT_EQ(st.computeCycles, 0u); // Nothing ran in memory.

    ArrayStore want;
    w.setup(want);
    w.reference(want);
    const auto &go = got.array(9).data;
    const auto &wo = want.array(9).data;
    ASSERT_EQ(go.size(), wo.size());
    for (std::size_t i = 0; i < go.size(); ++i)
        ASSERT_NEAR(go[i], wo[i], 1e-3) << i;
}

TEST(Degradation, LowerableRegionDoesNotDegrade)
{
    // Control for the previous test: 4 live arrays fit the 7 slots.
    InfinitySystem sys(testSystemConfig());
    Workload w = makeWideSum(4096, 4);
    w.assumeTransposed = true;
    Executor exec(sys, Paradigm::InL3);
    ExecStats st = exec.run(w);
    EXPECT_EQ(st.regionsDegraded, 0u);
    EXPECT_GT(st.computeCycles, 0u);
}

TEST(Degradation, PersistentCommandFaultExhaustsRetriesAndDegrades)
{
    SystemConfig cfg = testSystemConfig();
    cfg.fault.enabled = true;
    cfg.fault.cmdTransientRate = 1.0;
    cfg.fault.persistentFraction = 1.0; // Hard fault: retries never help.
    cfg.fault.retryBudget = 2;
    InfinitySystem sys(cfg);
    Workload w = makeVecAdd(4096);
    w.assumeTransposed = true;
    Executor exec(sys, Paradigm::InfS);
    ArrayStore got;
    ExecStats st = exec.run(w, &got);

    EXPECT_GE(st.regionsDegraded, 1u);
    EXPECT_GT(st.nearMemCycles, 0u); // Region reran near memory.
    EXPECT_GT(st.faultsInjected, 0u);
    EXPECT_GT(st.faultRetries, 0u);
    EXPECT_GE(sys.faultInjector().snapshot().exhausted, 1u);

    ArrayStore want;
    w.setup(want);
    w.reference(want);
    const auto &gc = got.array(2).data;
    for (std::size_t i = 0; i < gc.size(); ++i)
        ASSERT_FLOAT_EQ(gc[i], want.array(2).data[i]) << i;
}

/** vec_add with its phase computing select(A, B, A) instead. */
Workload
makeSelectWorkload()
{
    Workload w = makeVecAdd(4096);
    w.assumeTransposed = true;
    w.phases[0].buildTdfg = [](std::uint64_t) {
        TdfgGraph g(1, "select");
        const HyperRect r = HyperRect::interval(0, 4096);
        NodeId p = g.tensor(0, r, "A");
        NodeId a = g.tensor(1, r, "B");
        NodeId b = g.tensor(0, r, "A");
        g.output(g.compute(BitOp::Select, {p, a, b}), 2);
        return g;
    };
    return w;
}

TEST(Degradation, SelectRegionDegradesInsteadOfAborting)
{
    // The JIT has no command form for a select: the region must degrade
    // to its stream form instead of running binary select commands.
    InfinitySystem sys(testSystemConfig());
    Executor exec(sys, Paradigm::InfS);
    ExecStats st = exec.run(makeSelectWorkload());
    EXPECT_EQ(st.regionsDegraded, 1u);
    EXPECT_GT(st.nearMemCycles, 0u);
    EXPECT_EQ(st.computeCycles, 0u);
}

TEST(Degradation, SelectWorkloadPlansNoBackendJob)
{
    // The backends run only lowered programs, so a select region gives
    // them no job rather than one the bit fabric cannot execute.
    EXPECT_FALSE(planPrimaryJob(makeSelectWorkload(), testSystemConfig(), 0));
}

TEST(Degradation, InvalidForcedTileDegradesInsteadOfAborting)
{
    // A zero-sized tile violates tile > 0; a 2-D tile on the 1-D lattice
    // has the wrong rank. Both are counted, neither aborts.
    for (std::vector<Coord> tile : {std::vector<Coord>{0},
                                    std::vector<Coord>{16, 16}}) {
        SCOPED_TRACE(tile.size());
        InfinitySystem sys(testSystemConfig());
        Workload w = makeVecAdd(4096);
        w.forceTile = tile;
        Executor exec(sys, Paradigm::InfS);
        ExecStats st = exec.run(w);
        EXPECT_EQ(st.regionsDegraded, 1u);
        EXPECT_GT(st.nearMemCycles, 0u); // Whole workload fell to Near-L3.
        EXPECT_EQ(st.computeCycles, 0u);
    }
}

} // namespace
} // namespace infs
