/**
 * @file
 * Property and unit tests for the command-stream optimizer (DESIGN.md
 * §13, src/jit/cmdopt.hh). The contract pinned here:
 *
 *  - the optimized stream still passes the full hazard analyzer;
 *  - functional checksums are byte-identical raw vs optimized, and the
 *    fabric agrees with the functional backend on the optimized stream;
 *  - no per-kind command count ever increases;
 *  - replayTiming sim_cycles never increase (rewrites only remove work
 *    or merge same-group commands that already overlapped).
 *
 * The property sweep mirrors test_backend_diff's random generator so a
 * failing seed replays exactly; the unit cases pin the individual
 * rewrite rules (idempotent dedup, in-place exclusion, exact-partition
 * coalescing, async-pending Sync retention).
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "analysis/verify_cmds.hh"
#include "core/backend.hh"
#include "jit/cmdopt.hh"
#include "jit/jit.hh"
#include "mem/address_map.hh"
#include "sim/rng.hh"
#include "workloads/registry.hh"

namespace infs {
namespace {

constexpr std::int64_t kVolumeCap = 1 << 18;

std::uint64_t
runChecksum(ExecBackendKind kind, const BackendJob &job)
{
    SystemConfig cfg = testSystemConfig();
    return makeBackend(kind, cfg)->runJob(job).checksum;
}

/** Optimized twin of @p job (job.prog untouched). */
BackendJob
optimizedJob(const BackendJob &job, const SystemConfig &cfg,
             const AddressMap &map, CmdStats *stats = nullptr)
{
    auto opt = std::make_shared<InMemProgram>(*job.prog);
    CmdStats st = optimizeCommands(*opt, job.layout, map, cfg);
    if (stats)
        *stats = st;
    BackendJob out;
    out.layout = job.layout;
    out.prog = std::move(opt);
    out.volume = job.volume;
    return out;
}

/** The four-part contract, for any raw job. */
void
expectOptimizerSound(const BackendJob &raw, const std::string &what)
{
    SystemConfig cfg = testSystemConfig();
    AddressMap map(cfg.l3, cfg.noc.memCtrls);
    BackendJob opt = optimizedJob(raw, cfg, map);

    // Hazard-freedom is preserved: the optimizer may never introduce a
    // diagnostic. Random graphs can lower with benign pre-existing ones
    // (empty-tensor commands the generator produces at lattice edges),
    // so the property is "no worse than raw", which for every clean raw
    // stream means the optimized stream is clean too.
    VerifyReport raw_rep =
        verifyCommands(*raw.prog, raw.layout, map, cfg);
    VerifyReport opt_rep =
        verifyCommands(*opt.prog, opt.layout, map, cfg);
    if (raw_rep.clean())
        EXPECT_TRUE(opt_rep.clean()) << what << ": " << opt_rep.str();
    else
        EXPECT_LE(opt_rep.size(), raw_rep.size())
            << what << ": " << opt_rep.str();

    // Bytes: raw and optimized agree, and the bit fabric agrees with the
    // word-level replay on the optimized stream.
    const std::uint64_t raw_sum =
        runChecksum(ExecBackendKind::Functional, raw);
    const std::uint64_t opt_sum =
        runChecksum(ExecBackendKind::Functional, opt);
    EXPECT_EQ(raw_sum, opt_sum) << what;
    EXPECT_EQ(runChecksum(ExecBackendKind::Fabric, opt), opt_sum) << what;

    // Work only shrinks: per-kind counts and replay cycles.
    EXPECT_LE(opt.prog->numIntraShift, raw.prog->numIntraShift) << what;
    EXPECT_LE(opt.prog->numInterShift, raw.prog->numInterShift) << what;
    EXPECT_LE(opt.prog->numCompute, raw.prog->numCompute) << what;
    EXPECT_LE(opt.prog->numBroadcast, raw.prog->numBroadcast) << what;
    EXPECT_LE(opt.prog->numSync, raw.prog->numSync) << what;
    EXPECT_LE(replayTiming(cfg, opt, nullptr).simCycles,
              replayTiming(cfg, raw, nullptr).simCycles)
        << what;
}

/** Raw (cmdOpt off) primary job of a registry scenario, if it plans. */
std::optional<BackendJob>
rawScenarioJob(const char *name)
{
    const BenchScenario *sc = findScenario(name);
    if (sc == nullptr)
        return std::nullopt;
    Workload w = sc->quick();
    SystemConfig cfg = testSystemConfig();
    cfg.cmdOpt = false;
    return planPrimaryJob(w, cfg, kVolumeCap);
}

// ---- property sweep ----------------------------------------------------

// Same layered-graph generator as test_backend_diff (fixed seeds replay
// exactly), but diffing raw against optimized instead of backend pairs.
TEST(CmdOptProperty, RandomizedGraphs)
{
    SystemConfig cfg = testSystemConfig();
    cfg.cmdOpt = false; // The JIT must hand us the raw stream.
    AddressMap map(cfg.l3, cfg.noc.memCtrls);
    JitCompiler jit(cfg);
    const Coord n = 1024;
    const std::vector<BitOp> ops = {BitOp::Add, BitOp::Sub, BitOp::Mul,
                                    BitOp::Max, BitOp::Min};
    unsigned lowered = 0;
    for (unsigned g_i = 0; g_i < 10; ++g_i) {
        Rng rng(5000 + g_i);
        TdfgGraph g(1, "cmdopt_rand" + std::to_string(g_i));
        std::vector<NodeId> pool;
        const unsigned n_inputs = 2 + rng.nextBounded(2);
        for (unsigned a = 0; a < n_inputs; ++a)
            pool.push_back(g.tensor(static_cast<ArrayId>(a),
                                    HyperRect::interval(0, n)));
        const unsigned n_ops = 3 + rng.nextBounded(5);
        for (unsigned k = 0; k < n_ops; ++k) {
            NodeId a = pool[rng.nextBounded(pool.size())];
            switch (rng.nextBounded(4)) {
            case 0: {
                NodeId b = pool[rng.nextBounded(pool.size())];
                pool.push_back(g.compute(ops[rng.nextBounded(ops.size())],
                                         {a, b}));
                break;
            }
            case 1:
                pool.push_back(
                    g.compute(ops[rng.nextBounded(ops.size())],
                              {a, g.constant(0.25 * (1 + rng.nextBounded(
                                                          16)))}));
                break;
            case 2: {
                Coord dist = static_cast<Coord>(rng.nextBounded(40)) - 20;
                pool.push_back(g.move(a, 0, dist == 0 ? 1 : dist));
                break;
            }
            default: {
                Coord cnt = 2 + static_cast<Coord>(rng.nextBounded(3));
                pool.push_back(g.broadcast(a, 0, 0, cnt));
                break;
            }
            }
        }
        NodeId out = pool.back();
        if (rng.nextBounded(3) == 0)
            out = g.reduce(pool.back(), BitOp::Add, 0);
        g.output(out, static_cast<ArrayId>(n_inputs));

        TiledLayout lay({n}, {256});
        auto prog_or = jit.tryLower(g, lay, map);
        if (!prog_or)
            continue;
        ++lowered;
        BackendJob raw;
        raw.layout = lay;
        raw.prog = *prog_or;
        raw.volume = n;
        expectOptimizerSound(raw, g.name());
    }
    EXPECT_GE(lowered, 5u) << "random generator mostly unlowerable";
}

// And over every registry scenario that plans a job: the streams the
// executor actually runs.
TEST(CmdOptProperty, AllScenarioJobs)
{
    unsigned planned = 0;
    for (const BenchScenario &sc : benchRegistry()) {
        SCOPED_TRACE(sc.name);
        auto raw = rawScenarioJob(sc.name);
        if (!raw)
            continue;
        ++planned;
        expectOptimizerSound(*raw, sc.name);
    }
    EXPECT_GE(planned, 9u);
}

// ---- scenario-pinned rewrite behavior ---------------------------------

// stencil2d's reduce-style lowering restates moves per subtensor: the
// coalescer must merge them, and every Sync there guards a live
// move-to-compute chain, so none may be elided.
TEST(CmdOptScenario, Stencil2dCoalescesButKeepsSyncs)
{
    auto raw = rawScenarioJob("stencil2d");
    ASSERT_TRUE(raw.has_value());
    SystemConfig cfg = testSystemConfig();
    AddressMap map(cfg.l3, cfg.noc.memCtrls);
    CmdStats st;
    BackendJob opt = optimizedJob(*raw, cfg, map, &st);
    EXPECT_EQ(st.fusedMoves, 5u);
    EXPECT_EQ(st.elidedSyncs, 0u);
    EXPECT_EQ(opt.prog->numSync, raw->prog->numSync);
    EXPECT_LT(opt.prog->commands.size(), raw->prog->commands.size());
}

// dwt2d's even/odd subsampling emits four barriers of which exactly two
// guard live move-to-compute chains: the other two must be elided.
TEST(CmdOptScenario, Dwt2dElidesHalfItsSyncs)
{
    auto raw = rawScenarioJob("dwt2d");
    ASSERT_TRUE(raw.has_value());
    ASSERT_EQ(raw->prog->numSync, 4u);
    SystemConfig cfg = testSystemConfig();
    AddressMap map(cfg.l3, cfg.noc.memCtrls);
    CmdStats st;
    BackendJob opt = optimizedJob(*raw, cfg, map, &st);
    EXPECT_EQ(st.elidedSyncs, 2u);
    EXPECT_EQ(opt.prog->numSync, 2u);
}

// mm_outer's single barrier commits the broadcast its computes consume;
// it is load-bearing and must survive.
TEST(CmdOptScenario, MmOuterKeepsItsSync)
{
    auto raw = rawScenarioJob("mm_outer");
    ASSERT_TRUE(raw.has_value());
    ASSERT_EQ(raw->prog->numSync, 1u);
    SystemConfig cfg = testSystemConfig();
    AddressMap map(cfg.l3, cfg.noc.memCtrls);
    CmdStats st;
    BackendJob opt = optimizedJob(*raw, cfg, map, &st);
    EXPECT_EQ(st.elidedSyncs, 0u);
    EXPECT_EQ(opt.prog->numSync, 1u);
}

// pointnet's gather phase ends with movement nothing consumes in-stream
// plus one barrier guarding a real chain: exactly one of two elides.
TEST(CmdOptScenario, PointnetElidesHalfItsSyncs)
{
    auto raw = rawScenarioJob("pointnet_ssg");
    ASSERT_TRUE(raw.has_value());
    ASSERT_EQ(raw->prog->numSync, 2u);
    SystemConfig cfg = testSystemConfig();
    AddressMap map(cfg.l3, cfg.noc.memCtrls);
    CmdStats st;
    BackendJob opt = optimizedJob(*raw, cfg, map, &st);
    EXPECT_EQ(st.elidedSyncs, 1u);
    EXPECT_EQ(opt.prog->numSync, 1u);
}

// The per-pass switches drive the ablation harness: with syncElision
// off, dwt2d's elidable barriers must survive untouched.
TEST(CmdOptScenario, SyncElisionSwitchedOff)
{
    auto raw = rawScenarioJob("dwt2d");
    ASSERT_TRUE(raw.has_value());
    SystemConfig cfg = testSystemConfig();
    AddressMap map(cfg.l3, cfg.noc.memCtrls);
    InMemProgram prog = *raw->prog;
    CmdOptOptions opts;
    opts.syncElision = false;
    CmdStats st = optimizeCommands(prog, raw->layout, map, cfg, opts);
    EXPECT_EQ(st.elidedSyncs, 0u);
    EXPECT_EQ(prog.numSync, raw->prog->numSync);
    EXPECT_GT(st.fusedMoves, 0u); // The other passes still ran.
}

// ---- hand-crafted single-rule cases -----------------------------------

/** 1-D fixture: 1024 cells in 256-wide tiles, test bank mapping. */
struct CmdOptFixture {
    SystemConfig cfg = testSystemConfig();
    TiledLayout layout{{1024}, {256}};
    AddressMap map{cfg.l3, cfg.noc.memCtrls};

    std::vector<BankId> banksOf(const HyperRect &r) const
    {
        return layout.banksFor(r, map);
    }

    InMemCommand intraShift(unsigned group, Coord lo, Coord hi,
                            Coord dist, unsigned wl_a, unsigned wl_dst)
    {
        InMemCommand c;
        c.kind = CmdKind::IntraShift;
        c.group = group;
        c.tensor = HyperRect::interval(lo, hi);
        c.dim = 0;
        c.maskLo = 0;
        c.maskHi = 256;
        c.intraTileDist = dist;
        c.wlA = wl_a;
        c.wlDst = wl_dst;
        c.banks = banksOf(c.tensor);
        return c;
    }

    InMemCommand interShift(unsigned group, Coord lo, Coord hi,
                            Coord tiles, unsigned wl_a, unsigned wl_dst)
    {
        InMemCommand c;
        c.kind = CmdKind::InterShift;
        c.group = group;
        c.tensor = HyperRect::interval(lo, hi);
        c.dim = 0;
        c.maskLo = 0;
        c.maskHi = 256;
        c.interTileDist = tiles;
        c.wlA = wl_a;
        c.wlDst = wl_dst;
        HyperRect dst = c.tensor.shifted(0, tiles * 256)
                            .intersect(HyperRect::array({1024}));
        c.banks = banksOf(c.tensor.boundingUnion(dst));
        return c;
    }

    InMemCommand compute(unsigned group, Coord lo, Coord hi,
                         unsigned wl_a, unsigned wl_dst,
                         bool in_place_imm = false)
    {
        InMemCommand c;
        c.kind = CmdKind::Compute;
        c.group = group;
        c.tensor = HyperRect::interval(lo, hi);
        c.op = BitOp::Add;
        c.wlA = wl_a;
        c.wlB = wl_a;
        c.wlDst = wl_dst;
        if (in_place_imm) {
            c.useImm = true;
            c.imm = 1.0;
        }
        c.banks = banksOf(c.tensor);
        return c;
    }

    InMemCommand sync()
    {
        InMemCommand c;
        c.kind = CmdKind::Sync;
        return c;
    }

    CmdStats optimize(InMemProgram &prog, const CmdOptOptions &opts = {})
    {
        return optimizeCommands(prog, layout, map, cfg, opts);
    }
};

// A repeated identical broadcast is byte-idempotent: the second copy
// must be removed.
TEST(CmdOptUnit, IdenticalBroadcastDeduped)
{
    CmdOptFixture fx;
    InMemCommand bc;
    bc.kind = CmdKind::BroadcastBl;
    bc.group = 0;
    bc.tensor = HyperRect::interval(0, 1);
    bc.dim = 0;
    bc.bcCount = 4;
    bc.bcDist = 0;
    bc.wlA = 0;
    bc.wlDst = 1;
    bc.banks = fx.banksOf(HyperRect::interval(0, 4));
    InMemCommand bc2 = bc;
    bc2.group = 1;

    InMemProgram prog;
    prog.commands = {bc, bc2};
    prog.recount();
    CmdStats st = fx.optimize(prog);
    EXPECT_EQ(st.dedupedBroadcasts, 1u);
    EXPECT_EQ(prog.commands.size(), 1u);
}

// An intervening write to the broadcast's destination makes re-execution
// observable: nothing may be removed.
TEST(CmdOptUnit, CloberredBroadcastKept)
{
    CmdOptFixture fx;
    InMemCommand bc;
    bc.kind = CmdKind::BroadcastBl;
    bc.group = 0;
    bc.tensor = HyperRect::interval(0, 1);
    bc.dim = 0;
    bc.bcCount = 4;
    bc.bcDist = 0;
    bc.wlA = 0;
    bc.wlDst = 1;
    bc.banks = fx.banksOf(HyperRect::interval(0, 4));
    InMemCommand bc2 = bc;
    bc2.group = 2;

    InMemProgram prog;
    // The compute overwrites wordline 1 over [0, 4): the second
    // broadcast re-populates it and is NOT redundant.
    prog.commands = {bc, fx.compute(1, 0, 4, 0, 1), bc2};
    prog.recount();
    CmdStats st = fx.optimize(prog);
    EXPECT_EQ(st.dedupedBroadcasts, 0u);
    EXPECT_EQ(prog.commands.size(), 3u);
}

// In-place commands (x = f(x)) are never idempotent: two identical
// accumulating computes must both survive.
TEST(CmdOptUnit, InPlaceComputeNeverDeduped)
{
    CmdOptFixture fx;
    InMemProgram prog;
    prog.commands = {fx.compute(0, 0, 256, 0, 0, /*in_place_imm=*/true),
                     fx.compute(1, 0, 256, 0, 0, /*in_place_imm=*/true)};
    prog.recount();
    CmdStats st = fx.optimize(prog);
    EXPECT_EQ(st.dedupedCommands, 0u);
    EXPECT_EQ(prog.commands.size(), 2u);
}

// Two same-group shifts whose rects exactly partition their bounding
// union are one logical move: coalesce into a single wider command.
TEST(CmdOptUnit, AdjacentShiftsCoalesce)
{
    CmdOptFixture fx;
    InMemProgram prog;
    prog.commands = {fx.intraShift(0, 0, 256, 4, 0, 1),
                     fx.intraShift(0, 256, 512, 4, 0, 1)};
    prog.recount();
    CmdStats st = fx.optimize(prog);
    EXPECT_EQ(st.fusedMoves, 1u);
    ASSERT_EQ(prog.commands.size(), 1u);
    EXPECT_EQ(prog.commands[0].tensor, HyperRect::interval(0, 512));
}

// A gap between the windows breaks the exact-partition precondition:
// merging would move cells neither original touched.
TEST(CmdOptUnit, GappedShiftsNotCoalesced)
{
    CmdOptFixture fx;
    InMemProgram prog;
    prog.commands = {fx.intraShift(0, 0, 256, 4, 0, 1),
                     fx.intraShift(0, 512, 768, 4, 0, 1)};
    prog.recount();
    CmdStats st = fx.optimize(prog);
    EXPECT_EQ(st.fusedMoves, 0u);
    EXPECT_EQ(prog.commands.size(), 2u);
}

// Cross-group shifts never merge, however compatible: group order is
// the execution model's dependence carrier.
TEST(CmdOptUnit, CrossGroupShiftsNotCoalesced)
{
    CmdOptFixture fx;
    InMemProgram prog;
    prog.commands = {fx.intraShift(0, 0, 256, 4, 0, 1),
                     fx.intraShift(1, 256, 512, 4, 0, 1)};
    prog.recount();
    CmdStats st = fx.optimize(prog);
    EXPECT_EQ(st.fusedMoves, 0u);
    EXPECT_EQ(prog.commands.size(), 2u);
}

// A barrier with no pending asynchronous movement orders nothing:
// IntraShifts issue synchronously per bank, so this Sync is elided.
TEST(CmdOptUnit, SyncAfterSynchronousMoveElided)
{
    CmdOptFixture fx;
    InMemProgram prog;
    prog.commands = {fx.intraShift(0, 0, 256, 4, 0, 1), fx.sync(),
                     fx.compute(1, 0, 256, 1, 2)};
    prog.recount();
    CmdStats st = fx.optimize(prog);
    EXPECT_EQ(st.elidedSyncs, 1u);
    EXPECT_EQ(prog.numSync, 0u);
}

// The same shape with asynchronous movement (InterShift) and a consumer
// of the moved slot: the barrier carries the RAW edge and must stay.
TEST(CmdOptUnit, SyncGuardingAsyncRawKept)
{
    CmdOptFixture fx;
    InMemProgram prog;
    prog.commands = {fx.interShift(0, 0, 256, 1, 0, 1), fx.sync(),
                     fx.compute(1, 256, 512, 1, 2)};
    prog.recount();
    CmdStats st = fx.optimize(prog);
    EXPECT_EQ(st.elidedSyncs, 0u);
    EXPECT_EQ(prog.numSync, 1u);
}

// Async movement with NO dependent consumer in the stream: the trailing
// commit barrier must still be kept (§5.3 — results only become visible
// to the host at a Sync).
TEST(CmdOptUnit, TrailingCommitSyncKeptWhileAsyncPending)
{
    CmdOptFixture fx;
    InMemProgram prog;
    prog.commands = {fx.interShift(0, 0, 256, 1, 0, 1), fx.sync()};
    prog.recount();
    CmdStats st = fx.optimize(prog);
    EXPECT_EQ(st.elidedSyncs, 0u);
    EXPECT_EQ(prog.numSync, 1u);
}

} // namespace
} // namespace infs
