/**
 * @file
 * Differential tests for the execution backends (DESIGN.md §12): the
 * fidelity contract is that for the SAME planned job,
 *  - the functional backend's checksum is byte-identical to the fabric's
 *    (word-level replay == bit-serial fabric, bit for bit), and
 *  - the timing backend's sim_cycles equal the fabric's replay exactly
 *    (both run the identical cycle-replay path).
 *
 * Compiled twice: the default target covers a fast scenario subset plus
 * randomized tDFGs (tier1 + differential labels); with INFS_DIFF_FULL it
 * covers all 17 registry scenarios and a deeper random sweep
 * (differential + slow labels, nightly CI).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/backend.hh"
#include "jit/jit.hh"
#include "mem/address_map.hh"
#include "sim/rng.hh"
#include "workloads/registry.hh"

namespace infs {
namespace {

constexpr std::int64_t kDiffVolumeCap = 1 << 18;

/** The lowering config under test. The test_backend_diff_nocmdopt twin
 * compiles with INFS_NO_CMDOPT to certify the raw (pre-optimizer)
 * streams too, so a fidelity break is attributable in one CI run. */
SystemConfig
diffConfig()
{
    SystemConfig cfg = testSystemConfig();
#ifdef INFS_NO_CMDOPT
    cfg.cmdOpt = false;
#endif
    return cfg;
}

/** Run @p job on all three backends and pin the fidelity contract. */
void
expectBackendsAgree(const BackendJob &job, const std::string &what)
{
    SystemConfig cfg = testSystemConfig();
    BackendResult fab = makeBackend(ExecBackendKind::Fabric, cfg)
                            ->runJob(job);
    BackendResult fun = makeBackend(ExecBackendKind::Functional, cfg)
                            ->runJob(job);
    BackendResult tim = makeBackend(ExecBackendKind::Timing, cfg)
                            ->runJob(job);

    EXPECT_TRUE(fab.bitAccurate) << what;
    EXPECT_TRUE(fab.hasTiming) << what;
    EXPECT_TRUE(fun.bitAccurate) << what;
    EXPECT_TRUE(tim.hasTiming) << what;

    // Bits: functional must reproduce the fabric byte for byte.
    EXPECT_EQ(fun.checksum, fab.checksum) << what;
    // Time: the replay is a pure function of (program, layout, config),
    // so fabric and timing must report identical cycles — and traffic
    // and energy, which are sums over the same command walk.
    EXPECT_EQ(tim.simCycles, fab.simCycles) << what;
    EXPECT_EQ(tim.nocHopBytes, fab.nocHopBytes) << what;
    EXPECT_EQ(tim.energyJoules, fab.energyJoules) << what;
}

/** Plan the scenario's primary job and diff it; some scenarios plan no
 * job (near-memory only or untileable) — vacuously consistent. */
void
diffScenario(const char *name, bool full_size = false)
{
    SCOPED_TRACE(name);
    const BenchScenario *sc = findScenario(name);
    ASSERT_NE(sc, nullptr);
    Workload w = full_size ? sc->full() : sc->quick();
    SystemConfig cfg = diffConfig();
    auto job = planPrimaryJob(w, cfg, kDiffVolumeCap);
    if (!job)
        return;
    expectBackendsAgree(*job, name);
}

#ifdef INFS_DIFF_FULL

// Nightly: every registry scenario, bit for bit and cycle for cycle.
TEST(BackendDiffFull, AllScenarios)
{
    for (const BenchScenario &sc : benchRegistry())
        diffScenario(sc.name);
}

// And again at paper-scale sizes (those under the volume cap): the
// boundary-tile and multi-bank paths only open up at full size.
TEST(BackendDiffFull, FullSizeScenarios)
{
    for (const BenchScenario &sc : benchRegistry())
        diffScenario(sc.name, /*full_size=*/true);
}

#else // !INFS_DIFF_FULL

// Per-PR tier-1 subset: cheap scenarios spanning the command mix —
// aligned compute (vec_add), tree reduction (array_sum), intra/inter
// shifts (stencil1d), 2-D shifts + subsampling (dwt2d), broadcast +
// reduce (mm_outer), and the iterative kmeans inner loop.
TEST(BackendDiff, FastScenarioSubset)
{
    for (const char *name : {"vec_add", "array_sum", "stencil1d", "dwt2d",
                             "mm_outer", "kmeans_inner"})
        diffScenario(name);
}

#endif // INFS_DIFF_FULL

/**
 * Randomized tDFGs: layered graphs over a 1-D lattice mixing computes,
 * immediates, moves, broadcasts, and a final optional reduce — lowered
 * with the real JIT and diffed across backends. Seeds are fixed, so
 * failures replay exactly.
 */
void
diffRandomGraphs(std::uint64_t seed_base, unsigned count)
{
    SystemConfig cfg = diffConfig();
    AddressMap map(cfg.l3, cfg.noc.memCtrls);
    JitCompiler jit(cfg);
    const Coord n = 1024;
    const std::vector<BitOp> ops = {BitOp::Add, BitOp::Sub, BitOp::Mul,
                                    BitOp::Max, BitOp::Min};
    unsigned lowered = 0;
    for (unsigned g_i = 0; g_i < count; ++g_i) {
        Rng rng(seed_base + g_i);
        TdfgGraph g(1, "rand" + std::to_string(g_i));
        std::vector<NodeId> pool;
        const unsigned n_inputs = 2 + rng.nextBounded(2);
        for (unsigned a = 0; a < n_inputs; ++a)
            pool.push_back(g.tensor(static_cast<ArrayId>(a),
                                    HyperRect::interval(0, n)));
        const unsigned n_ops = 3 + rng.nextBounded(5);
        for (unsigned k = 0; k < n_ops; ++k) {
            NodeId a = pool[rng.nextBounded(pool.size())];
            switch (rng.nextBounded(4)) {
            case 0: { // Binary compute of two live nodes.
                NodeId b = pool[rng.nextBounded(pool.size())];
                pool.push_back(g.compute(ops[rng.nextBounded(ops.size())],
                                         {a, b}));
                break;
            }
            case 1: // Compute against an immediate constant.
                pool.push_back(
                    g.compute(ops[rng.nextBounded(ops.size())],
                              {a, g.constant(0.25 * (1 + rng.nextBounded(
                                                          16)))}));
                break;
            case 2: { // Shift by a mixed intra/inter-tile distance.
                Coord dist = static_cast<Coord>(rng.nextBounded(40)) - 20;
                pool.push_back(g.move(a, 0, dist == 0 ? 1 : dist));
                break;
            }
            default: { // Short-range broadcast along dim 0.
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
            continue; // Constraint refusals are fine; diff what lowers.
        ++lowered;
        BackendJob job;
        job.layout = lay;
        job.prog = *prog_or;
        job.volume = n;
        expectBackendsAgree(job, g.name());
    }
    // The generator must actually exercise the contract, not skip
    // everything through lowering refusals.
    EXPECT_GE(lowered, count / 2) << "random generator mostly unlowerable";
}

#ifdef INFS_DIFF_FULL
TEST(BackendDiffFull, RandomizedGraphs)
{
    diffRandomGraphs(/*seed_base=*/7000, /*count=*/24);
}
#else
TEST(BackendDiff, RandomizedGraphs)
{
    diffRandomGraphs(/*seed_base=*/4000, /*count=*/8);
}
#endif

/** Fabric checksum of @p job without the cycle replay: the bits the
 * functional backend must reproduce. */
std::uint64_t
fabricChecksum(const BackendJob &job)
{
    SystemConfig cfg = testSystemConfig();
    BitAccurateFabric fab(job.layout, cfg.l3.wordlines, cfg.l3.bitlines);
    seedJobInputs(fab, job);
    fab.execute(*job.prog);
    return checksumJobOutputs(fab, job);
}

/** A job of hand-built commands over arrays 0 (slot 0) and 1 (slot 32),
 * both hashed as outputs. */
BackendJob
handJob(const TiledLayout &lay, std::vector<InMemCommand> cmds)
{
    auto prog = std::make_shared<InMemProgram>();
    prog->commands = std::move(cmds);
    prog->arraySlots = {{0, 0}, {1, 32}};
    prog->outputSlots = {{0, 0}, {1, 32}};
    prog->recount();
    BackendJob job;
    job.layout = lay;
    job.prog = std::move(prog);
    job.volume = HyperRect::array(lay.shape()).volume();
    return job;
}

InMemCommand
intraShift(HyperRect tensor, unsigned dim, Coord dist, Coord mask_lo,
           Coord mask_hi, unsigned wl_src, unsigned wl_dst)
{
    InMemCommand c;
    c.kind = CmdKind::IntraShift;
    c.tensor = std::move(tensor);
    c.dim = dim;
    c.intraTileDist = dist;
    c.maskLo = mask_lo;
    c.maskHi = mask_hi;
    c.wlA = wl_src;
    c.wlDst = wl_dst;
    return c;
}

/** The word model must run @p cmd itself (no fallback) and match the
 * fabric bit for bit. */
void
expectIntraShiftAgrees(const TiledLayout &lay, const InMemCommand &cmd)
{
    SCOPED_TRACE(cmd.str());
    const BackendJob job = handJob(lay, {cmd});
    SystemConfig cfg = testSystemConfig();
    BackendResult fun =
        makeBackend(ExecBackendKind::Functional, cfg)->runJob(job);
    EXPECT_EQ(fun.fallback, "");
    EXPECT_EQ(fun.checksum, fabricChecksum(job));
}

TEST(BackendDiff, IntraShiftHandBuilt)
{
    // 20x6 over 8x4 tiles: both dims end in a partial boundary tile, so
    // some destination bitlines hold no lattice cell.
    const TiledLayout lay({20, 6}, {8, 4});
    const HyperRect all = HyperRect::array(lay.shape());
    const HyperRect part({1, 0}, {19, 5});
    for (unsigned src : {0u, 32u}) {
        // Same slot (src == dst) and distinct slots.
        const unsigned dst = 32;
        // Dim-0 shifts whose destination wraps into the next tile row.
        expectIntraShiftAgrees(lay, intraShift(all, 0, 3, 0, 8, src, dst));
        expectIntraShiftAgrees(lay, intraShift(part, 0, 5, 1, 7, src, dst));
        // Negative deltas, wrapping back into the previous row.
        expectIntraShiftAgrees(lay, intraShift(all, 0, -3, 0, 8, src, dst));
        expectIntraShiftAgrees(lay, intraShift(part, 1, -1, 1, 4, src, dst));
        // Off the array edge: past the last bitline and before the first.
        expectIntraShiftAgrees(lay, intraShift(all, 1, 2, 0, 4, src, dst));
        expectIntraShiftAgrees(lay, intraShift(all, 0, 30, 0, 8, src, dst));
        expectIntraShiftAgrees(lay, intraShift(all, 0, -30, 0, 8, src, dst));
        // An empty positional window moves nothing.
        expectIntraShiftAgrees(lay, intraShift(all, 0, 1, 4, 4, src, dst));
    }
    // Rank 3 with tile0 = 1 (one bitline per tile row), partial in
    // dims 1 and 2.
    const TiledLayout lay3({3, 10, 5}, {1, 8, 4});
    const HyperRect all3 = HyperRect::array(lay3.shape());
    expectIntraShiftAgrees(lay3, intraShift(all3, 1, 3, 0, 8, 0, 32));
    expectIntraShiftAgrees(lay3, intraShift(all3, 2, -1, 1, 4, 32, 32));
    expectIntraShiftAgrees(lay3, intraShift(all3, 0, 0, 0, 1, 0, 32));
}

TEST(BackendDiff, IntraShiftRandomized)
{
    Rng rng(4100);
    for (int iter = 0; iter < 150; ++iter) {
        const unsigned nd = 1 + rng.nextBounded(3);
        std::vector<Coord> shape(nd), tile(nd), lo(nd), hi(nd);
        std::int64_t tvol = 1;
        for (unsigned d = 0; d < nd; ++d) {
            shape[d] = 1 + static_cast<Coord>(rng.nextBounded(30));
            tile[d] = 1 + static_cast<Coord>(rng.nextBounded(
                              static_cast<unsigned>(std::min<std::int64_t>(
                                  12, 256 / tvol))));
            tvol *= tile[d];
            lo[d] = static_cast<Coord>(
                rng.nextBounded(static_cast<unsigned>(shape[d])));
            hi[d] = lo[d] + 1 +
                    static_cast<Coord>(rng.nextBounded(
                        static_cast<unsigned>(shape[d] - lo[d] + 2)));
        }
        const TiledLayout lay(shape, tile);
        const unsigned dim = rng.nextBounded(nd);
        const Coord dist = static_cast<Coord>(rng.nextBounded(
                               static_cast<unsigned>(2 * tile[dim] + 1))) -
                           tile[dim];
        const Coord mask_lo = static_cast<Coord>(
            rng.nextBounded(static_cast<unsigned>(tile[dim])));
        const Coord mask_hi =
            mask_lo + static_cast<Coord>(rng.nextBounded(
                          static_cast<unsigned>(tile[dim] - mask_lo + 1)));
        const unsigned src = 32 * rng.nextBounded(2);
        expectIntraShiftAgrees(
            lay, intraShift(HyperRect(lo, hi), dim, dist, mask_lo, mask_hi,
                            src, 32));
    }
}

TEST(BackendDiff, FallbackNamesItsReason)
{
    // An int32 compute lies outside the word model's value model: the
    // functional backend runs the bit fabric instead, says why, and
    // still reproduces the fabric's bits.
    const TiledLayout lay({64, 4}, {16, 4});
    InMemCommand c;
    c.kind = CmdKind::Compute;
    c.tensor = HyperRect::array(lay.shape());
    c.op = BitOp::Add;
    c.dtype = DType::Int32;
    c.wlA = 0;
    c.wlB = 32;
    c.wlDst = 32;
    const BackendJob job = handJob(lay, {c});
    SystemConfig cfg = testSystemConfig();
    BackendResult fun =
        makeBackend(ExecBackendKind::Functional, cfg)->runJob(job);
    EXPECT_NE(fun.fallback.find("non-fp32"), std::string::npos)
        << fun.fallback;
    EXPECT_TRUE(fun.bitAccurate);
    EXPECT_EQ(fun.checksum, fabricChecksum(job));
    BackendResult fab =
        makeBackend(ExecBackendKind::Fabric, cfg)->runJob(job);
    EXPECT_EQ(fab.fallback, "");
}

TEST(BackendDiff, RegistryJobsNeedNoFallback)
{
    // Every registry scenario's paper-size job runs on the word model
    // itself: a silent fallback would hide behind matching checksums and
    // inflate the functional backend's measured speedup.
    SystemConfig cfg = defaultSystemConfig();
    auto fun = makeBackend(ExecBackendKind::Functional, cfg);
    unsigned planned = 0;
    for (const BenchScenario &sc : benchRegistry()) {
        auto job = planPrimaryJob(sc.full(), cfg, 0);
        if (!job)
            continue;
        ++planned;
        EXPECT_EQ(fun->runJob(*job).fallback, "") << sc.name;
    }
    EXPECT_GE(planned, 14u);
}

/** The registry itself: stable names, both factories callable. */
TEST(BackendDiff, RegistryIsComplete)
{
    EXPECT_EQ(benchRegistry().size(), 17u);
    EXPECT_NE(findScenario("vec_add"), nullptr);
    EXPECT_NE(findScenario("pointnet_msg"), nullptr);
    EXPECT_EQ(findScenario("no_such_scenario"), nullptr);
}

} // namespace
} // namespace infs
