/**
 * @file
 * Pins the lowered programs: every field of every command the JIT emits
 * (banks and group included, which str() omits), the slot tables, the
 * modeled JIT time and the optimizer counters, digested per scenario and
 * compared against a committed table. A change to the lowering's data
 * structures that is meant to leave the command streams alone must keep
 * every digest; a digest that moves is a behavior change and fails here.
 *
 * Coverage: every registry scenario's tensor phases at quick(), full()
 * and paper() sizes, on the test and the Table 2 machine, lowered for
 * every fat-binary candidate layout with the command optimizer on and
 * off; and single gauss_elim(2048) iterations across its shrinking
 * regions. A scenario, size and machine that lowers no program (Eq. 2
 * keeps its phases near memory) has no entry, so every entry pins at
 * least one program, and a size that starts or stops lowering shows up
 * as an added or missing key.
 *
 * On a mismatch the test prints the whole recomputed table in the form
 * below, so an intended change regenerates it in one paste.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "core/plan.hh"
#include "jit/jit.hh"
#include "mem/address_map.hh"
#include "workloads/registry.hh"
#include "workloads/workloads.hh"

namespace infs {
namespace {

/** 64-bit FNV-1a over fixed-width little-endian words. */
struct Digest {
    std::uint64_t h = 14695981039346656037ull;

    void
    add(std::uint64_t v)
    {
        for (unsigned i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    }

    void
    addDouble(double d)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &d, sizeof bits);
        add(bits);
    }

    void
    addRect(const HyperRect &r)
    {
        add(r.dims());
        for (unsigned d = 0; d < r.dims(); ++d) {
            add(static_cast<std::uint64_t>(r.lo(d)));
            add(static_cast<std::uint64_t>(r.hi(d)));
        }
    }

    void
    addSlots(const std::vector<std::pair<ArrayId, unsigned>> &slots)
    {
        add(slots.size());
        for (const auto &[a, s] : slots) {
            add(a);
            add(s);
        }
    }

    /** Every InMemCommand field in declaration order; banks ascending. */
    void
    addCommand(const InMemCommand &c)
    {
        add(static_cast<std::uint64_t>(c.kind));
        add(c.group);
        addRect(c.tensor);
        add(c.dim);
        add(static_cast<std::uint64_t>(c.maskLo));
        add(static_cast<std::uint64_t>(c.maskHi));
        add(static_cast<std::uint64_t>(c.interTileDist));
        add(static_cast<std::uint64_t>(c.intraTileDist));
        add(static_cast<std::uint64_t>(c.bcCount));
        add(static_cast<std::uint64_t>(c.bcDist));
        add(static_cast<std::uint64_t>(c.op));
        add(static_cast<std::uint64_t>(c.dtype));
        add(c.wlA);
        add(c.wlB);
        add(c.wlDst);
        add(c.useImm);
        addDouble(c.imm);
        add(c.banks.size());
        c.banks.forEach([&](BankId b) { add(b); });
    }

    void
    addProgram(const InMemProgram &p)
    {
        add(p.commands.size());
        for (const InMemCommand &c : p.commands)
            addCommand(c);
        addSlots(p.arraySlots);
        addSlots(p.outputSlots);
        add(p.numIntraShift);
        add(p.numInterShift);
        add(p.numCompute);
        add(p.numBroadcast);
        add(p.numSync);
        add(p.jitTicks);
        const CmdStats &o = p.opt;
        for (unsigned v : {o.fusedMoves, o.dedupedBroadcasts,
                           o.dedupedCommands, o.hoistedMasks,
                           o.elidedSyncs, o.bailouts})
            add(v);
    }

    /** A failed lowering digests as its diagnostic. */
    void
    addLowering(const Expected<std::shared_ptr<const InMemProgram>> &p)
    {
        if (p) {
            add(1);
            addProgram(**p);
            return;
        }
        add(0);
        add(static_cast<std::uint64_t>(p.error().code));
        for (char ch : p.error().message)
            add(static_cast<unsigned char>(ch));
    }
};

/**
 * Digest of every tensor phase's first-iteration graph of @p w on
 * @p cfg, lowered once per layout the executor could run it on (every
 * fat-binary candidate for primary-layout phases), with the command
 * optimizer on and then off. Adds the number of programs digested to
 * @p programs.
 */
std::uint64_t
workloadDigest(const Workload &w, SystemConfig cfg, unsigned &programs)
{
    Digest d;
    const AddressMap map(cfg.l3, cfg.noc.memCtrls);
    for (bool opt : {true, false}) {
        cfg.cmdOpt = opt;
        JitCompiler jit(cfg);
        const RegionPlan plan = planRegion(w, cfg, true);
        for (const PhasePlan &pp : plan.phases) {
            const TiledLayout *layout = plan.layoutOf(pp);
            if (!pp.g0 || !layout ||
                (pp.route != Route::InMemory && pp.route != Route::Fallback))
                continue;
            std::vector<TiledLayout> layouts{*layout};
            if (pp.onPrimary && !plan.candidates.empty())
                layouts = plan.candidates;
            for (const auto &p :
                 jit.lowerCandidates(*pp.g0, layouts, map, "")) {
                d.addLowering(p);
                ++programs;
            }
        }
    }
    return d.h;
}

/** Digest of gauss_elim(2048) iteration @p iter on its primary layout. */
std::uint64_t
gaussDigest(const Workload &w, const SystemConfig &cfg, std::uint64_t iter)
{
    const AddressMap map(cfg.l3, cfg.noc.memCtrls);
    const RegionPlan plan = planRegion(w, cfg, true);
    EXPECT_TRUE(plan.layout.has_value());
    if (!plan.layout)
        return 0;
    JitCompiler jit(cfg);
    Digest d;
    d.addLowering(jit.tryLower(w.phases[0].buildTdfg(iter), *plan.layout,
                               map));
    return d.h;
}

/** Committed digests, keyed "<scenario>/<size>/<machine>" and
 * "gauss_elim_2048/k<iter>". */
const std::map<std::string, std::uint64_t> kPinned = {
    {"array_sum/full/table2", 0x277602b646276a95ull},
    {"array_sum/full/test", 0xafddf91c34747135ull},
    {"array_sum/paper/table2", 0xdb57ab26417fbd0dull},
    {"array_sum/paper/test", 0x400964fdcbd3d9e5ull},
    {"conv2d/full/table2", 0xc689f96bd16f4655ull},
    {"conv2d/full/test", 0xc689f96bd16f4655ull},
    {"conv2d/paper/table2", 0x82099bd7ba45d671ull},
    {"conv2d/paper/test", 0x889fba974b048021ull},
    {"conv3d/full/table2", 0x3d1223f7c91c7d85ull},
    {"conv3d/full/test", 0x3d1223f7c91c7d85ull},
    {"conv3d/paper/table2", 0x846a6d11454fd785ull},
    {"conv3d/paper/test", 0x846a6d11454fd785ull},
    {"dwt2d/full/table2", 0xd9b7790d2b7f592cull},
    {"dwt2d/full/test", 0x13f517532add7735ull},
    {"dwt2d/paper/table2", 0x875f4d07fdc8bda4ull},
    {"dwt2d/paper/test", 0x5b99929be617bacbull},
    {"dwt2d/quick/table2", 0x9e3c5bf17f38c494ull},
    {"dwt2d/quick/test", 0x9e3c5bf17f38c494ull},
    {"gather_mlp_inner/full/table2", 0xdaac1aa6e2db7ebdull},
    {"gather_mlp_inner/full/test", 0xdaac1aa6e2db7ebdull},
    {"gather_mlp_inner/paper/table2", 0x5a1bdfe52c85c671ull},
    {"gather_mlp_inner/paper/test", 0xadeaca5fb4943979ull},
    {"gather_mlp_outer/full/table2", 0x26c7d6567a6dfdc0ull},
    {"gather_mlp_outer/full/test", 0x26c7d6567a6dfdc0ull},
    {"gather_mlp_outer/paper/table2", 0x2b603423ca94a7d8ull},
    {"gather_mlp_outer/paper/test", 0x8af255457431ecd8ull},
    {"gauss_elim/full/table2", 0x178502dc73c3f3dcull},
    {"gauss_elim/full/test", 0xe113695d34f0466cull},
    {"gauss_elim/paper/table2", 0x42c4a13e452b824eull},
    {"gauss_elim/paper/test", 0x8363b7aca0f291baull},
    {"gauss_elim_2048/k0", 0x22c462e0d395a063ull},
    {"gauss_elim_2048/k1", 0x10444c1a7091b5eaull},
    {"gauss_elim_2048/k1023", 0xa5c733846a6434aaull},
    {"gauss_elim_2048/k2046", 0x38ea19ef7c6c5091ull},
    {"gauss_elim_2048/k255", 0x6c125aadccdc9e1dull},
    {"gauss_elim_2048/k256", 0x9c09de541975f9f5ull},
    {"kmeans_inner/paper/table2", 0x280ac47b5ae66235ull},
    {"kmeans_inner/paper/test", 0x1cd5c16bf03f9a65ull},
    {"kmeans_outer/paper/table2", 0x1be2f2359b72e469ull},
    {"kmeans_outer/paper/test", 0x0a5e194c093fd4ddull},
    {"mm_inner/full/table2", 0x781d8e8aa2d48925ull},
    {"mm_inner/full/test", 0x781d8e8aa2d48925ull},
    {"mm_inner/paper/table2", 0x63bd6e0d8dfd4e35ull},
    {"mm_inner/paper/test", 0x90048e3011674ac9ull},
    {"mm_inner/quick/table2", 0x8d09012969d238adull},
    {"mm_inner/quick/test", 0x8d09012969d238adull},
    {"mm_outer/full/table2", 0x3c146a388afed7adull},
    {"mm_outer/full/test", 0x3c146a388afed7adull},
    {"mm_outer/paper/table2", 0x9a692419be1265d8ull},
    {"mm_outer/paper/test", 0x0f6e67c6953b3658ull},
    {"mm_outer/quick/table2", 0xda3612d0bbbf93adull},
    {"mm_outer/quick/test", 0xda3612d0bbbf93adull},
    {"pointnet_msg/full/table2", 0xb080a9380d237949ull},
    {"pointnet_msg/full/test", 0x665985f58b417625ull},
    {"pointnet_msg/paper/table2", 0xa056c5f427e67a21ull},
    {"pointnet_msg/paper/test", 0x99d3e73414fb6ec5ull},
    {"pointnet_msg/quick/table2", 0xb080a9380d237949ull},
    {"pointnet_msg/quick/test", 0x665985f58b417625ull},
    {"pointnet_ssg/full/table2", 0xed786f74838bff69ull},
    {"pointnet_ssg/full/test", 0xee189741ea5377cdull},
    {"pointnet_ssg/paper/table2", 0xfe4391157f569da1ull},
    {"pointnet_ssg/paper/test", 0xabbbbdd07622a48dull},
    {"pointnet_ssg/quick/table2", 0xed786f74838bff69ull},
    {"pointnet_ssg/quick/test", 0x31b8e20e371f3fb5ull},
    {"stencil1d/full/table2", 0x69bee31c4df20636ull},
    {"stencil1d/full/test", 0xa35c7f5c43808da5ull},
    {"stencil1d/paper/table2", 0xaf270518762215ddull},
    {"stencil1d/paper/test", 0xf86c769b14eed46dull},
    {"stencil1d/quick/table2", 0xaf530cb18715bd59ull},
    {"stencil1d/quick/test", 0xaf530cb18715bd59ull},
    {"stencil2d/full/table2", 0x944296c9bfa38504ull},
    {"stencil2d/full/test", 0x2dbf95e9352c1ac4ull},
    {"stencil2d/paper/table2", 0x26b42dca115ddf88ull},
    {"stencil2d/paper/test", 0x7eee513ccb896648ull},
    {"stencil2d/quick/table2", 0x026347efaf63b9eaull},
    {"stencil2d/quick/test", 0x026347efaf63b9eaull},
    {"stencil3d/full/table2", 0xf05776f81ac680bbull},
    {"stencil3d/full/test", 0xb83cfd95eec0c8ddull},
    {"stencil3d/paper/table2", 0x7180a7d742a2affcull},
    {"stencil3d/paper/test", 0xc570ffe7dc512b03ull},
    {"stencil3d/quick/table2", 0x0f5a5367b68fc16aull},
    {"stencil3d/quick/test", 0x0f5a5367b68fc16aull},
    {"vec_add/full/table2", 0x151943e1c0dc9175ull},
    {"vec_add/full/test", 0x75fed9349e091015ull},
    {"vec_add/paper/table2", 0x4724459005481725ull},
    {"vec_add/paper/test", 0x18b4b866f146b9d5ull},
    {"vec_add/quick/table2", 0xe0390c1f45db7165ull},
    {"vec_add/quick/test", 0xe0390c1f45db7165ull},
};

TEST(LoweredProgram, DigestsArePinned)
{
    std::map<std::string, std::uint64_t> got;
    unsigned programs = 0;
    const std::pair<const char *, SystemConfig> machines[] = {
        {"test", testSystemConfig()}, {"table2", defaultSystemConfig()}};
    for (const BenchScenario &sc : benchRegistry()) {
        unsigned scenario_programs = 0;
        for (const auto &[size, make] :
             {std::pair{"quick", sc.quick}, std::pair{"full", sc.full},
              std::pair{"paper", sc.paper}}) {
            const Workload w = make();
            for (const auto &[machine, cfg] : machines) {
                unsigned n = 0;
                const std::uint64_t h = workloadDigest(w, cfg, n);
                if (n > 0)
                    got[std::string(sc.name) + "/" + size + "/" + machine] = h;
                scenario_programs += n;
            }
        }
        EXPECT_GT(scenario_programs, 0u) << sc.name << " lowers nothing";
        programs += scenario_programs;
    }
    const Workload gauss = makeGaussElim(2048);
    for (std::uint64_t iter : {0, 1, 255, 256, 1023, 2046}) {
        got["gauss_elim_2048/k" + std::to_string(iter)] =
            gaussDigest(gauss, defaultSystemConfig(), iter);
    }
    EXPECT_GT(programs, 0u);

    std::string table;
    for (const auto &[key, h] : got) {
        char line[160];
        std::snprintf(line, sizeof line,
                      "    {\"%s\", 0x%016" PRIx64 "ull},\n", key.c_str(),
                      h);
        table += line;
    }
    EXPECT_EQ(got, kPinned) << "recomputed table (" << programs
                            << " scenario programs):\n" << table;
}

} // namespace
} // namespace infs
