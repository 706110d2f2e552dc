/**
 * @file
 * One lowering runs on the calling thread whatever pool the JitCompiler
 * holds; the pool only fans out across whole lowerings — memoized regions,
 * gauss_elim's per-iteration blocks, fat-binary candidates (DESIGN.md
 * §10). These tests pin both halves: every registry job's primary-layout
 * graph, plus one paper-size gauss_elim iteration, lowers to the same
 * program with no pool, with a 4-thread pool, and as concurrent tryLower
 * calls from pool tasks, and concurrent lookups of the memo cache
 * serve those same programs. The fat-binary candidate fan-out gets the
 * same pool-independence check, and the memo's contract (one entry per
 * key and schedule, no entry for an empty key or a failed lowering)
 * is pinned under concurrent callers.
 */

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/plan.hh"
#include "jit/jit.hh"
#include "mem/address_map.hh"
#include "sim/thread_pool.hh"
#include "workloads/registry.hh"
#include "workloads/workloads.hh"

namespace infs {
namespace {

using ProgOr = Expected<std::shared_ptr<const InMemProgram>>;

struct Case {
    std::string name;
    TdfgGraph g;
    TiledLayout layout;
};

/** Every primary-layout graph of the registry's full() jobs (iteration
 * 0) plus iteration 1023 of gauss_elim(2048), each on its workload's
 * primary layout. */
const std::vector<Case> &
cases()
{
    static const std::vector<Case> all = [] {
        const SystemConfig cfg = testSystemConfig();
        std::vector<Case> out;
        auto add = [&](const std::string &name, const Workload &w,
                       std::uint64_t iter) {
            RegionPlan plan = planRegion(w, cfg, /*jit_enabled=*/true);
            for (const PhasePlan &pp : plan.phases) {
                if (pp.onPrimary)
                    out.push_back({name + "/" + pp.phase->name,
                                   pp.phase->buildTdfg(iter), *plan.layout});
            }
        };
        for (const BenchScenario &sc : benchRegistry())
            add(sc.name, sc.full(), 0);
        add("gauss_elim_2048", makeGaussElim(2048), 1023);
        return out;
    }();
    return all;
}

/** Lower every case on @p jit under its own memo key — in order on the
 * calling thread, or as one concurrent task each on @p tasks_on. */
std::vector<ProgOr>
lowerAll(JitCompiler &jit, ThreadPool *tasks_on = nullptr)
{
    const SystemConfig cfg = testSystemConfig();
    AddressMap map(cfg.l3, cfg.noc.memCtrls);
    const std::vector<Case> &cs = cases();
    std::vector<std::optional<ProgOr>> out(cs.size());
    auto one = [&](std::size_t i) {
        out[i] = jit.tryLower(cs[i].g, cs[i].layout, map,
                              "case" + std::to_string(i));
    };
    if (tasks_on == nullptr) {
        for (std::size_t i = 0; i < cs.size(); ++i)
            one(i);
    } else {
        std::vector<std::function<void()>> tasks;
        for (std::size_t i = 0; i < cs.size(); ++i)
            tasks.push_back([&one, i] { one(i); });
        tasks_on->runTasks(std::move(tasks));
    }
    std::vector<ProgOr> res;
    for (auto &o : out)
        res.push_back(std::move(*o));
    return res;
}

/** Same commands (every field), slots, counts and optimizer work;
 * @p memo_copy expects @p b to be the cached copy of @p a. */
void
expectSameProgram(const ProgOr &a, const ProgOr &b, const std::string &what,
                  bool memo_copy = false)
{
    ASSERT_EQ(a.ok(), b.ok()) << what;
    if (!a.ok()) {
        EXPECT_EQ(a.error().str(), b.error().str()) << what;
        return;
    }
    const InMemProgram &pa = **a;
    const InMemProgram &pb = **b;
    ASSERT_EQ(pa.commands.size(), pb.commands.size()) << what;
    for (std::size_t i = 0; i < pa.commands.size(); ++i) {
        ASSERT_TRUE(pa.commands[i] == pb.commands[i])
            << what << " command " << i << ": " << pa.commands[i].str()
            << " vs " << pb.commands[i].str();
    }
    EXPECT_EQ(pa.arraySlots, pb.arraySlots) << what;
    EXPECT_EQ(pa.outputSlots, pb.outputSlots) << what;
    EXPECT_EQ(pa.numIntraShift, pb.numIntraShift) << what;
    EXPECT_EQ(pa.numInterShift, pb.numInterShift) << what;
    EXPECT_EQ(pa.numCompute, pb.numCompute) << what;
    EXPECT_EQ(pa.numBroadcast, pb.numBroadcast) << what;
    EXPECT_EQ(pa.numSync, pb.numSync) << what;
    EXPECT_TRUE(pa.opt == pb.opt) << what;
    EXPECT_EQ(pb.jitTicks, memo_copy ? 0 : pa.jitTicks) << what;
    EXPECT_EQ(pb.memoized, memo_copy) << what;
}

void
expectSameStats(const JitStats &a, const JitStats &b, const char *what)
{
    EXPECT_EQ(a.lowerings, b.lowerings) << what;
    EXPECT_EQ(a.memoHits, b.memoHits) << what;
    EXPECT_EQ(a.totalJitTicks, b.totalJitTicks) << what;
    EXPECT_TRUE(a.cmd == b.cmd) << what;
}

TEST(JitThreads, LoweringIndependentOfPool)
{
    const SystemConfig cfg = testSystemConfig();
    ThreadPool pool(4);

    JitCompiler inline_jit(cfg);
    std::vector<ProgOr> ref = lowerAll(inline_jit);

    JitCompiler pooled_jit(cfg);
    pooled_jit.setThreadPool(&pool);
    std::vector<ProgOr> pooled = lowerAll(pooled_jit);

    JitCompiler concurrent_jit(cfg);
    concurrent_jit.setThreadPool(&pool);
    std::vector<ProgOr> concurrent = lowerAll(concurrent_jit, &pool);

    const std::vector<Case> &cs = cases();
    unsigned lowered = 0;
    for (std::size_t i = 0; i < cs.size(); ++i) {
        expectSameProgram(ref[i], pooled[i], cs[i].name + " (pool)");
        expectSameProgram(ref[i], concurrent[i],
                          cs[i].name + " (concurrent)");
        lowered += ref[i].ok() ? 1 : 0;
    }
    // Only conv3d's out-of-extent mv fails (and must fail identically);
    // the paper-size gauss_elim iteration lowers.
    EXPECT_GE(lowered + 1, cs.size());
    EXPECT_TRUE(ref.back().ok()) << ref.back().error().str();
    EXPECT_EQ(inline_jit.stats().lowerings, lowered);
    expectSameStats(inline_jit.stats(), pooled_jit.stats(), "pool");
    expectSameStats(inline_jit.stats(), concurrent_jit.stats(),
                    "concurrent");
}

TEST(JitThreads, ConcurrentMemoHitsServeTheLoweredPrograms)
{
    const SystemConfig cfg = testSystemConfig();
    ThreadPool pool(4);
    JitCompiler jit(cfg);
    jit.setThreadPool(&pool);
    std::vector<ProgOr> cold = lowerAll(jit, &pool);
    const JitStats after_cold = jit.stats();
    std::vector<ProgOr> warm = lowerAll(jit, &pool);

    const std::vector<Case> &cs = cases();
    for (std::size_t i = 0; i < cs.size(); ++i)
        expectSameProgram(cold[i], warm[i], cs[i].name, cold[i].ok());
    EXPECT_EQ(jit.stats().lowerings, after_cold.lowerings);
    EXPECT_EQ(jit.stats().memoHits, after_cold.lowerings);
}

/** The case named @p prefix + "/..." (first match). */
const Case &
caseNamed(const std::string &prefix)
{
    for (const Case &c : cases())
        if (c.name.rfind(prefix + "/", 0) == 0)
            return c;
    ADD_FAILURE() << "no case " << prefix;
    return cases().front();
}

/** Fat-binary candidate layouts of a few registry scenarios' first
 * primary-layout graph, as the executor enumerates them. */
struct CandidateCase {
    std::string name;
    TdfgGraph g;
    std::vector<TiledLayout> layouts;
};

std::vector<CandidateCase>
candidateCases()
{
    const SystemConfig cfg = testSystemConfig();
    TilingPolicy policy(cfg.l3);
    std::vector<CandidateCase> out;
    for (const char *name :
         {"vec_add", "array_sum", "mm_outer", "dwt2d", "stencil2d"}) {
        const BenchScenario *sc = findScenario(name);
        if (sc == nullptr) {
            ADD_FAILURE() << "no scenario " << name;
            continue;
        }
        const Case &c = caseNamed(name);
        const Workload w = sc->full();
        CandidateCase cc{name, c.g, {}};
        for (TileDecision &d :
             policy.candidates(w.primaryShape, w.elemBytes,
                               LayoutHints::fromGraph(c.g), 4))
            cc.layouts.emplace_back(w.primaryShape, d.tile);
        out.push_back(std::move(cc));
    }
    return out;
}

TEST(JitThreads, CandidatesIndependentOfPool)
{
    const SystemConfig cfg = testSystemConfig();
    AddressMap map(cfg.l3, cfg.noc.memCtrls);
    ThreadPool pool(4);
    JitCompiler inline_jit(cfg);
    JitCompiler pooled_jit(cfg);
    pooled_jit.setThreadPool(&pool);
    unsigned multi = 0;
    for (const CandidateCase &cc : candidateCases()) {
        auto ref = inline_jit.lowerCandidates(cc.g, cc.layouts, map,
                                              cc.name);
        auto pooled = pooled_jit.lowerCandidates(cc.g, cc.layouts, map,
                                                 cc.name);
        ASSERT_EQ(ref.size(), cc.layouts.size()) << cc.name;
        ASSERT_EQ(pooled.size(), cc.layouts.size()) << cc.name;
        unsigned lowered = 0;
        for (std::size_t i = 0; i < ref.size(); ++i) {
            expectSameProgram(ref[i], pooled[i],
                              cc.name + " candidate " + std::to_string(i));
            lowered += ref[i].ok() ? 1 : 0;
        }
        multi += lowered > 1 ? 1 : 0;
    }
    // Vacuous unless some scenario fanned out over several schedules.
    EXPECT_GE(multi, 1u);
    expectSameStats(inline_jit.stats(), pooled_jit.stats(), "candidates");
}

TEST(JitThreads, CandidatesMemoizePerSchedule)
{
    const SystemConfig cfg = testSystemConfig();
    AddressMap map(cfg.l3, cfg.noc.memCtrls);
    ThreadPool pool(4);
    JitCompiler jit(cfg);
    jit.setThreadPool(&pool);
    for (const CandidateCase &cc : candidateCases()) {
        jit.resetStats();
        auto cold = jit.lowerCandidates(cc.g, cc.layouts, map, cc.name);
        std::uint64_t ok = 0;
        for (const ProgOr &p : cold)
            ok += p.ok() ? 1 : 0;
        // One memo entry per schedule: no candidate is served another
        // candidate's program.
        EXPECT_EQ(jit.stats().lowerings, ok) << cc.name;
        EXPECT_EQ(jit.stats().memoHits, 0u) << cc.name;
        auto warm = jit.lowerCandidates(cc.g, cc.layouts, map, cc.name);
        ASSERT_EQ(warm.size(), cold.size()) << cc.name;
        for (std::size_t i = 0; i < cold.size(); ++i)
            expectSameProgram(cold[i], warm[i],
                              cc.name + " candidate " + std::to_string(i),
                              cold[i].ok());
        EXPECT_EQ(jit.stats().lowerings, ok) << cc.name;
        EXPECT_EQ(jit.stats().memoHits, ok) << cc.name;
    }
}

TEST(JitThreads, ConcurrentSameKeyServesOneProgram)
{
    // Concurrent pre-lowerings of one region race on a single memo key;
    // whichever wins, every caller gets the same program and a later
    // caller gets the cached copy.
    constexpr unsigned kCallers = 16;
    const SystemConfig cfg = testSystemConfig();
    AddressMap map(cfg.l3, cfg.noc.memCtrls);
    const Case &gauss = cases().back();
    JitCompiler ref_jit(cfg);
    const ProgOr ref = ref_jit.tryLower(gauss.g, gauss.layout, map);
    ASSERT_TRUE(ref.ok()) << ref.error().str();

    ThreadPool pool(4);
    JitCompiler jit(cfg);
    jit.setThreadPool(&pool);
    std::vector<std::optional<ProgOr>> got(kCallers);
    std::vector<std::function<void()>> tasks;
    for (unsigned i = 0; i < kCallers; ++i)
        tasks.push_back([&, i] {
            got[i] = jit.tryLower(gauss.g, gauss.layout, map, "gauss");
        });
    pool.runTasks(std::move(tasks));

    for (unsigned i = 0; i < kCallers; ++i) {
        ASSERT_TRUE(got[i]->ok()) << got[i]->error().str();
        expectSameProgram(ref, *got[i], "caller " + std::to_string(i),
                          (**got[i])->memoized);
    }
    const JitStats st = jit.stats();
    EXPECT_GE(st.lowerings, 1u);
    EXPECT_EQ(st.lowerings + st.memoHits, kCallers);
    EXPECT_EQ(st.totalJitTicks, st.lowerings * (*ref)->jitTicks);
    expectSameProgram(ref, jit.tryLower(gauss.g, gauss.layout, map, "gauss"),
                      "after the race", true);
}

TEST(JitThreads, EmptyMemoKeyNeverCaches)
{
    // gauss_elim's per-iteration lowerings pass no key: each one is a
    // cold lowering charged in full.
    const SystemConfig cfg = testSystemConfig();
    AddressMap map(cfg.l3, cfg.noc.memCtrls);
    const Case &gauss = cases().back();
    JitCompiler jit(cfg);
    const ProgOr first = jit.tryLower(gauss.g, gauss.layout, map);
    const ProgOr second = jit.tryLower(gauss.g, gauss.layout, map);
    ASSERT_TRUE(first.ok()) << first.error().str();
    expectSameProgram(first, second, "second lowering");
    EXPECT_GT((*first)->jitTicks, 0u);
    EXPECT_EQ(jit.stats().lowerings, 2u);
    EXPECT_EQ(jit.stats().memoHits, 0u);
    EXPECT_EQ(jit.stats().totalJitTicks, 2 * (*first)->jitTicks);
}

TEST(JitThreads, ResetStatsKeepsTheMemo)
{
    const SystemConfig cfg = testSystemConfig();
    AddressMap map(cfg.l3, cfg.noc.memCtrls);
    const Case &gauss = cases().back();
    JitCompiler jit(cfg);
    const ProgOr cold = jit.tryLower(gauss.g, gauss.layout, map, "gauss");
    ASSERT_TRUE(cold.ok()) << cold.error().str();
    jit.resetStats();
    expectSameStats(jit.stats(), JitStats{}, "reset");
    expectSameProgram(cold, jit.tryLower(gauss.g, gauss.layout, map, "gauss"),
                      "after reset", true);
    EXPECT_EQ(jit.stats().lowerings, 0u);
    EXPECT_EQ(jit.stats().memoHits, 1u);
    EXPECT_EQ(jit.stats().totalJitTicks, 0u);
}

TEST(JitThreads, FailedLoweringIsNotMemoized)
{
    // conv3d's out-of-extent mv fails; a keyed retry must lower (and
    // fail) again rather than be served a cached entry.
    const SystemConfig cfg = testSystemConfig();
    AddressMap map(cfg.l3, cfg.noc.memCtrls);
    const Case &conv3d = caseNamed("conv3d");
    JitCompiler jit(cfg);
    const ProgOr first = jit.tryLower(conv3d.g, conv3d.layout, map, "conv3d");
    ASSERT_FALSE(first.ok());
    const ProgOr second =
        jit.tryLower(conv3d.g, conv3d.layout, map, "conv3d");
    expectSameProgram(first, second, "retry");
    EXPECT_EQ(jit.stats().lowerings, 0u);
    EXPECT_EQ(jit.stats().memoHits, 0u);
}

} // namespace
} // namespace infs
