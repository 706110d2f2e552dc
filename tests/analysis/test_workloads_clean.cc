/**
 * @file
 * Differential check: every registry scenario, at its quick size,
 * verifies clean at VerifyLevel::Full — each phase's tDFG as built, the
 * e-graph-optimized form, and (through the executor with the verify hook
 * installed) the lowered command streams. A verifier regression that
 * misreads legal JIT output shows up here as a degraded region.
 */

#include <gtest/gtest.h>

#include "analysis/verify_tdfg.hh"
#include "core/executor.hh"
#include "egraph/egraph.hh"
#include "workloads/registry.hh"

namespace infs {
namespace {

TEST(WorkloadsClean, TdfgsVerifyBeforeAndAfterOptimization)
{
    for (const BenchScenario &sc : benchRegistry()) {
        const char *name = sc.name;
        Workload w = sc.quick();
        for (const Phase &p : w.phases) {
            if (!p.buildTdfg)
                continue;
            TdfgGraph g = p.buildTdfg(0);
            VerifyReport rep = verifyTdfg(g);
            EXPECT_TRUE(rep.clean())
                << name << " phase '" << p.name << "': " << rep.str();

            // tryOptimize re-verifies every extracted graph internally
            // (checkTdfg); an error here means a rewrite
            // or extraction produced an unsound graph.
            TdfgOptimizer opt;
            Expected<ExtractionResult> res = opt.tryOptimize(g);
            ASSERT_TRUE(res.ok())
                << name << " phase '" << p.name
                << "': " << res.error().str();
            VerifyReport rep2 = verifyTdfg(res->graph);
            EXPECT_TRUE(rep2.clean())
                << name << " phase '" << p.name
                << "' optimized: " << rep2.str();
        }
    }
}

TEST(WorkloadsClean, ExecutorAtFullVerifyDegradesNothing)
{
    // testSystemConfig() runs at VerifyLevel::Full: the verify hook vets
    // every lowered program. Any false positive degrades the region.
    for (const BenchScenario &sc : benchRegistry()) {
        InfinitySystem sys(testSystemConfig());
        Executor exec(sys, Paradigm::InfS);
        ExecStats st = exec.run(sc.quick());
        EXPECT_EQ(st.regionsDegraded, 0u) << sc.name;
        EXPECT_GT(st.cycles, 0u) << sc.name;
    }
}

} // namespace
} // namespace infs
