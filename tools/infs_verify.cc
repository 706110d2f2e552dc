/**
 * @file
 * infs-verify: run the static-analysis suite (DESIGN.md §9) over the seed
 * workloads from the command line. Level `graphs` verifies every phase's
 * tDFG as built and again after e-graph optimization; level `full`
 * additionally lowers each tDFG exactly as the executor would and runs
 * the command hazard analyzer over the result.
 *
 * Exit status: 0 all requested subjects verify clean, 1 diagnostics were
 * reported, 2 usage error (unknown workload names fail upfront, before
 * anything runs).
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/verify_cmds.hh"
#include "analysis/verify_tdfg.hh"
#include "core/executor.hh"
#include "core/plan.hh"
#include "egraph/egraph.hh"
#include "jit/cmdopt.hh"
#include "jit/jit.hh"
#include "mem/address_map.hh"
#include "workloads/registry.hh"

namespace {

using namespace infs;

/**
 * Verify one workload: every tDFG phase, its optimized form, and (at
 * Full) the lowered command stream under the layout the executor would
 * choose. Returns the number of diagnostics reported.
 */
std::size_t
verifyWorkload(const Workload &w, VerifyLevel level, bool verbose,
               bool check_cmdopt)
{
    SystemConfig cfg = testSystemConfig();
    cfg.verifyLevel = level;
    // Lower the raw stream here; the command optimizer's output is
    // verified explicitly below so any diagnostic it introduces is
    // attributed to the optimizer, not to lowering.
    cfg.cmdOpt = false;
    std::size_t n_diags = 0;
    auto report = [&](const VerifyReport &rep, const std::string &subject) {
        if (rep.clean()) {
            if (verbose)
                std::printf("  %s: clean\n", subject.c_str());
            return;
        }
        n_diags += rep.size();
        std::printf("  %s\n", rep.str().c_str());
    };

    // Lower each phase on the layout the executor's plan gives it (§4.1).
    RegionPlan plan = planRegion(w, cfg, /*jit_enabled=*/true);
    AddressMap map(cfg.l3, cfg.noc.memCtrls);
    JitCompiler jit(cfg);
    bool have_tdfg = false;
    for (const PhasePlan &pp : plan.phases) {
        if (!pp.g0)
            continue;
        have_tdfg = true;
        const Phase &p = *pp.phase;
        const TdfgGraph &g0 = *pp.g0;
        report(verifyTdfg(g0), "tdfg '" + g0.name() + "'");

        // After e-graph optimization the extracted graph must still
        // verify (tryOptimize re-checks internally; surface its report).
        TdfgOptimizer opt;
        Expected<ExtractionResult> opt_res = opt.tryOptimize(g0);
        if (!opt_res) {
            ++n_diags;
            std::printf("  tdfg '%s' optimized: %s\n", g0.name().c_str(),
                        opt_res.error().str().c_str());
        } else {
            report(verifyTdfg(opt_res->graph),
                   "tdfg '" + opt_res->graph.name() + "'");
        }

        if (level != VerifyLevel::Full)
            continue;
        const TiledLayout *use_layout = plan.layoutOf(pp);
        if (use_layout == nullptr) {
            if (verbose)
                std::printf("  phase '%s': no in-memory layout; the "
                            "executor would not lower it\n",
                            p.name.c_str());
            continue;
        }
        auto prog_or = jit.tryLower(g0, *use_layout, map);
        if (!prog_or) {
            // A lowering refusal degrades at runtime; it is not a
            // hazard, so report it only for visibility.
            if (verbose)
                std::printf("  phase '%s': not lowerable (%s)\n",
                            p.name.c_str(),
                            prog_or.error().str().c_str());
            continue;
        }
        report(verifyCommands(**prog_or, *use_layout, map, cfg),
               "phase '" + p.name + "' commands");

        // The optimizer must preserve hazard-freedom: rerun the full
        // analyzer over the optimized form of the same stream.
        if (check_cmdopt) {
            InMemProgram opt_prog = **prog_or;
            optimizeCommands(opt_prog, *use_layout, map, cfg);
            report(verifyCommands(opt_prog, *use_layout, map, cfg),
                   "phase '" + p.name + "' optimized commands");
        }
    }
    if (!have_tdfg && verbose)
        std::printf("  no tensor phases; nothing to verify\n");
    return n_diags;
}

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--list] [--level=graphs|full] [--no-cmdopt]\n"
        "       [--verbose] [--all | workload...]\n"
        "Verify seed workloads with the static-analysis suite "
        "(DESIGN.md §9).\n"
        "At level full each lowered stream is verified twice: raw, and "
        "again after\n"
        "  the command optimizer (DESIGN.md §13); --no-cmdopt skips the "
        "second pass.\n",
        argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    VerifyLevel level = VerifyLevel::Full;
    bool verbose = false;
    bool all = false;
    bool check_cmdopt = true;
    std::vector<std::string> names;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--list") {
            for (const BenchScenario &sc : benchRegistry())
                std::printf("%s\n", sc.name);
            return 0;
        } else if (arg == "--level=graphs") {
            level = VerifyLevel::Graphs;
        } else if (arg == "--level=full") {
            level = VerifyLevel::Full;
        } else if (arg == "--no-cmdopt") {
            check_cmdopt = false;
        } else if (arg == "--verbose" || arg == "-v") {
            verbose = true;
        } else if (arg == "--all") {
            all = true;
        } else if (arg.rfind("-", 0) == 0) {
            return usage(argv[0]);
        } else {
            names.push_back(arg);
        }
    }
    if (!all && names.empty())
        return usage(argv[0]);

    // Fail loudly BEFORE verifying anything: a typo'd name must not
    // silently verify a subset.
    for (const std::string &name : names) {
        if (findScenario(name) == nullptr) {
            std::fprintf(stderr,
                         "unknown workload '%s'; --list shows the "
                         "registry\n",
                         name.c_str());
            return usage(argv[0]);
        }
    }

    std::size_t total = 0;
    std::size_t run = 0;
    for (const BenchScenario &sc : benchRegistry()) {
        const bool wanted =
            all || std::find(names.begin(), names.end(), sc.name) !=
                       names.end();
        if (!wanted)
            continue;
        ++run;
        std::printf("%s:\n", sc.name);
        Workload w = sc.quick();
        std::size_t n = verifyWorkload(w, level, verbose, check_cmdopt);
        std::printf("  %zu diagnostic%s\n", n, n == 1 ? "" : "s");
        total += n;
    }
    std::printf("%s: %zu diagnostic%s across %zu workload%s\n",
                verifyLevelName(level), total, total == 1 ? "" : "s", run,
                run == 1 ? "" : "s");
    return total == 0 ? 0 : 1;
}
