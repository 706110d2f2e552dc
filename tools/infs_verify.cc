/**
 * @file
 * infs-verify: run the static-analysis suite (DESIGN.md §9) over the seed
 * workloads from the command line. Level `graphs` verifies every phase's
 * tDFG as built and again after e-graph optimization; level `full`
 * additionally lowers each tDFG exactly as the executor would and runs
 * the command hazard analyzer over the result.
 *
 * With --backend=NAME the tool also executes each workload's primary
 * lowered job on the selected execution backend (DESIGN.md §12) and
 * prints its checksum and replay cycles — a quick dynamic cross-check on
 * top of the static analyses.
 *
 * Exit status: 0 all requested subjects verify clean, 1 diagnostics were
 * reported, 2 usage error (unknown workload or backend names fail
 * upfront, before anything runs).
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/verify_cmds.hh"
#include "analysis/verify_tdfg.hh"
#include "core/backend.hh"
#include "core/executor.hh"
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

    // Replicate the executor's layout choice (§4.1): hints from every
    // tensor phase, one primary layout for the region.
    LayoutHints hints;
    bool have_tdfg = false;
    for (const Phase &p : w.phases) {
        if (!p.buildTdfg)
            continue;
        LayoutHints h = LayoutHints::fromGraph(p.buildTdfg(0));
        hints.shiftDims.insert(h.shiftDims.begin(), h.shiftDims.end());
        hints.broadcastDims.insert(h.broadcastDims.begin(),
                                   h.broadcastDims.end());
        if (h.reduceDim)
            hints.reduceDim = h.reduceDim;
        have_tdfg = true;
    }
    if (!have_tdfg) {
        if (verbose)
            std::printf("  no tensor phases; nothing to verify\n");
        return 0;
    }
    TilingPolicy policy(cfg.l3);
    TileDecision tile = policy.choose(w.primaryShape, w.elemBytes, hints);
    TiledLayout layout;
    bool have_layout = false;
    if (tile.valid) {
        if (auto made = TiledLayout::make(w.primaryShape, tile.tile)) {
            layout = std::move(*made);
            have_layout = true;
        }
    }

    AddressMap map(cfg.l3, cfg.noc.memCtrls);
    JitCompiler jit(cfg);
    for (const Phase &p : w.phases) {
        if (!p.buildTdfg)
            continue;
        TdfgGraph g0 = p.buildTdfg(0);
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

        // Phase-local layout exactly as the executor resolves it.
        const TiledLayout *use_layout = have_layout ? &layout : nullptr;
        TiledLayout phase_layout;
        if (!p.latticeShape.empty() || g0.dims() != layout.dims()) {
            std::vector<Coord> shape =
                p.latticeShape.empty() ? w.primaryShape : p.latticeShape;
            TileDecision td;
            if (shape.size() == g0.dims())
                td = policy.choose(shape, w.elemBytes,
                                   LayoutHints::fromGraph(g0));
            use_layout = nullptr;
            if (td.valid) {
                if (auto made = TiledLayout::make(shape, td.tile)) {
                    phase_layout = std::move(*made);
                    use_layout = &phase_layout;
                }
            }
        }
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
    return n_diags;
}

/** Cap matching infs-bench: backends skip outsized job passes. */
constexpr std::int64_t kJobVolumeCap = 1 << 18;

/**
 * Execute the workload's primary lowered job on @p backend and print the
 * result. Purely informational (checksums are pinned by the differential
 * tests, not here); returns no diagnostics.
 */
void
runBackendPass(const Workload &w, ExecBackendKind backend)
{
    SystemConfig cfg = testSystemConfig();
    cfg.backend = backend;
    auto job = planPrimaryJob(w, cfg, kJobVolumeCap);
    if (!job) {
        std::printf("  backend %s: no lowerable primary job\n",
                    backendName(backend));
        return;
    }
    BackendResult r = makeBackend(backend, cfg)->runJob(*job);
    std::printf("  backend %s: checksum 0x%016llx%s", backendName(backend),
                static_cast<unsigned long long>(r.checksum),
                r.bitAccurate ? " (bit-accurate)" : "");
    if (!r.fallback.empty())
        std::printf("  fell back to the bit fabric: %s", r.fallback.c_str());
    if (r.hasTiming)
        std::printf("  cycles %llu",
                    static_cast<unsigned long long>(r.simCycles));
    std::printf("\n");
}

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--list] [--level=graphs|full] "
        "[--backend=fabric|functional|timing]\n"
        "       [--no-cmdopt] [--verbose] [--all | workload...]\n"
        "Verify seed workloads with the static-analysis suite "
        "(DESIGN.md §9).\n"
        "At level full each lowered stream is verified twice: raw, and "
        "again after\n"
        "  the command optimizer (DESIGN.md §13); --no-cmdopt skips the "
        "second pass.\n"
        "--backend additionally executes each workload's primary lowered "
        "job on\n"
        "  the named execution backend and prints its checksum/cycles.\n",
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
    bool run_backend = false;
    ExecBackendKind backend = ExecBackendKind::Fabric;
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
        } else if (arg.rfind("--backend=", 0) == 0) {
            const std::string name = arg.substr(10);
            if (!parseBackendName(name, backend)) {
                std::fprintf(stderr, "unknown backend '%s'\n",
                             name.c_str());
                return usage(argv[0]);
            }
            run_backend = true;
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
        if (run_backend)
            runBackendPass(w, backend);
        std::printf("  %zu diagnostic%s\n", n, n == 1 ? "" : "s");
        total += n;
    }
    std::printf("%s: %zu diagnostic%s across %zu workload%s\n",
                verifyLevelName(level), total, total == 1 ? "" : "s", run,
                run == 1 ? "" : "s");
    return total == 0 ? 0 : 1;
}
