/**
 * @file
 * infs-bench: one CLI driving the seed-workload registry through the
 * timing executor and a selectable execution backend, emitting one JSON
 * schema (infs-bench-v6) for CI regression gating (scripts/bench_diff.py).
 *
 * Every mode writes the same row: `name` (workload@paradigm[/variant]),
 * `wall_ms`, the ExecStats fields the figures read (sim_cycles, Fig 14
 * cycle categories, NoC classes and utilization, energy, ops, degraded
 * regions, tile, fat-binary pick, phase cycles) and the JIT counters.
 * `--quick` and `--full` run each scenario under Inf-S on
 * testSystemConfig() and add the job block of the per-scenario backend
 * pass: `checksum` (FNV-1a over the job output bit patterns),
 * `job_sim_cycles`, `commands`, `cmd_stats` and `fabric_breakdown`.
 * `--ablate` adds one row per optimization-stack variant,
 * `workload@Inf-S/<variant>`.
 *
 * `--paper` instead runs every paper-tier configuration once on
 * defaultSystemConfig() (mode "paper"): one row per workload x paradigm x
 * variant, plus a top-level `machine` object (Table 2 summary, Eq. 1, §8
 * area). scripts/figures.py renders every paper figure from that file.
 *
 * Every field but wall_ms is identical for any --threads value
 * (DESIGN.md §10). The functional backend's checksums are byte-identical
 * to the fabric's (DESIGN.md §12), so per-PR CI runs it for speed while
 * nightly re-runs the fabric.
 *
 * Exit status: 0 success, 2 usage error (unknown scenario or backend
 * names, and --threads/--repeat values that are not a count from 0 to
 * kMaxCount, fail upfront, before anything runs).
 */

#include <algorithm>
#include <bit>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/backend.hh"
#include "core/executor.hh"
#include "egraph/egraph.hh"
#include "uarch/system.hh"
#include "workloads/registry.hh"
#include "workloads/workloads.hh"

namespace {

using namespace infs;

/**
 * Optimization-stack switches for one measurement (the `--ablate`
 * harness, DESIGN.md §13). The defaults mirror production: command
 * optimizer on, memoization on, and the e-graph run only where a
 * workload compiles with it (conv2d optimizes its graph when it is made;
 * floating-point reassociation changes bits, so no other workload does).
 * `egraph` runs the optimizer over every built graph, so under it
 * conv2d's already optimized graph is optimized again.
 */
struct Knobs {
    bool cmdOpt = true;      ///< SystemConfig::cmdOpt.
    bool syncElision = true; ///< SystemConfig::cmdOptSyncElision.
    bool memo = true;        ///< Phase::sameTdfgEachIter left as authored.
    bool egraph = false;     ///< TdfgOptimizer on every built graph.
};

/** The per-scenario backend job pass of a --quick/--full row. */
struct JobBlock {
    std::uint64_t checksum = 0;
    /** Command-level cycle replay of the job (0 = no job). */
    std::uint64_t simCycles = 0;
    /** Job command count after the command optimizer. */
    unsigned commands = 0;
    /** Command-optimizer counters: the executor run's plus the job's. */
    CmdStats cmd;
    /** Per-command-kind breakdown (all zero off the fabric). */
    FabricStats fabric;
};

/** One bench row: a workload under one paradigm, with the JIT counters of
 * its system and, in --quick/--full, the job block. */
struct Row {
    /** workload@paradigm, plus "/tile=AxB..", "/memo_off" or another
     * ablation variant when the run departs from the workload as
     * authored. */
    std::string name;
    double wallMs = 0.0; ///< Host time (sweeps: median of the repeats).
    ExecStats st;
    JitStats jit;
    std::optional<JobBlock> job;
};

/**
 * Apply the graph-level knobs to a freshly built workload. The config
 * knobs (cmdOpt, syncElision) apply in benchOne instead.
 */
void
applyKnobs(Workload &w, const Knobs &k)
{
    for (Phase &p : w.phases) {
        if (!k.memo)
            p.sameTdfgEachIter = false; // Defeat memoization: re-lower.
        if (k.egraph && p.buildTdfg) {
            auto build = p.buildTdfg;
            p.buildTdfg = [build](std::uint64_t it) {
                TdfgGraph g = build(it);
                TdfgOptimizer opt;
                if (auto res = opt.tryOptimize(g))
                    return std::move(res->graph);
                return g; // Saturation budget blown: keep the raw graph.
            };
        }
    }
}

/** Lower median of a non-empty sample (deterministic for even sizes). */
double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v[(v.size() - 1) / 2];
}

double
msSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

std::string
rowName(const std::string &workload, Paradigm p, const std::string &variant)
{
    return workload + "@" + paradigmName(p) +
           (variant.empty() ? "" : "/" + variant);
}

/**
 * One full measurement of a scenario under Inf-S: one untimed warmup
 * iteration, then @p repeat timed iterations whose lower median is the
 * row's wall_ms. Simulated quantities and the checksum are identical
 * every iteration by construction — verified here.
 */
Row
benchOne(const BenchScenario &sc, bool quick, unsigned threads,
         unsigned repeat, ExecBackendKind backend,
         const char *variant = "", const Knobs &knobs = {})
{
    // Full runtime behavior: preparation, JIT, Eq. 2 adaptivity all
    // included (assumeTransposed stays at the factory default).
    Workload w = quick ? sc.quick() : sc.full();
    applyKnobs(w, knobs);
    SystemConfig cfg = testSystemConfig();
    cfg.hostThreads = threads;
    cfg.backend = backend;
    cfg.cmdOpt = knobs.cmdOpt;
    cfg.cmdOptSyncElision = knobs.syncElision;

    Row row;
    row.name = rowName(sc.name, Paradigm::InfS, variant);
    JobBlock &jb = row.job.emplace();
    Tick backend_cycles = 0;

    std::vector<double> wallMs;
    for (unsigned r = 0; r <= repeat; ++r) {
        // Fresh system per iteration: persistent state (the JIT memo)
        // must not make later repeats cheaper than the first.
        InfinitySystem sys(cfg);
        auto t0 = std::chrono::steady_clock::now();
        ExecStats st = Executor(sys, Paradigm::InfS).run(w);

        // Per-scenario job pass on the selected backend: the first
        // primary-layout phase lowered and executed on deterministic
        // inputs.
        BackendResult br;
        auto job = planPrimaryJob(w, cfg, kJobVolumeCap);
        if (job)
            br = makeBackend(backend, cfg)->runJob(*job);
        const double wall_ms = msSince(t0);

        if (r == 0) {
            // Warmup: record the deterministic quantities, discard time.
            row.st = std::move(st);
            row.jit = sys.jit().stats();
            backend_cycles = br.simCycles;
            jb.checksum = br.checksum;
            // Command-optimizer observability: the executor run's
            // counters plus the job program's own, and a command-level
            // cycle replay of the job (backend-independent, so the
            // cmdopt effect on the stream is visible even when the
            // executor routes the scenario off the fabric).
            jb.cmd = row.jit.cmd;
            if (job) {
                jb.cmd.accumulate(job->prog->opt);
                jb.commands =
                    static_cast<unsigned>(job->prog->commands.size());
                jb.simCycles = static_cast<std::uint64_t>(
                    replayTiming(cfg, *job, &sys.pool()).simCycles);
            }
            continue;
        }
        if (br.checksum != jb.checksum || st.cycles != row.st.cycles ||
            br.simCycles != backend_cycles) {
            std::fprintf(stderr,
                         "%s: non-deterministic repeat (checksum or "
                         "sim_cycles changed)\n",
                         sc.name);
            std::exit(1);
        }
        wallMs.push_back(wall_ms);
        jb.fabric = br.fabric;
    }
    row.wallMs = median(wallMs);

    if (jb.checksum == 0) {
        // No job pass covered this scenario (near-memory-only result,
        // untileable layout or over the volume cap): hash the executor's
        // functional output arrays instead so every scenario carries a
        // deterministic signal. Untimed — functional mode is not the
        // measured path.
        InfinitySystem sys(cfg);
        ArrayStore store;
        Executor(sys, Paradigm::InfS).run(w, &store);
        std::uint64_t h = 0xcbf29ce484222325ull;
        for (std::size_t id = 0; id < store.size(); ++id)
            for (float v : store.data(static_cast<ArrayId>(id)))
                h = fnv1aWord(h, std::bit_cast<std::uint32_t>(v));
        jb.checksum = h;
    }
    return row;
}

/** One paper-tier run: a workload under one paradigm on the Table 2
 * machine, timed once. */
Row
paperRun(const std::string &workload, const std::string &variant,
         const Workload &w, Paradigm p, unsigned threads)
{
    SystemConfig cfg = defaultSystemConfig();
    cfg.hostThreads = threads;
    InfinitySystem sys(cfg);
    Row r;
    r.name = rowName(workload, p, variant);
    auto t0 = std::chrono::steady_clock::now();
    r.st = Executor(sys, p).run(w);
    r.wallMs = msSince(t0);
    r.jit = sys.jit().stats();
    return r;
}

void
report(const Row &r)
{
    std::printf("%-36s cycles %12llu  wall %8.2f ms\n", r.name.c_str(),
                static_cast<unsigned long long>(r.st.cycles), r.wallMs);
}

/** Every paper-tier configuration, each run once: Table 3 and PointNet++
 * under the five paradigms (Figs 11-15, 18-19, JIT overheads), Fig 2's
 * size sweep, the Fig 16/17 forced-tile sweeps, and stencil2d with JIT
 * memoization off. */
std::vector<Row>
paperRuns(unsigned threads)
{
    const Paradigm five[] = {Paradigm::Base, Paradigm::NearL3,
                             Paradigm::InL3, Paradigm::InfS,
                             Paradigm::InfSNoJit};
    std::vector<Row> rows;
    auto add = [&](Row r) {
        report(r);
        rows.push_back(std::move(r));
    };
    // Each scenario's paper workload is made once per sweep, so its
    // static compile runs once, and every row below reads it.
    std::map<std::string, Workload> papers;
    for (const BenchScenario &sc : benchRegistry()) {
        if (sc.name == std::string("vec_add") ||
            sc.name == std::string("array_sum"))
            continue; // Fig 2's sweep below.
        const Workload &w = papers.emplace(sc.name, sc.paper()).first->second;
        for (Paradigm p : five)
            add(paperRun(sc.name, "", w, p, threads));
    }

    // Fig 2: data cached in L3 and already transposed, per the paper.
    const std::pair<const char *, Workload (*)(Coord)> fig2[] = {
        {"vec_add", makeVecAdd}, {"array_sum", makeArraySum}};
    for (const auto &[name, make] : fig2)
        for (Coord n = 16 << 10; n <= 4 << 20; n *= 4) {
            Workload w = make(n);
            w.assumeTransposed = true;
            const std::string label =
                std::string(name) + "/" + std::to_string(n >> 10) + "k";
            for (Paradigm p : {Paradigm::Base1T, Paradigm::Base,
                               Paradigm::NearL3, Paradigm::InL3})
                add(paperRun(label, "", w, p, threads));
        }

    // Fig 16/17: forced tiles of 256 elements under Inf-S.
    auto forced = [&](const char *name, std::vector<Coord> tile) {
        Workload w = papers.at(name);
        std::string v = "tile=";
        for (std::size_t d = 0; d < tile.size(); ++d) {
            if (d)
                v += 'x';
            v += std::to_string(tile[d]);
        }
        w.forceTile = std::move(tile);
        add(paperRun(name, v, w, Paradigm::InfS, threads));
    };
    for (const char *name : {"stencil2d", "dwt2d", "gauss_elim", "conv2d",
                             "mm_outer", "kmeans_outer", "gather_mlp_outer"})
        for (Coord x = 256; x >= 1; x /= 2)
            forced(name, {x, 256 / x});
    for (const char *name : {"stencil3d", "conv3d"})
        for (Coord x = 256; x >= 1; x /= 4)
            for (Coord y = 1; x * y <= 256; y *= 4)
                forced(name, {x, y, 256 / (x * y)});

    // JIT memoization ablation: re-lower every stencil2d sweep.
    Workload w = papers.at("stencil2d");
    for (Phase &ph : w.phases)
        ph.sameTdfgEachIter = false;
    add(paperRun("stencil2d", "memo_off", w, Paradigm::InfS, threads));
    return rows;
}

/** Write one `"key": value` pair; doubles read back bit-identical. */
void
writeReal(std::FILE *f, const char *key, double v, const char *sep = ", ")
{
    std::fprintf(f, "\"%s\": %.17g%s", key, v, sep);
}

void
writeCount(std::FILE *f, const char *key, std::uint64_t v,
           const char *sep = ", ")
{
    std::fprintf(f, "\"%s\": %llu%s", key,
                 static_cast<unsigned long long>(v), sep);
}

/** The machine facts the paper quotes outside the figures: the Table 2
 * summary, Eq. 1 (analytic and a bit-serial add probe) and §8 area. */
void
writeMachine(std::FILE *f)
{
    const SystemConfig cfg = defaultSystemConfig();
    const LatencyTable lat;
    const double bitlines = double(cfg.l3.totalBitlines());

    // Eq. 1 probe: one fp32 add command across every bitline.
    InfinitySystem sys(cfg);
    const Coord n = static_cast<Coord>(cfg.l3.totalBitlines());
    TdfgGraph g(1, "peak_probe");
    NodeId a = g.tensor(0, HyperRect::interval(0, n));
    NodeId b = g.tensor(1, HyperRect::interval(0, n));
    g.output(g.compute(BitOp::Add, {a, b}), 2);
    TiledLayout lay({n}, {Coord(cfg.l3.bitlines)});
    auto prog = sys.jit().lower(g, lay, sys.map());
    InMemExecResult probe = sys.tensorController().execute(*prog, lay, 0);

    const AreaModel area;
    std::fprintf(f, "  \"machine\": {\n");
    std::fprintf(f, "    \"summary\": \"%s\",\n", cfg.summary().c_str());
    std::fprintf(f, "    ");
    writeReal(f, "ghz", cfg.core.ghz, ",\n    ");
    writeReal(f, "in_mem_peak_ops_per_cycle",
              bitlines / double(lat.opCycles(BitOp::Add, DType::Int32)),
              ",\n    ");
    writeReal(f, "fp32_peak_ops_per_cycle", bitlines / double(lat.fp32Add),
              ",\n    ");
    writeReal(f, "base_peak_ops_per_cycle", cfg.basePeakOpsPerCycle(),
              ",\n    ");
    writeCount(f, "probe_in_mem_ops", probe.inMemOps);
    writeCount(f, "probe_cycles", probe.cycles, ",\n    ");
    writeCount(f, "compute_arrays", cfg.l3.totalComputeArrays(), ",\n    ");
    writeReal(f, "area_baseline_mm2", area.baselineMm2);
    writeReal(f, "area_in_memory_mm2", area.inMemoryMm2);
    writeReal(f, "area_near_memory_mm2", area.nearMemoryMm2, "\n");
    std::fprintf(f, "  },\n");
}

/** The job block of a --quick/--full row, after its ExecStats fields. */
void
writeJob(std::FILE *f, const JobBlock &j)
{
    std::fprintf(f, ",\n     \"checksum\": \"0x%016llx\", ",
                 static_cast<unsigned long long>(j.checksum));
    writeCount(f, "job_sim_cycles", j.simCycles);
    writeCount(f, "commands", j.commands, ",\n     ");
    const CmdStats &c = j.cmd;
    std::fprintf(f, "\"cmd_stats\": {");
    writeCount(f, "fused_moves", c.fusedMoves);
    writeCount(f, "deduped_broadcasts", c.dedupedBroadcasts);
    writeCount(f, "deduped_commands", c.dedupedCommands);
    writeCount(f, "hoisted_masks", c.hoistedMasks);
    writeCount(f, "elided_syncs", c.elidedSyncs);
    writeCount(f, "bailouts", c.bailouts, "},\n     ");
    const FabricStats &fab = j.fabric;
    std::fprintf(f, "\"fabric_breakdown\": {");
    for (std::size_t k = 0; k < fab.byKind.size(); ++k) {
        std::fprintf(f, "\"%s\": {", cmdKindName(static_cast<CmdKind>(k)));
        writeCount(f, "count", fab.byKind[k].count);
        std::fprintf(f, "\"wall_ms\": %.3f}, ", fab.byKind[k].wallMs);
    }
    writeCount(f, "mask_cache_hits", fab.maskCacheHits);
    writeCount(f, "mask_cache_misses", fab.maskCacheMisses);
    writeCount(f, "scratch_allocs", fab.scratchAllocs);
    writeReal(f, "bank_occupancy_imbalance", fab.occupancyImbalance(), "}");
}

/**
 * The bench artifact (schema infs-bench-v6): @p header writes the mode's
 * own top-level fields (the machine for --paper; backend, SIMD table and
 * repeat count for the sweeps), then one row per run.
 */
template <class Header>
void
writeJson(std::FILE *f, const std::vector<Row> &rows, const char *mode,
          unsigned threads, Header header)
{
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"schema\": \"infs-bench-v6\",\n");
    std::fprintf(f, "  \"mode\": \"%s\",\n", mode);
    std::fprintf(f, "  \"threads\": %u,\n", threads);
    header(f);
    std::fprintf(f, "  \"workloads\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        const ExecStats &st = r.st;
        std::fprintf(f, "    {\"name\": \"%s\", ", r.name.c_str());
        writeCount(f, "sim_cycles", st.cycles);
        std::fprintf(f, "\"wall_ms\": %.3f,\n     \"cycles\": {", r.wallMs);
        writeCount(f, "dram", st.dramCycles);
        writeCount(f, "jit", st.jitCycles);
        writeCount(f, "move", st.moveCycles);
        writeCount(f, "compute", st.computeCycles);
        writeCount(f, "final_reduce", st.finalReduceCycles);
        writeCount(f, "mix", st.mixCycles);
        writeCount(f, "near", st.nearMemCycles);
        writeCount(f, "core", st.coreCycles);
        writeCount(f, "sync", st.syncCycles, "},\n     ");
        std::fprintf(f, "\"noc_hop_bytes\": {");
        const auto &hop = st.nocHopBytes;
        writeReal(f, "control", hop[unsigned(TrafficClass::Control)]);
        writeReal(f, "data", hop[unsigned(TrafficClass::Data)]);
        writeReal(f, "offload", hop[unsigned(TrafficClass::Offload)]);
        writeReal(f, "inter_tile", hop[unsigned(TrafficClass::InterTile)],
                  "},\n     ");
        writeReal(f, "noc_utilization", st.nocUtilization);
        writeReal(f, "intra_tile_bytes", st.intraTileBytes);
        writeReal(f, "inter_tile_bytes", st.interTileBytes);
        writeReal(f, "inter_tile_noc_bytes", st.interTileNocBytes,
                  ",\n     ");
        writeReal(f, "energy_j", st.energyJoules);
        writeCount(f, "total_ops", st.totalOps);
        writeCount(f, "in_mem_ops", st.inMemOps);
        writeCount(f, "regions_degraded", st.regionsDegraded, ",\n     ");
        std::fprintf(f, "\"chosen_tile\": [");
        for (std::size_t d = 0; d < st.chosenTile.size(); ++d)
            std::fprintf(f, "%s%lld", d ? ", " : "",
                         static_cast<long long>(st.chosenTile[d]));
        std::fprintf(f, "], \"schedule_id\": %d, ", st.scheduleId);
        writeCount(f, "schedule_candidates", st.scheduleCandidates);
        writeCount(f, "lowerings", r.jit.lowerings);
        writeCount(f, "memo_hits", r.jit.memoHits, ",\n     ");
        std::fprintf(f, "\"phase_cycles\": [");
        for (std::size_t k = 0; k < st.phaseCycles.size(); ++k)
            std::fprintf(f, "%s[\"%s\", %llu]", k ? ", " : "",
                         st.phaseCycles[k].first.c_str(),
                         static_cast<unsigned long long>(
                             st.phaseCycles[k].second));
        std::fprintf(f, "]");
        if (r.job)
            writeJob(f, *r.job);
        std::fprintf(f, "}%s\n", i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
}

/** Largest --threads or --repeat value accepted: above any host's useful
 * parallelism, far below a worker count that would exhaust the host. */
constexpr unsigned kMaxCount = 256;

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--quick|--full] [--backend fabric|functional]\n"
        "       [--threads N] [--repeat N] [--json out.json]\n"
        "       [--ablate] [--list-scenarios] [workload...]\n"
        "       %s --paper [--threads N] [--json out.json]\n"
        "Benchmark the seed workloads; default --quick over the whole "
        "registry.\n"
        "--paper runs every paper-tier configuration once on the Table 2 "
        "machine\n"
        "  for scripts/figures.py; it accepts only --threads and --json.\n"
        "--ablate adds a row per scenario and optimization-stack variant\n"
        "  (workload@Inf-S/cmdopt_off, sync_elision_off, memo_off or\n"
        "  egraph_on).\n"
        "--backend selects the execution backend for the per-scenario job "
        "pass\n"
        "  (default fabric; functional is bit-identical and faster).\n"
        "  Unknown scenario or backend names exit 2 before running.\n"
        "--threads 0 uses all hardware threads; simulated results are "
        "identical for any value.\n"
        "--repeat N (default 3) runs N timed iterations after one "
        "untimed warmup and reports the median wall time.\n"
        "  --threads and --repeat take a count from 0 to %u.\n",
        argv0, argv0, kMaxCount);
    return 2;
}

/** Parse @p text as a decimal count in [0, kMaxCount]. A sign, any other
 * character or a larger value fails. */
bool
parseCount(const char *text, unsigned &out)
{
    const char *end = text + std::strlen(text);
    unsigned value = 0;
    const auto [stop, ec] = std::from_chars(text, end, value);
    if (ec != std::errc() || stop != end || value > kMaxCount)
        return false;
    out = value;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = true;
    bool paper = false;
    bool tuned = false; // Any option --paper does not accept.
    unsigned threads = 0;
    unsigned repeat = 3;
    bool ablate = false;
    ExecBackendKind backend = ExecBackendKind::Fabric;
    std::string json_path;
    std::vector<std::string> names;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick" || arg == "--full" || arg == "--paper") {
            quick = arg == "--quick";
            paper = arg == "--paper";
            continue;
        }
        if (arg != "--threads" && arg != "--json")
            tuned = true;
        if (arg == "--ablate") {
            ablate = true;
        } else if (arg == "--backend" && i + 1 < argc) {
            const std::string name = argv[++i];
            if (!parseBackendName(name, backend)) {
                std::fprintf(stderr, "unknown backend '%s'\n",
                             name.c_str());
                return usage(argv[0]);
            }
        } else if ((arg == "--threads" || arg == "--repeat") &&
                   i + 1 < argc) {
            const char *value = argv[++i];
            if (!parseCount(value, arg == "--threads" ? threads : repeat)) {
                std::fprintf(stderr, "bad %s count '%s'\n", arg.c_str(),
                             value);
                return usage(argv[0]);
            }
            repeat = std::max(repeat, 1u);
        } else if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else if (arg == "--list-scenarios" || arg == "--list") {
            for (const BenchScenario &sc : benchRegistry())
                std::printf("%s\n", sc.name);
            return 0;
        } else if (arg.rfind("-", 0) == 0) {
            return usage(argv[0]);
        } else {
            names.push_back(arg);
        }
    }

    if (paper && tuned)
        return usage(argv[0]);
    // Fail loudly BEFORE running anything: a typo'd scenario must not
    // silently bench nothing (CI would gate on an empty row set).
    for (const std::string &name : names) {
        if (findScenario(name) == nullptr) {
            std::fprintf(stderr,
                         "unknown scenario '%s'; --list-scenarios shows "
                         "the registry\n",
                         name.c_str());
            return usage(argv[0]);
        }
    }

    auto writeOut = [&](auto &&write) {
        if (json_path.empty())
            return 0;
        std::FILE *f = std::fopen(json_path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot open %s for writing\n",
                         json_path.c_str());
            return 2;
        }
        write(f);
        std::fclose(f);
        std::printf("wrote %s\n", json_path.c_str());
        return 0;
    };
    std::vector<Row> rows;
    if (paper) {
        rows = paperRuns(threads);
        return writeOut([&](std::FILE *f) {
            writeJson(f, rows, "paper", threads, writeMachine);
        });
    }

    // The optimization-stack variants of --ablate, each one row.
    using Variant = std::pair<const char *, Knobs>;
    const Variant variants[] = {{"cmdopt_off", {.cmdOpt = false}},
                                {"sync_elision_off", {.syncElision = false}},
                                {"memo_off", {.memo = false}},
                                {"egraph_on", {.egraph = true}}};
    std::printf("backend: %s\n", backendName(backend));
    for (const BenchScenario &sc : benchRegistry()) {
        if (!names.empty() &&
            std::find(names.begin(), names.end(), sc.name) == names.end())
            continue;
        rows.push_back(benchOne(sc, quick, threads, repeat, backend));
        report(rows.back());
        if (!ablate)
            continue;
        for (const auto &[variant, knobs] : variants) {
            rows.push_back(benchOne(sc, quick, threads, 1, backend, variant,
                                    knobs));
            report(rows.back());
        }
    }

    auto sweepHeader = [&](std::FILE *f) {
        std::fprintf(f, "  \"backend\": \"%s\",\n", backendName(backend));
        std::fprintf(f, "  \"simd_isa\": \"%s\",\n",
                     simdIsaName(simd::activeIsa()));
        std::fprintf(f, "  \"repeat\": %u,\n", repeat);
    };
    return writeOut([&](std::FILE *f) {
        writeJson(f, rows, quick ? "quick" : "full", threads, sweepHeader);
    });
}
