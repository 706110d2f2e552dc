/**
 * @file
 * perfbench: the paper-scale benchmark binary. It drives one workload
 * through the library's public API on the Table 2 machine, closed loop
 * (one client; the next run starts when the previous one ends), and
 * prints one JSON object of raw samples. perfbench/run.py builds this
 * binary, reduces the samples to metrics and prints the report.
 *
 *   perfbench --workload paper-mix|gauss-jit|fabric-job --seed N
 *             --seconds S [--trace 0|1] [--trace-out FILE]
 *
 * Order of one invocation: set-up (several times; the median is
 * setup_s), the timed window with tracing off, then the correctness
 * checks and the traced passes, which are outside both windows. Every
 * set-up and pass records both its wall time and the process CPU time
 * of all its threads; the reported host metrics use the CPU time.
 */

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bitserial/simd.hh"
#include "core/executor.hh"
#include "driver.hh"
#include "sim/numa.hh"
#include "sim/rng.hh"
#include "trace.hh"
#include "workloads/pointnet.hh"
#include "workloads/registry.hh"
#include "workloads/workloads.hh"

namespace perfbench {

using namespace infs;

namespace {

/** Set-up repetitions per invocation; setup_s is their median. */
constexpr int kSetups = 5;
/** Traced passes when per-layer metrics are asked for. */
constexpr int kTracedPasses = 3;

const std::int64_t kProcessStartNs = nowNs();

/** CPU time of the whole process (every thread), in nanoseconds. */
std::int64_t
cpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return std::int64_t(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

unsigned
hostCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<unsigned>(std::max(CPU_COUNT(&set), 1));
    return 1;
}

SystemConfig
benchConfig(unsigned threads)
{
    SystemConfig cfg = defaultSystemConfig();
    cfg.hostThreads = threads;
    return cfg;
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
str(const std::string &s)
{
    return "\"" + jsonEscape(s) + "\"";
}

/** A JSON array of numbers. */
std::string
nums(const std::vector<double> &v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        out += (i ? "," : "") + num(v[i]);
    return out + "]";
}

/** One named correctness check with its failure count. */
struct Check {
    std::string name;
    std::uint64_t failures = 0;
    std::string detail;
};

/** Fisher-Yates permutation of [0, n) drawn from @p rng. */
std::vector<std::size_t>
permutation(std::size_t n, Rng &rng)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    for (std::size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng.next() % i]);
    return order;
}

/** Every simulated statistic of a run, compared exactly. */
bool
sameSim(const ExecStats &a, const ExecStats &b)
{
    return a.cycles == b.cycles && a.dramCycles == b.dramCycles &&
           a.jitCycles == b.jitCycles && a.moveCycles == b.moveCycles &&
           a.computeCycles == b.computeCycles &&
           a.finalReduceCycles == b.finalReduceCycles &&
           a.mixCycles == b.mixCycles && a.nearMemCycles == b.nearMemCycles &&
           a.coreCycles == b.coreCycles && a.syncCycles == b.syncCycles &&
           a.nocHopBytes == b.nocHopBytes &&
           a.nocUtilization == b.nocUtilization &&
           a.intraTileBytes == b.intraTileBytes &&
           a.interTileBytes == b.interTileBytes &&
           a.interTileNocBytes == b.interTileNocBytes &&
           a.totalOps == b.totalOps && a.inMemOps == b.inMemOps &&
           a.energyJoules == b.energyJoules && a.dramBytes == b.dramBytes &&
           a.regionsDegraded == b.regionsDegraded &&
           a.phaseCycles == b.phaseCycles && a.chosenTile == b.chosenTile &&
           a.scheduleId == b.scheduleId;
}

/** Counters of one traced pass, by per-layer metric name. */
using Counts = std::map<std::string, double>;

/** One benchmark workload. */
class Bench
{
  public:
    virtual ~Bench() = default;

    /** Build the inputs and run the untimed warm pass (the reference
     * every later pass is checked against). */
    virtual void setUp() = 0;
    /** One timed pass, tracing off; order drawn from @p rng. */
    virtual void timedPass(Rng &rng) = 0;
    /** Operations one pass attempts. */
    virtual std::uint64_t opsPerPass() const = 0;
    /** Failures found in the timed passes so far. */
    virtual std::vector<Check> passChecks() const = 0;
    /** Checks that need extra passes: thread count and model ones. */
    virtual std::vector<Check> extraChecks() = 0;
    /** One traced pass; returns its counters. Adds a trace failure to
     * @p trace_check when it does not reproduce the reference. */
    virtual Counts tracedPass(Tracer &tr, Check &trace_check) = 0;
    /** Simulated results of the reference pass as a JSON member list. */
    virtual std::string simJson() const = 0;

    /** Wall time of every timed pass, in order. */
    std::vector<double> passMs;
    /** Process CPU time of every timed pass, in order. */
    std::vector<double> passCpuMs;

  protected:
    /** Time @p body as one timed pass. */
    template <typename F>
    void
    timePass(F &&body)
    {
        const std::int64_t c0 = cpuNs();
        const std::int64_t t0 = nowNs();
        body();
        const std::int64_t t1 = nowNs();
        passMs.push_back(static_cast<double>(t1 - t0) / 1e6);
        passCpuMs.push_back(static_cast<double>(cpuNs() - c0) / 1e6);
    }
};

// ---------------------------------------------------------------------
// Paper workloads: Executor::run over a roster x paradigm run set.

struct Variant {
    std::string name;
    Workload w;
};

/**
 * Table 3 variants at the paper's sizes, minus gauss_elim (its own
 * workload) and conv3d (it degrades to near memory today, and its fix
 * will raise its host time), plus PointNet++ SSG/MSG at 4096 points.
 */
std::vector<Variant>
paperMixRoster()
{
    std::vector<Variant> v;
    v.push_back({"stencil1d", makeStencil1d(4 << 20, 10)});
    v.push_back({"stencil2d", makeStencil2d(2048, 2048, 10)});
    v.push_back({"stencil3d", makeStencil3d(512, 512, 16, 10)});
    v.push_back({"dwt2d", makeDwt2d(2048, 2048)});
    v.push_back({"conv2d", makeConv2d(2048, 2048)});
    v.push_back({"mm/in", makeMm(2048, 2048, 2048, false)});
    v.push_back({"mm/out", makeMm(2048, 2048, 2048, true)});
    v.push_back({"kmeans/in", makeKmeans(32 << 10, 128, 128, false)});
    v.push_back({"kmeans/out", makeKmeans(32 << 10, 128, 128, true)});
    v.push_back({"gather_mlp/in",
                 makeGatherMlp(32 << 10, 128, 128, 64 << 10, false)});
    v.push_back({"gather_mlp/out",
                 makeGatherMlp(32 << 10, 128, 128, 64 << 10, true)});
    v.push_back({"pointnet_ssg", makePointNetSSG(4096)});
    v.push_back({"pointnet_msg", makePointNetMSG(4096)});
    return v;
}

/** The paper's JIT outlier alone (§8): 2047 shrinking regions. */
std::vector<Variant>
gaussRoster()
{
    std::vector<Variant> v;
    v.push_back({"gauss_elim", makeGaussElim(2048)});
    return v;
}

class PaperBench final : public Bench
{
  public:
    PaperBench(std::function<std::vector<Variant>()> roster,
               std::vector<Paradigm> paradigms, unsigned threads)
        : roster_(std::move(roster)), paradigms_(std::move(paradigms)),
          threads_(threads)
    {
    }

    void
    setUp() override
    {
        variants_ = roster_();
        runs_.clear();
        for (std::size_t v = 0; v < variants_.size(); ++v)
            for (Paradigm p : paradigms_)
                runs_.push_back({v, p});
        ref_ = pass(threads_);
    }

    void
    timedPass(Rng &rng) override
    {
        std::vector<ExecStats> got(runs_.size());
        const std::vector<std::size_t> order = permutation(runs_.size(), rng);
        timePass([&] {
            for (std::size_t i : order)
                got[i] = runOne(i, threads_);
        });
        for (std::size_t i = 0; i < runs_.size(); ++i) {
            degraded_ += got[i].regionsDegraded;
            if (!sameSim(got[i], ref_[i]))
                ++repeatMismatches_;
        }
    }

    std::uint64_t opsPerPass() const override { return dispatches_; }

    std::vector<Check>
    passChecks() const override
    {
        return {{"no_degraded_region", degraded_,
                 "regions that fell back from in-memory execution"},
                {"repeat_identical", repeatMismatches_,
                 "runs whose simulated stats differ from the warm pass"}};
    }

    std::vector<Check>
    extraChecks() override
    {
        Check threads{"threads_identical", 0,
                      "runs that differ at 1 host thread vs " +
                          std::to_string(threads_)};
        std::vector<ExecStats> one = pass(1);
        for (std::size_t i = 0; i < runs_.size(); ++i)
            if (!sameSim(one[i], ref_[i]))
                ++threads.failures;

        // inMemOps <= totalOps. gauss_elim's known double count (1.001)
        // is reported in sim.in_mem_op_fraction but not gated until it
        // is fixed.
        Check ops{"in_mem_ops_le_total", 0, ""};
        for (std::size_t i = 0; i < runs_.size(); ++i) {
            const ExecStats &s = ref_[i];
            if (s.inMemOps <= s.totalOps)
                continue;
            const std::string &name = variants_[runs_[i].variant].name;
            const bool known = name == "gauss_elim";
            ops.detail += name + "@" + paradigmName(runs_[i].paradigm) +
                          "=" + num(s.inMemOpFraction()) +
                          (known ? " (known double count, not gated) "
                                 : " ");
            if (!known)
                ++ops.failures;
        }
        return {threads, ops};
    }

    Counts
    tracedPass(Tracer &tr, Check &trace_check) override
    {
        LayerCounts n;
        Tracer::Scope span(tr, "pass");
        for (std::size_t i = 0; i < runs_.size(); ++i) {
            InfinitySystem sys(benchConfig(threads_));
            ExecStats st = tracedRun(sys, runs_[i].paradigm,
                                     variants_[runs_[i].variant].w, tr, n);
            if (!sameSim(st, ref_[i])) {
                ++trace_check.failures;
                trace_check.detail +=
                    variants_[runs_[i].variant].name + "@" +
                    paradigmName(runs_[i].paradigm) + " ";
            }
        }
        dispatches_ = n.dispatches;
        return {{"tdfg.builds", double(n.tdfgBuilds)},
                {"jit.lowerings", double(n.jitLowerings)},
                {"jit.memo_hits", double(n.jitMemoHits)},
                {"jit.candidates", double(n.jitCandidates)},
                {"jit.commands", double(n.jitCommands)},
                {"jit.cmdopt_rewrites", double(n.cmdoptRewrites)},
                {"uarch.walk_cmds", double(n.walkCmds)},
                {"stream.near_runs", double(n.nearRuns)}};
    }

    std::string
    simJson() const override
    {
        std::string out = "\"runs\":[";
        for (std::size_t i = 0; i < runs_.size(); ++i) {
            const ExecStats &s = ref_[i];
            out += i ? ",\n" : "\n";
            out += "{\"variant\":" + str(variants_[runs_[i].variant].name) +
                   ",\"paradigm\":" + str(paradigmName(runs_[i].paradigm)) +
                   ",\"cycles\":" + num(double(s.cycles)) +
                   ",\"energy_j\":" + num(s.energyJoules) +
                   ",\"dram_bytes\":" + num(double(s.dramBytes)) +
                   ",\"in_mem_ops\":" + num(double(s.inMemOps)) +
                   ",\"total_ops\":" + num(double(s.totalOps)) +
                   ",\"degraded\":" + num(double(s.regionsDegraded)) +
                   ",\"noc_hop_bytes\":{";
            for (unsigned c = 0; c < numTrafficClasses; ++c)
                out += std::string(c ? "," : "") +
                       str(trafficClassName(static_cast<TrafficClass>(c))) +
                       ":" + num(s.nocHopBytes[c]);
            out += "},\"categories\":{\"dram\":" + num(double(s.dramCycles)) +
                   ",\"jit\":" + num(double(s.jitCycles)) +
                   ",\"move\":" + num(double(s.moveCycles)) +
                   ",\"compute\":" + num(double(s.computeCycles)) +
                   ",\"final_reduce\":" + num(double(s.finalReduceCycles)) +
                   ",\"mix\":" + num(double(s.mixCycles)) +
                   ",\"near\":" + num(double(s.nearMemCycles)) +
                   ",\"core\":" + num(double(s.coreCycles)) +
                   ",\"sync\":" + num(double(s.syncCycles)) + "}}";
        }
        return out + "]";
    }

  private:
    struct Run {
        std::size_t variant;
        Paradigm paradigm;
    };

    /** Run @p i on a fresh system, so the JIT memo starts cold. */
    ExecStats
    runOne(std::size_t i, unsigned threads) const
    {
        InfinitySystem sys(benchConfig(threads));
        Executor ex(sys, runs_[i].paradigm);
        return ex.run(variants_[runs_[i].variant].w);
    }

    std::vector<ExecStats>
    pass(unsigned threads) const
    {
        std::vector<ExecStats> out;
        out.reserve(runs_.size());
        for (std::size_t i = 0; i < runs_.size(); ++i)
            out.push_back(runOne(i, threads));
        return out;
    }

    std::function<std::vector<Variant>()> roster_;
    std::vector<Paradigm> paradigms_;
    unsigned threads_;
    std::vector<Variant> variants_;
    std::vector<Run> runs_;
    std::vector<ExecStats> ref_;
    std::uint64_t dispatches_ = 0;
    std::uint64_t degraded_ = 0;
    std::uint64_t repeatMismatches_ = 0;
};

// ---------------------------------------------------------------------
// fabric-job: lowered registry jobs on the fabric and functional backends.

/**
 * The §4.1 primary layout from every tensor phase's hints, and the first
 * primary-layout phase that lowers on it; nullopt when there is none.
 */
std::optional<BackendJob>
planJob(const Workload &w, const SystemConfig &cfg, JitCompiler &jit,
        const AddressMap &map)
{
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
    if (!have_tdfg)
        return std::nullopt;
    TileDecision tile =
        TilingPolicy(cfg.l3).choose(w.primaryShape, w.elemBytes, hints);
    if (!tile.valid)
        return std::nullopt;
    auto made = TiledLayout::make(w.primaryShape, tile.tile);
    if (!made)
        return std::nullopt;
    BackendJob job;
    job.layout = std::move(*made);
    job.volume = 1;
    for (Coord s : job.layout.shape())
        job.volume *= s;
    for (const Phase &p : w.phases) {
        if (!p.buildTdfg)
            continue;
        TdfgGraph g = p.buildTdfg(0);
        if (!p.latticeShape.empty() || g.dims() != job.layout.dims())
            continue;
        auto prog = jit.tryLower(g, job.layout, map);
        if (!prog)
            continue;
        job.prog = *prog;
        return job;
    }
    return std::nullopt;
}

class FabricJobBench final : public Bench
{
  public:
    explicit FabricJobBench(unsigned threads) : threads_(threads) {}

    void
    setUp() override
    {
        const SystemConfig cfg = benchConfig(threads_);
        pool_ = std::make_unique<ThreadPool>(threads_);
        AddressMap map(cfg.l3, cfg.noc.memCtrls);
        JitCompiler jit(cfg);
        jit.setThreadPool(pool_.get());
        jobs_.clear();
        for (const BenchScenario &sc : benchRegistry())
            if (auto job = planJob(sc.full(), cfg, jit, map))
                jobs_.push_back({sc.name, std::move(*job)});
        fabric_ = makeBackend(ExecBackendKind::Fabric, cfg);
        functional_ = makeBackend(ExecBackendKind::Functional, cfg);
        fabric_->setThreadPool(pool_.get());
        functional_->setThreadPool(pool_.get());
        ref_ = pass(*fabric_, *functional_);
    }

    void
    timedPass(Rng &rng) override
    {
        std::vector<Result> got(jobs_.size());
        const std::vector<std::size_t> order =
            permutation(2 * jobs_.size(), rng);
        timePass([&] {
            for (std::size_t k : order) {
                const std::size_t j = k / 2;
                if (k % 2 == 0)
                    got[j].fabric = fabric_->runJob(jobs_[j].job);
                else
                    got[j].functional = functional_->runJob(jobs_[j].job);
            }
        });
        countMismatches(got, checksumMismatches_, repeatMismatches_);
    }

    std::uint64_t opsPerPass() const override { return 2 * jobs_.size(); }

    std::vector<Check>
    passChecks() const override
    {
        return {{"fabric_eq_functional", checksumMismatches_,
                 "jobs whose fabric and functional checksums differ"},
                {"repeat_identical", repeatMismatches_,
                 "jobs whose checksum or replay differs from the warm "
                 "pass"}};
    }

    std::vector<Check>
    extraChecks() override
    {
        const SystemConfig cfg = benchConfig(1);
        auto fabric = makeBackend(ExecBackendKind::Fabric, cfg);
        auto functional = makeBackend(ExecBackendKind::Functional, cfg);
        std::uint64_t checksum = 0, differ = 0;
        countMismatches(pass(*fabric, *functional), checksum, differ);
        return {{"threads_identical", checksum + differ,
                 "jobs that differ at 1 host thread vs " +
                     std::to_string(threads_)}};
    }

    Counts
    tracedPass(Tracer &tr, Check &trace_check) override
    {
        Tracer::Scope span(tr, "pass");
        std::vector<Result> got(jobs_.size());
        FabricStats fs;
        for (std::size_t j = 0; j < jobs_.size(); ++j) {
            {
                Tracer::Scope s(tr, "backend.fabric");
                s.setArgs("\"job\":" + str(jobs_[j].name));
                got[j].fabric = fabric_->runJob(jobs_[j].job);
            }
            {
                Tracer::Scope s(tr, "backend.functional");
                s.setArgs("\"job\":" + str(jobs_[j].name));
                got[j].functional = functional_->runJob(jobs_[j].job);
            }
            const FabricStats &f = got[j].fabric.fabric;
            for (std::size_t k = 0; k < f.byKind.size(); ++k) {
                fs.byKind[k].count += f.byKind[k].count;
                fs.byKind[k].wallMs += f.byKind[k].wallMs;
            }
            fs.maskCacheHits += f.maskCacheHits;
            fs.maskCacheMisses += f.maskCacheMisses;
            fs.scratchAllocs += f.scratchAllocs;
        }
        std::uint64_t checksum = 0;
        countMismatches(got, checksum, trace_check.failures);
        trace_check.failures += checksum;

        Counts c;
        for (std::size_t k = 0; k < fs.byKind.size(); ++k) {
            const std::string kind = cmdKindName(static_cast<CmdKind>(k));
            c["backend." + kind + ".count"] = double(fs.byKind[k].count);
            c["backend." + kind + ".ms"] = fs.byKind[k].wallMs;
        }
        const double lookups = double(fs.maskCacheHits + fs.maskCacheMisses);
        c["bitserial.mask_cache_hit_ratio"] =
            lookups > 0 ? double(fs.maskCacheHits) / lookups : 0.0;
        c["bitserial.scratch_allocs"] = double(fs.scratchAllocs);
        return c;
    }

    std::string
    simJson() const override
    {
        std::string out = "\"jobs\":[";
        for (std::size_t j = 0; j < jobs_.size(); ++j) {
            const BackendResult &r = ref_[j].fabric;
            char sum[24];
            std::snprintf(sum, sizeof(sum), "%016" PRIx64, r.checksum);
            out += j ? ",\n" : "\n";
            out += "{\"scenario\":" + str(jobs_[j].name) +
                   ",\"cycles\":" + num(double(r.simCycles)) +
                   ",\"energy_j\":" + num(r.energyJoules) +
                   ",\"noc_hop_bytes\":" + num(r.nocHopBytes) +
                   ",\"commands\":" +
                   num(double(jobs_[j].job.prog->commands.size())) +
                   ",\"checksum\":" + str(sum) + "}";
        }
        return out + "]";
    }

  private:
    struct NamedJob {
        std::string name;
        BackendJob job;
    };
    struct Result {
        BackendResult fabric;
        BackendResult functional;
    };

    std::vector<Result>
    pass(ExecBackend &fabric, ExecBackend &functional) const
    {
        std::vector<Result> out(jobs_.size());
        for (std::size_t j = 0; j < jobs_.size(); ++j) {
            out[j].fabric = fabric.runJob(jobs_[j].job);
            out[j].functional = functional.runJob(jobs_[j].job);
        }
        return out;
    }

    /** Count checksum disagreements between the backends and any
     * difference from the warm pass. */
    void
    countMismatches(const std::vector<Result> &got, std::uint64_t &checksum,
                    std::uint64_t &differ) const
    {
        for (std::size_t j = 0; j < jobs_.size(); ++j) {
            const BackendResult &f = got[j].fabric;
            const BackendResult &r = ref_[j].fabric;
            if (f.checksum != got[j].functional.checksum)
                ++checksum;
            if (f.checksum != r.checksum || f.simCycles != r.simCycles ||
                f.nocHopBytes != r.nocHopBytes ||
                f.energyJoules != r.energyJoules)
                ++differ;
        }
    }

    unsigned threads_;
    std::unique_ptr<ThreadPool> pool_;
    std::vector<NamedJob> jobs_;
    std::unique_ptr<ExecBackend> fabric_;
    std::unique_ptr<ExecBackend> functional_;
    std::vector<Result> ref_;
    std::uint64_t checksumMismatches_ = 0;
    std::uint64_t repeatMismatches_ = 0;
};

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut;
};

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "paper-mix|gauss-jit|fabric-job --seed N --seconds S "
                 "[--trace 0|1] [--trace-out FILE]\n",
                 msg);
    return 2;
}

bool
parseArgs(int argc, char **argv, Options &o)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const char *v = argv[i + 1];
        char *end = nullptr;
        if (k == "--workload") {
            o.workload = v;
        } else if (k == "--seed") {
            o.seed = std::strtoull(v, &end, 10);
        } else if (k == "--seconds") {
            o.seconds = std::strtod(v, &end);
            if (!(o.seconds > 0 && o.seconds <= 3600))
                return false;
        } else if (k == "--trace") {
            if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
                return false;
            o.trace = v[0] == '1';
        } else if (k == "--trace-out") {
            o.traceOut = v;
        } else {
            return false;
        }
        if (end != nullptr && *end != '\0')
            return false;
    }
    return argc % 2 == 1 && !o.workload.empty();
}

bool
optimizedBuild()
{
#ifdef __OPTIMIZE__
    const std::string type = PERFBENCH_BUILD_TYPE;
    return type == "Release" || type == "RelWithDebInfo" ||
           type == "MinSizeRel";
#else
    return false;
#endif
}

} // namespace

int
run(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt))
        return usage("bad arguments");
    if (!optimizedBuild()) {
        std::fprintf(stderr, "perfbench: refusing to report host metrics "
                             "from an unoptimized build (build type '%s')\n",
                     PERFBENCH_BUILD_TYPE);
        return 3;
    }

    const unsigned threads = hostCpus();
    std::unique_ptr<Bench> bench;
    if (opt.workload == "paper-mix")
        bench = std::make_unique<PaperBench>(
            paperMixRoster,
            std::vector<Paradigm>{Paradigm::Base, Paradigm::NearL3,
                                  Paradigm::InL3, Paradigm::InfS,
                                  Paradigm::InfSNoJit},
            threads);
    else if (opt.workload == "gauss-jit")
        bench = std::make_unique<PaperBench>(
            gaussRoster, std::vector<Paradigm>{Paradigm::InfS}, threads);
    else if (opt.workload == "fabric-job")
        bench = std::make_unique<FabricJobBench>(threads);
    else
        return usage(("unknown workload '" + opt.workload + "'").c_str());

    // Set-up, several times; the first sample runs from process start.
    std::vector<double> setup_s, setup_cpu_s;
    for (int i = 0; i < kSetups; ++i) {
        const std::int64_t t0 = i == 0 ? kProcessStartNs : nowNs();
        const std::int64_t c0 = i == 0 ? 0 : cpuNs();
        bench->setUp();
        setup_s.push_back(static_cast<double>(nowNs() - t0) / 1e9);
        setup_cpu_s.push_back(static_cast<double>(cpuNs() - c0) / 1e9);
    }

    // The timed window: closed loop, tracing off.
    Rng rng(opt.seed);
    const std::int64_t window_end =
        nowNs() + static_cast<std::int64_t>(opt.seconds * 1e9);
    while (nowNs() < window_end)
        bench->timedPass(rng);
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

    // Correctness checks and traced passes, outside both windows.
    std::vector<Check> checks = bench->passChecks();
    for (Check &c : bench->extraChecks())
        checks.push_back(std::move(c));
    Check trace_check{"traced_pass_reproduces", 0, ""};
    Tracer tr;
    std::vector<double> traced_ms, traced_cpu_ms;
    std::vector<Counts> traced_counts;
    for (int i = 0; i < (opt.trace ? kTracedPasses : 1); ++i) {
        const std::int64_t t0 = nowNs();
        const std::int64_t c0 = cpuNs();
        traced_counts.push_back(bench->tracedPass(tr, trace_check));
        traced_ms.push_back(static_cast<double>(nowNs() - t0) / 1e6);
        traced_cpu_ms.push_back(static_cast<double>(cpuNs() - c0) / 1e6);
    }
    checks.push_back(trace_check);
    if (opt.trace && !opt.traceOut.empty() && !tr.writeChrome(opt.traceOut)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     opt.traceOut.c_str());
        return 1;
    }

    const std::uint64_t attempted = bench->opsPerPass() * bench->passMs.size();
    std::uint64_t failed = 0;
    for (const Check &c : checks)
        failed += c.failures;

    std::string out = "{\"workload\":" + str(opt.workload) +
                      ",\"seed\":" + std::to_string(opt.seed) +
                      ",\"provenance\":{\"nproc\":" +
                      std::to_string(threads) +
                      ",\"host_threads\":" + std::to_string(threads) +
                      ",\"simd_isa\":" +
                      str(simdIsaName(simd::activeIsa())) +
                      ",\"numa_nodes\":" +
                      std::to_string(numaTopology().nodes) +
                      ",\"build_type\":" + str(PERFBENCH_BUILD_TYPE) +
                      "},\"setup_wall_s\":" + nums(setup_s) +
                      ",\"setup_cpu_s\":" + nums(setup_cpu_s) +
                      ",\"pass_ms\":" + nums(bench->passMs) +
                      ",\"pass_cpu_ms\":" + nums(bench->passCpuMs);
    out += ",\"peak_rss_mb\":" + num(peak_rss_mb) +
           ",\"attempted\":" + std::to_string(attempted) +
           ",\"failed\":" + std::to_string(failed) + ",\"checks\":[";
    for (std::size_t i = 0; i < checks.size(); ++i)
        out += std::string(i ? "," : "") + "{\"name\":" +
               str(checks[i].name) +
               ",\"failures\":" + std::to_string(checks[i].failures) +
               ",\"detail\":" + str(checks[i].detail) + "}";
    out += "],\"traced\":{\"pass_ms\":" + nums(traced_ms) +
           ",\"pass_cpu_ms\":" + nums(traced_cpu_ms) + ",\"counts\":[";
    for (std::size_t i = 0; i < traced_counts.size(); ++i) {
        out += i ? ",{" : "{";
        bool first = true;
        for (const auto &[k, v] : traced_counts[i]) {
            out += (first ? "" : ",") + str(k) + ":" + num(v);
            first = false;
        }
        out += "}";
    }
    out += "]}," + bench->simJson() + "}\n";
    std::fputs(out.c_str(), stdout);
    return failed == 0 ? 0 : 1;
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    return perfbench::run(argc, argv);
}
