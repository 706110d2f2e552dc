#include "driver.hh"

#include <algorithm>
#include <functional>
#include <optional>
#include <string>

#include "analysis/verify_tdfg.hh"
#include "bitserial/simd.hh"

namespace perfbench {

using namespace infs;

namespace {

using ProgOr = Expected<std::shared_ptr<const InMemProgram>>;

/**
 * Executor's private members, mirrored. Each method below follows the
 * executor.cc function of the same name statement for statement; the only
 * additions are spans and counters around the layer calls.
 */
class Replica
{
  public:
    Replica(InfinitySystem &sys, Paradigm paradigm, Tracer &tr,
            LayerCounts &counts)
        : sys_(sys), paradigm_(paradigm), tr_(tr), n_(counts)
    {
    }

    ExecStats run(const Workload &w);

  private:
    void runBase(const Workload &w, ExecStats &st, unsigned threads);
    void runNearL3(const Workload &w, ExecStats &st);
    void runInMemory(const Workload &w, ExecStats &st, bool fused,
                     bool jit_enabled);
    Tick corePhaseCycles(const Phase &p, unsigned threads,
                         std::uint64_t iters);
    void degradeRegion(const Phase &p, ExecStats &st,
                       std::uint64_t first_iter, std::uint64_t iters);
    void finalizeStats(ExecStats &st);

    /** Run @p iters iterations of near-memory streams, adding each
     * iteration's cycles to @p bucket and st.cycles. */
    void nearIters(const Phase &p, std::uint64_t first_iter,
                   std::uint64_t iters, bool per_iter_streams,
                   const std::vector<NearStream> &streams, Tick &bucket,
                   ExecStats &st);
    /** Core-executed phase: per-iteration cost times @p iters. */
    void coreIters(const Phase &p, std::uint64_t iters, Tick &bucket,
                   ExecStats &st);

    TdfgGraph build(const Phase &p, std::uint64_t iter)
    {
        Tracer::Scope s(tr_, "tdfg.build");
        ++n_.tdfgBuilds;
        return p.buildTdfg(iter);
    }

    InMemExecResult
    walk(const InMemProgram &prog, const TiledLayout &layout,
         std::uint64_t repeat)
    {
        Tracer::Scope s(tr_, "uarch.walk");
        n_.walkCmds += prog.commands.size();
        return sys_.tensorController().execute(prog, layout, 0, repeat);
    }

    /** Count the commands of a program the JIT lowered cold. */
    void countLowered(const ProgOr &prog)
    {
        if (prog && !(*prog)->memoized)
            n_.jitCommands += (*prog)->commands.size();
    }

    InfinitySystem &sys_;
    Paradigm paradigm_;
    Tracer &tr_;
    LayerCounts &n_;
};

ExecStats
Replica::run(const Workload &w)
{
    Tracer::Scope span(tr_, "core.exec");
    sys_.resetStats();

    ExecStats st;
    st.backend = sys_.config().backend;
    for (const Phase &p : w.phases)
        st.totalOps +=
            (p.coreFlopsPerIter + p.residualFlopsPerIter) * p.iterations;

    switch (paradigm_) {
      case Paradigm::Base1T:
        runBase(w, st, 1);
        break;
      case Paradigm::Base:
        runBase(w, st, sys_.config().numCores());
        break;
      case Paradigm::NearL3:
        runNearL3(w, st);
        break;
      case Paradigm::InL3:
        runInMemory(w, st, /*fused=*/false, /*jit=*/true);
        break;
      case Paradigm::InfS:
        runInMemory(w, st, /*fused=*/true, /*jit=*/true);
        break;
      case Paradigm::InfSNoJit:
        runInMemory(w, st, /*fused=*/true, /*jit=*/false);
        break;
    }
    finalizeStats(st);

    JitStats js = sys_.jit().stats();
    n_.jitLowerings += js.lowerings;
    n_.jitMemoHits += js.memoHits;
    n_.cmdoptRewrites += js.cmd.fusedMoves + js.cmd.dedupedBroadcasts +
                         js.cmd.dedupedCommands + js.cmd.elidedSyncs;
    span.setArgs("\"workload\":\"" + jsonEscape(w.name) +
                 "\",\"paradigm\":\"" + paradigmName(paradigm_) +
                 "\",\"sim_cycles\":" + std::to_string(st.cycles));
    return st;
}

Tick
Replica::corePhaseCycles(const Phase &p, unsigned threads,
                         std::uint64_t iters)
{
    const SystemConfig &cfg = sys_.config();
    const std::uint64_t flops = p.coreFlopsPerIter + p.residualFlopsPerIter;
    const Bytes bytes = p.coreBytesPerIter + p.residualBytesPerIter;
    const double rep = static_cast<double>(iters);

    double compute_cycles =
        static_cast<double>(flops) /
        (static_cast<double>(threads) * cfg.core.simdLanesFp32);
    double lines = static_cast<double>(bytes) / lineBytes;
    sys_.noc().accountBulk(static_cast<double>(bytes) * rep,
                           sys_.noc().avgHops(), TrafficClass::Data);
    sys_.noc().accountBulk(lines * 16.0 * rep, sys_.noc().avgHops(),
                           TrafficClass::Control);
    sys_.l3().read(0, static_cast<Bytes>(bytes * iters));

    double core_side_bw = static_cast<double>(threads) * cfg.noc.linkBytes;
    double l3_bw =
        static_cast<double>(cfg.l3.numBanks) * cfg.l3.htreeBandwidth;
    double mem_cycles =
        static_cast<double>(bytes) / std::min(core_side_bw, l3_bw);
    double dram_cycles = 0.0;

    sys_.energy().charge(EnergyEvent::CoreOp,
                         static_cast<double>(flops) * rep);
    sys_.energy().charge(EnergyEvent::L1Access, lines * rep);
    sys_.energy().charge(EnergyEvent::L2Access, lines * rep);
    sys_.energy().charge(EnergyEvent::L3Access, lines * rep);

    Tick overhead = threads > 1 ? p.baseSyncPerIter : 200;
    return static_cast<Tick>(
               std::max({compute_cycles, mem_cycles, dram_cycles})) +
           overhead;
}

void
Replica::nearIters(const Phase &p, std::uint64_t first_iter,
                   std::uint64_t iters, bool per_iter_streams,
                   const std::vector<NearStream> &streams, Tick &bucket,
                   ExecStats &st)
{
    for (std::uint64_t i = 0; i < iters; ++i) {
        NearExecResult r;
        if (per_iter_streams) {
            std::vector<NearStream> s = p.buildStreams(first_iter + i);
            Tracer::Scope span(tr_, "stream.near");
            ++n_.nearRuns;
            r = sys_.nearEngine().run(s, 0);
        } else {
            Tracer::Scope span(tr_, "stream.near");
            ++n_.nearRuns;
            r = sys_.nearEngine().run(streams, 0);
        }
        bucket += r.cycles;
        st.cycles += r.cycles;
    }
}

void
Replica::coreIters(const Phase &p, std::uint64_t iters, Tick &bucket,
                   ExecStats &st)
{
    Tick per_iter = corePhaseCycles(p, sys_.config().numCores(), iters);
    bucket += per_iter * iters;
    st.cycles += per_iter * iters;
}

void
Replica::degradeRegion(const Phase &p, ExecStats &st,
                       std::uint64_t first_iter, std::uint64_t iters)
{
    ++st.regionsDegraded;
    if (!p.streams.empty() || static_cast<bool>(p.buildStreams))
        nearIters(p, first_iter, iters, static_cast<bool>(p.buildStreams),
                  p.streams, st.nearMemCycles, st);
    else
        coreIters(p, iters, st.coreCycles, st);
}

void
Replica::runBase(const Workload &w, ExecStats &st, unsigned threads)
{
    Bytes dram_bytes = static_cast<Bytes>(
        static_cast<double>(w.footprintBytes) * (1.0 - w.l3Residency));
    if (dram_bytes > 0) {
        Tick t = sys_.dram().transfer(dram_bytes);
        st.dramCycles += t;
        st.cycles += t;
    }
    for (const Phase &p : w.phases) {
        ++n_.dispatches;
        Tick before = st.cycles;
        Tick per_iter = corePhaseCycles(p, threads, p.iterations);
        st.coreCycles += per_iter * p.iterations;
        st.cycles += per_iter * p.iterations;
        st.phaseCycles.emplace_back(p.name, st.cycles - before);
    }
}

void
Replica::runNearL3(const Workload &w, ExecStats &st)
{
    Bytes dram_bytes = static_cast<Bytes>(
        static_cast<double>(w.footprintBytes) * (1.0 - w.l3Residency));
    if (dram_bytes > 0) {
        Tick t = sys_.dram().transfer(dram_bytes);
        st.dramCycles += t;
        st.cycles += t;
    }
    for (const Phase &p : w.phases) {
        ++n_.dispatches;
        Tick phase_start = st.cycles;
        bool per_iter_streams = static_cast<bool>(p.buildStreams);
        if (p.streams.empty() && !per_iter_streams)
            coreIters(p, p.iterations, st.coreCycles, st);
        else
            nearIters(p, 0, p.iterations, per_iter_streams, p.streams,
                      st.nearMemCycles, st);
        st.phaseCycles.emplace_back(p.name, st.cycles - phase_start);
    }
}

void
Replica::runInMemory(const Workload &w, ExecStats &st, bool fused,
                     bool jit_enabled)
{
    const SystemConfig &cfg = sys_.config();
    if (w.assumeTransposed)
        jit_enabled = false;

    LayoutHints hints;
    bool have_tdfg = false;
    for (const Phase &p : w.phases) {
        if (p.buildTdfg) {
            TdfgGraph g = build(p, 0);
            Tracer::Scope s(tr_, "jit.tile");
            LayoutHints h = LayoutHints::fromGraph(g);
            hints.shiftDims.insert(h.shiftDims.begin(), h.shiftDims.end());
            hints.broadcastDims.insert(h.broadcastDims.begin(),
                                       h.broadcastDims.end());
            if (h.reduceDim)
                hints.reduceDim = h.reduceDim;
            have_tdfg = true;
        }
    }
    TilingPolicy policy(cfg.l3);
    TileDecision tile;
    TiledLayout layout;
    std::vector<TiledLayout> candLayouts;
    {
        Tracer::Scope s(tr_, "jit.tile");
        if (!w.forceTile.empty()) {
            tile.valid = w.forceTile.size() == w.primaryShape.size();
            tile.tile = w.forceTile;
        } else if (have_tdfg) {
            tile = policy.choose(w.primaryShape, w.elemBytes, hints);
        }
        if (tile.valid) {
            auto made = TiledLayout::make(w.primaryShape, tile.tile);
            if (!made) {
                ++st.regionsDegraded;
                tile.valid = false;
            } else {
                layout = std::move(*made);
            }
        }
        if (have_tdfg && tile.valid && cfg.fatBinary &&
            w.forceTile.empty() && cfg.fatBinaryCandidates > 1) {
            for (TileDecision &d :
                 policy.candidates(w.primaryShape, w.elemBytes, hints,
                                   cfg.fatBinaryCandidates))
                candLayouts.emplace_back(w.primaryShape, d.tile);
            if (candLayouts.size() <= 1)
                candLayouts.clear();
        }
    }
    if (!have_tdfg || !tile.valid) {
        if (fused)
            runNearL3(w, st);
        else
            runBase(w, st, cfg.numCores());
        return;
    }
    st.chosenTile = tile.tile;

    bool prepared = w.assumeTransposed;
    auto prepareOnce = [&]() {
        if (prepared)
            return;
        prepared = true;
        Tracer::Scope s(tr_, "uarch.prepare");
        PrepareResult prep =
            sys_.prepareTransposed(w.footprintBytes, w.l3Residency);
        st.dramCycles += prep.cycles;
        st.cycles += prep.cycles;
        st.dramBytes += prep.dramBytes;
    };

    std::int64_t primary_elems = 1;
    for (Coord s : w.primaryShape)
        primary_elems *= s;
    Tick waves = static_cast<Tick>(
        (primary_elems + cfg.l3.totalBitlines() - 1) /
        cfg.l3.totalBitlines());
    waves = std::max<Tick>(waves, 1);

    enum class Route { Irregular, DegradeTdfg, Fallback, InMemory };
    struct PhasePlan {
        const Phase *phase = nullptr;
        Route route = Route::Irregular;
        TdfgGraph g0{1};
        bool usesOwnLayout = false;
        TiledLayout ownLayout;
        std::string memoKey;
        std::optional<ProgOr> prog;
        std::vector<ProgOr> candProgs;
    };
    std::vector<PhasePlan> plans;
    plans.reserve(w.phases.size());
    for (const Phase &p : w.phases) {
        PhasePlan plan;
        plan.phase = &p;
        if (!p.buildTdfg) {
            plans.push_back(std::move(plan));
            continue;
        }
        plan.g0 = build(p, 0);
        if (cfg.verifyLevel != VerifyLevel::Off && !checkTdfg(plan.g0)) {
            plan.route = Route::DegradeTdfg;
            plans.push_back(std::move(plan));
            continue;
        }
        if (!p.latticeShape.empty() || plan.g0.dims() != layout.dims()) {
            std::vector<Coord> shape =
                p.latticeShape.empty() ? w.primaryShape : p.latticeShape;
            Tracer::Scope s(tr_, "jit.tile");
            TileDecision td;
            if (shape.size() == plan.g0.dims())
                td = policy.choose(shape, w.elemBytes,
                                   LayoutHints::fromGraph(plan.g0));
            if (!td.valid) {
                plan.route = Route::Fallback;
                plans.push_back(std::move(plan));
                continue;
            }
            plan.ownLayout = TiledLayout(shape, td.tile);
            plan.usesOwnLayout = true;
        }
        OffloadDecision dec =
            decideOffload(plan.g0.summarize(), cfg, !jit_enabled);
        if (!w.assumeTransposed && !dec.inMemory) {
            plan.route = Route::Fallback;
            plans.push_back(std::move(plan));
            continue;
        }
        plan.route = Route::InMemory;
        if (p.sameTdfgEachIter)
            plan.memoKey = w.name + "/" + p.name;
        plans.push_back(std::move(plan));
    }

    // Pre-lowering of memoized regions, fanned out like the executor's.
    {
        std::vector<PhasePlan *> jobs;
        for (PhasePlan &plan : plans)
            if (plan.route == Route::InMemory && !plan.memoKey.empty())
                jobs.push_back(&plan);
        for (PhasePlan *plan : jobs)
            if (!plan->usesOwnLayout && !candLayouts.empty())
                n_.jitCandidates += candLayouts.size();
        auto lowerOne = [&](PhasePlan *plan) {
            if (!plan->usesOwnLayout && !candLayouts.empty()) {
                plan->candProgs = sys_.jit().lowerCandidates(
                    plan->g0, candLayouts, sys_.map(), plan->memoKey);
                plan->prog = plan->candProgs.front();
            } else {
                const TiledLayout &use_layout =
                    plan->usesOwnLayout ? plan->ownLayout : layout;
                plan->prog = sys_.jit().tryLower(plan->g0, use_layout,
                                                 sys_.map(), plan->memoKey);
            }
        };
        ThreadPool &pool = sys_.pool();
        if (!jobs.empty()) {
            Tracer::Scope s(tr_, "jit.lower");
            if (pool.inlineOnly() || jobs.size() <= 1) {
                for (PhasePlan *job : jobs)
                    lowerOne(job);
            } else {
                std::vector<std::function<void()>> tasks;
                tasks.reserve(jobs.size());
                for (PhasePlan *job : jobs)
                    tasks.push_back([&lowerOne, job] { lowerOne(job); });
                pool.runTasks(std::move(tasks));
            }
        }
        for (PhasePlan *plan : jobs) {
            if (plan->candProgs.empty())
                countLowered(*plan->prog);
            for (const ProgOr &cand : plan->candProgs)
                countLowered(cand);
        }
    }

    FabricStats observed;
    for (PhasePlan &plan : plans) {
        const Phase &p = *plan.phase;
        Tick phase_start = st.cycles;
        // One dispatch per region; per-iteration regions count each
        // iteration below.
        if (plan.route != Route::InMemory || !plan.memoKey.empty())
            ++n_.dispatches;
        if (plan.route == Route::Irregular) {
            if (fused && (!p.streams.empty() || p.buildStreams))
                nearIters(p, 0, p.iterations,
                          static_cast<bool>(p.buildStreams), p.streams,
                          st.nearMemCycles, st);
            else
                coreIters(p, p.iterations, st.coreCycles, st);
            st.phaseCycles.emplace_back(p.name, st.cycles - phase_start);
            continue;
        }
        if (plan.route == Route::DegradeTdfg) {
            degradeRegion(p, st, 0, p.iterations);
            st.phaseCycles.emplace_back(p.name, st.cycles - phase_start);
            continue;
        }
        if (plan.route == Route::Fallback) {
            if (fused && !p.streams.empty())
                nearIters(p, 0, p.iterations, false, p.streams,
                          st.nearMemCycles, st);
            else
                coreIters(p, p.iterations, st.coreCycles, st);
            st.phaseCycles.emplace_back(p.name, st.cycles - phase_start);
            continue;
        }

        const TiledLayout &use_layout =
            plan.usesOwnLayout ? plan.ownLayout : layout;
        prepareOnce();
        auto accumulate = [&](const InMemExecResult &r) {
            st.computeCycles += r.computeCycles * waves;
            st.moveCycles += r.moveCycles * waves;
            st.syncCycles += r.syncCycles * waves;
            st.cycles += r.cycles * waves;
            st.inMemOps += r.inMemOps;
            st.intraTileBytes += r.intraTileBytes;
            st.interTileBytes += r.interTileBytes;
            st.interTileNocBytes += r.interTileNocBytes;
            for (std::size_t b = 0; b < r.bankBusy.size(); ++b)
                observed.bankOps[b % FabricStats::kBankSlots] +=
                    static_cast<std::uint64_t>(r.bankBusy[b]);
        };

        if (!plan.memoKey.empty()) {
            auto &prog_or = *plan.prog;
            if (!prog_or) {
                degradeRegion(p, st, 0, p.iterations);
                st.phaseCycles.emplace_back(p.name,
                                            st.cycles - phase_start);
                continue;
            }
            std::shared_ptr<const InMemProgram> prog = *prog_or;
            const TiledLayout *exec_layout = &use_layout;
            if (!plan.candProgs.empty()) {
                std::vector<ScheduleCandidate> cands;
                std::vector<unsigned> ids;
                for (unsigned c = 0; c < plan.candProgs.size(); ++c) {
                    if (!plan.candProgs[c])
                        continue;
                    ScheduleCandidate sc;
                    sc.layout = candLayouts[c];
                    sc.prog = *plan.candProgs[c];
                    BackendJob job{candLayouts[c], sc.prog, primary_elems};
                    {
                        Tracer::Scope s(tr_, "uarch.replay");
                        sc.replayCycles =
                            replayTiming(cfg, job, &sys_.pool()).simCycles;
                    }
                    cands.push_back(std::move(sc));
                    ids.push_back(c);
                }
                if (cands.size() > 1) {
                    unsigned pick = chooseSchedule(cands, observed);
                    prog = cands[pick].prog;
                    exec_layout = &candLayouts[ids[pick]];
                    if (st.scheduleId < 0) {
                        st.scheduleId = static_cast<int>(ids[pick]);
                        st.scheduleCandidates =
                            static_cast<unsigned>(cands.size());
                        st.chosenTile = exec_layout->tile();
                    }
                }
            }
            if (jit_enabled) {
                st.jitCycles += prog->jitTicks;
                st.cycles += prog->jitTicks;
            }
            InMemExecResult r = walk(*prog, *exec_layout, p.iterations);
            if (r.failed) {
                st.cycles += r.cycles;
                degradeRegion(p, st, 0, p.iterations);
                st.phaseCycles.emplace_back(p.name,
                                            st.cycles - phase_start);
                continue;
            }
            accumulate(r);
        } else {
            // Per-iteration lowering in bounded blocks (gauss_elim).
            ThreadPool &pool = sys_.pool();
            const std::uint64_t block =
                pool.inlineOnly()
                    ? 1
                    : std::max<std::uint64_t>(2 * pool.threads(), 4);
            bool degraded = false;
            for (std::uint64_t it0 = 0; it0 < p.iterations && !degraded;
                 it0 += block) {
                const std::uint64_t n =
                    std::min<std::uint64_t>(block, p.iterations - it0);
                std::vector<TdfgGraph> graphs;
                graphs.reserve(n);
                for (std::uint64_t k = 0; k < n; ++k)
                    graphs.push_back(it0 + k == 0 ? std::move(plan.g0)
                                                  : build(p, it0 + k));
                std::vector<std::optional<ProgOr>> progs(n);
                auto lowerK = [&](std::uint64_t k) {
                    progs[k] = sys_.jit().tryLower(graphs[k], use_layout,
                                                   sys_.map());
                };
                {
                    Tracer::Scope s(tr_, "jit.lower");
                    if (pool.inlineOnly() || n == 1) {
                        for (std::uint64_t k = 0; k < n; ++k)
                            lowerK(k);
                    } else {
                        std::vector<std::function<void()>> tasks;
                        tasks.reserve(n);
                        for (std::uint64_t k = 0; k < n; ++k)
                            tasks.push_back([&lowerK, k] { lowerK(k); });
                        pool.runTasks(std::move(tasks));
                    }
                }
                for (std::uint64_t k = 0; k < n; ++k)
                    countLowered(*progs[k]);
                for (std::uint64_t k = 0; k < n; ++k) {
                    const std::uint64_t it = it0 + k;
                    ProgOr &prog_or = *progs[k];
                    ++n_.dispatches;
                    if (!prog_or) {
                        degradeRegion(p, st, it, p.iterations - it);
                        degraded = true;
                        break;
                    }
                    const auto &prog = *prog_or;
                    if (jit_enabled) {
                        st.jitCycles += prog->jitTicks;
                        st.cycles += prog->jitTicks;
                    }
                    InMemExecResult r = walk(*prog, use_layout, 1);
                    if (r.failed) {
                        st.cycles += r.cycles;
                        degradeRegion(p, st, it, p.iterations - it);
                        degraded = true;
                        break;
                    }
                    accumulate(r);
                }
            }
            if (degraded) {
                st.phaseCycles.emplace_back(p.name,
                                            st.cycles - phase_start);
                continue;
            }
        }

        if (!p.residualStreams.empty()) {
            if (fused) {
                bool any_reduce = false;
                for (const NearStream &s : p.residualStreams)
                    any_reduce |= s.isReduce;
                nearIters(p, 0, p.iterations, false, p.residualStreams,
                          any_reduce ? st.finalReduceCycles : st.mixCycles,
                          st);
            } else {
                Phase residual;
                residual.coreFlopsPerIter = p.residualFlopsPerIter;
                residual.coreBytesPerIter = p.residualBytesPerIter;
                coreIters(residual, p.iterations, st.finalReduceCycles, st);
            }
        }
        st.phaseCycles.emplace_back(p.name, st.cycles - phase_start);
    }

    if (prepared) {
        Tracer::Scope s(tr_, "uarch.prepare");
        if (!w.assumeTransposed) {
            Tick rel = sys_.releaseTransposed(w.dirtyBytes);
            st.dramCycles += rel;
            st.cycles += rel;
        } else {
            sys_.releaseTransposed(0);
        }
    }
}

void
Replica::finalizeStats(ExecStats &st)
{
    MeshNoc &noc = sys_.noc();
    for (unsigned c = 0; c < numTrafficClasses; ++c)
        st.nocHopBytes[c] = noc.hopBytes(static_cast<TrafficClass>(c));
    st.nocUtilization = noc.utilization(std::max<Tick>(st.cycles, 1));
    st.dramBytes = sys_.dram().totalBytes();
    sys_.energy().charge(EnergyEvent::NocHopFlit,
                         noc.totalHopBytes() / sys_.config().noc.linkBytes);
    sys_.energy().charge(EnergyEvent::DramAccess,
                         static_cast<double>(st.dramBytes) / lineBytes);
    st.energyJoules = sys_.energy().totalJoules();
    st.simdIsa = simd::activeIsa();
    st.numaNodes = sys_.pool().numaNodes();
    FaultStats fs = sys_.faultInjector().snapshot();
    st.faultsInjected = fs.totalInjected();
    st.faultsDetected = fs.detected;
    st.faultRetries = fs.retries;
    st.retryCycles = static_cast<Tick>(fs.retryCycles);
}

} // namespace

ExecStats
tracedRun(InfinitySystem &sys, Paradigm paradigm, const Workload &w,
          Tracer &tr, LayerCounts &counts)
{
    return Replica(sys, paradigm, tr, counts).run(w);
}

} // namespace perfbench
