#include "core/executor.hh"

#include <algorithm>
#include <cmath>

#include "bitserial/simd.hh"
#include "core/plan.hh"
#include "tdfg/interp.hh"

namespace infs {

namespace {

/** Whether @p p has a near-memory stream form. */
bool
hasStreamForm(const Phase &p)
{
    return !p.streams.empty() || static_cast<bool>(p.buildStreams);
}

} // namespace

const char *
paradigmName(Paradigm p)
{
    switch (p) {
      case Paradigm::Base1T: return "Base-1T";
      case Paradigm::Base: return "Base";
      case Paradigm::NearL3: return "Near-L3";
      case Paradigm::InL3: return "In-L3";
      case Paradigm::InfS: return "Inf-S";
      case Paradigm::InfSNoJit: return "Inf-S-noJIT";
    }
    return "?";
}

void
runWorkloadFunctional(const Workload &w, ArrayStore &store)
{
    if (w.setup)
        w.setup(store);
    for (const Phase &p : w.phases) {
        for (std::uint64_t it = 0; it < p.iterations; ++it) {
            if (p.functionalFallback) {
                // Overrides the interpreter when set (it may stage data
                // and invoke the interpreter itself).
                p.functionalFallback(store, it);
            } else if (p.buildTdfg) {
                TdfgGraph g = p.buildTdfg(it);
                TdfgInterpreter interp(store);
                interp.run(g);
            }
        }
    }
}

ExecStats
Executor::run(const Workload &w, ArrayStore *store)
{
    sys_.resetStats();
    if (store != nullptr)
        runWorkloadFunctional(w, *store);

    ExecStats st;
    st.backend = sys_.config().backend;
    // Total element ops (for the in-memory fraction dots of Fig 14).
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
    return st;
}

Tick
Executor::corePhaseCycles(const Phase &p, unsigned threads,
                          std::uint64_t iters) const
{
    const SystemConfig &cfg = sys_.config();
    const std::uint64_t flops =
        p.coreFlopsPerIter + p.residualFlopsPerIter;
    const Bytes bytes = p.coreBytesPerIter + p.residualBytesPerIter;
    const double rep = static_cast<double>(iters);

    double compute_cycles =
        static_cast<double>(flops) /
        (static_cast<double>(threads) * cfg.core.simdLanesFp32);

    // Memory: data streams from L3 home banks to the cores' private
    // caches; per-line request control precedes each response line.
    // Traffic and energy scale with the iteration count.
    double lines = static_cast<double>(bytes) / lineBytes;
    sys_.noc().accountBulk(static_cast<double>(bytes) * rep,
                           sys_.noc().avgHops(), TrafficClass::Data);
    sys_.noc().accountBulk(lines * 16.0 * rep, sys_.noc().avgHops(),
                           TrafficClass::Control);
    sys_.l3().read(0, static_cast<Bytes>(bytes * iters));

    double core_side_bw =
        static_cast<double>(threads) * cfg.noc.linkBytes;
    double l3_bw = static_cast<double>(cfg.l3.numBanks) *
                   cfg.l3.htreeBandwidth;
    double mem_cycles =
        static_cast<double>(bytes) / std::min(core_side_bw, l3_bw);

    // L3 misses go to DRAM (the phase-level residency knob).
    // Handled at workload granularity via l3Residency during in-memory
    // preparation; for the core paths charge DRAM per-phase.
    double dram_cycles = 0.0;

    // Energy: core op + cache line movements.
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
Executor::runNearOrCore(const Phase &p, ExecStats &st, bool near_allowed,
                        std::uint64_t first_iter, std::uint64_t iters)
{
    if (near_allowed && hasStreamForm(p)) {
        std::vector<NearStream> built;
        for (std::uint64_t i = 0; i < iters; ++i) {
            if (p.buildStreams)
                built = p.buildStreams(first_iter + i);
            NearExecResult r = sys_.nearEngine().run(
                p.buildStreams ? built : p.streams, 0);
            st.nearMemCycles += r.cycles;
            st.cycles += r.cycles;
        }
        return;
    }
    Tick per_iter = corePhaseCycles(p, sys_.config().numCores(), iters);
    st.coreCycles += per_iter * iters;
    st.cycles += per_iter * iters;
}

void
Executor::degradeRegion(const Phase &p, ExecStats &st,
                        std::uint64_t first_iter, std::uint64_t iters,
                        const Error &err)
{
    ++st.regionsDegraded;
    infs_warn("phase '%s': in-memory region failed (%s); degrading to %s",
              p.name.c_str(), err.str().c_str(),
              hasStreamForm(p) ? "near-memory streams" : "the core");
    // The In-L3 -> Near-L3 step of the degradation chain applies even when
    // the paradigm is not fused.
    runNearOrCore(p, st, /*near_allowed=*/true, first_iter, iters);
}

void
Executor::fetchColdData(const Workload &w, ExecStats &st)
{
    // Cold data comes from DRAM once per workload.
    Bytes dram_bytes = static_cast<Bytes>(
        static_cast<double>(w.footprintBytes) * (1.0 - w.l3Residency));
    if (dram_bytes > 0) {
        Tick t = sys_.dram().transfer(dram_bytes);
        st.dramCycles += t;
        st.cycles += t;
    }
}

void
Executor::runBase(const Workload &w, ExecStats &st, unsigned threads)
{
    fetchColdData(w, st);
    for (const Phase &p : w.phases) {
        Tick before = st.cycles;
        Tick per_iter = corePhaseCycles(p, threads, p.iterations);
        st.coreCycles += per_iter * p.iterations;
        st.cycles += per_iter * p.iterations;
        st.phaseCycles.emplace_back(p.name, st.cycles - before);
    }
}

void
Executor::runNearL3(const Workload &w, ExecStats &st)
{
    fetchColdData(w, st);
    for (const Phase &p : w.phases) {
        Tick phase_start = st.cycles;
        runNearOrCore(p, st, /*near_allowed=*/true, 0, p.iterations);
        st.phaseCycles.emplace_back(p.name, st.cycles - phase_start);
    }
}

void
Executor::runInMemory(const Workload &w, ExecStats &st, bool fused,
                      bool jit_enabled)
{
    const SystemConfig &cfg = sys_.config();
    // Steady-state mode (Fig 2): data transposed and commands already
    // lowered in earlier invocations.
    if (w.assumeTransposed)
        jit_enabled = false;

    // ---- Plan (DESIGN.md §10): layout and route of every phase, pure
    // checks only. Each region lowers when the timing walk below reaches
    // it, on this thread.
    RegionPlan plan = planRegion(w, cfg, jit_enabled);
    if (plan.layoutError) {
        infs_warn("workload '%s': %s; disabling in-memory execution",
                  w.name.c_str(), plan.layoutError->str().c_str());
        ++st.regionsDegraded;
    }
    if (!plan.layout) {
        // In-memory computing disabled (§4.1): fall back to near-memory
        // when fused, else to the core.
        if (fused)
            runNearL3(w, st);
        else
            runBase(w, st, cfg.numCores());
        return;
    }
    st.chosenTile = plan.layout->tile();

    // Data preparation (§5.2) happens lazily, at the first phase that
    // actually commits to in-memory execution (small regions that Eq. 2
    // keeps near memory never pay the transposition).
    bool prepared = w.assumeTransposed;
    auto prepareOnce = [&]() {
        if (prepared)
            return;
        prepared = true;
        PrepareResult prep =
            sys_.prepareTransposed(w.footprintBytes, w.l3Residency);
        st.dramCycles += prep.cycles;
        st.cycles += prep.cycles;
    };

    // Waves: element sets larger than the bitline pool execute in passes.
    std::int64_t primary_elems = 1;
    for (Coord s : w.primaryShape)
        primary_elems *= s;
    Tick waves = static_cast<Tick>(
        (primary_elems + cfg.l3.totalBitlines() - 1) /
        cfg.l3.totalBitlines());
    waves = std::max<Tick>(waves, 1);

    // ---- Timing walk: all simulated-time, traffic, energy, JIT and
    // fault accounting happens here, in phase order.

    // Bank occupancy observed across the regions executed so far; feeds
    // the fat-binary dispatcher of later phases (empty history means the
    // cost reduces to the replayed makespan alone).
    FabricStats observed;

    // The one lowered-region step: iterations [first_iter, first_iter +
    // repeat) of @p p run @p prog_or on @p layout. A failed lowering or a
    // fault past the retry budget degrades the rest of the phase instead;
    // returns false then.
    using ProgOr = Expected<std::shared_ptr<const InMemProgram>>;
    auto runLowered = [&](const Phase &p, const ProgOr &prog_or,
                          const TiledLayout &layout,
                          std::uint64_t first_iter, std::uint64_t repeat) {
        const std::uint64_t rest = p.iterations - first_iter;
        if (!prog_or) {
            degradeRegion(p, st, first_iter, rest, prog_or.error());
            return false;
        }
        const InMemProgram &prog = **prog_or;
        if (jit_enabled) {
            st.jitCycles += prog.jitTicks;
            st.cycles += prog.jitTicks;
        }
        InMemExecResult r =
            sys_.tensorController().execute(prog, layout, 0, repeat);
        if (r.failed) {
            // The aborted attempt (including its retry time) is sunk
            // cost; the region then reruns on the fallback path.
            st.cycles += r.cycles;
            degradeRegion(p, st, first_iter, rest,
                          Error{ErrCode::CommandFailed,
                                "in-memory command fault persisted past "
                                "the retry budget"});
            return false;
        }
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
        return true;
    };

    // Every iteration of an in-memory phase; false when it degraded.
    auto runInMemoryPhase = [&](PhasePlan &pp) {
        const Phase &p = *pp.phase;
        const TiledLayout &layout = *plan.layoutOf(pp);
        prepareOnce();
        JitCompiler &jit = sys_.jit();
        if (!pp.memoKey.empty()) {
            // The first iteration pays the JIT; the rest reuse the
            // memoized program (§4.2). Fat-binary candidates (DESIGN.md
            // §14) lower for every primary-layout phase, even when
            // jit_enabled is off: a steady-state fat binary was lowered
            // ahead of time and only the dispatch-time pick remains. Only
            // the chosen program's jitTicks are ever charged.
            std::vector<ProgOr> cand_progs;
            if (pp.onPrimary && !plan.candidates.empty())
                cand_progs = jit.lowerCandidates(*pp.g0, plan.candidates,
                                                 sys_.map(), pp.memoKey);
            ProgOr prog = cand_progs.empty()
                              ? jit.tryLower(*pp.g0, layout, sys_.map(),
                                             pp.memoKey)
                              : cand_progs.front();
            const TiledLayout *exec_layout = &layout;
            if (prog && !cand_progs.empty()) {
                // Fat-binary dispatch (DESIGN.md §14): probe each cleanly
                // lowered candidate's makespan on private replay models,
                // then pick with the occupancy observed so far.
                std::vector<ScheduleCandidate> cands;
                std::vector<unsigned> ids;
                for (unsigned c = 0; c < cand_progs.size(); ++c) {
                    if (!cand_progs[c])
                        continue; // Candidate failed to lower: drop it.
                    ScheduleCandidate sc;
                    sc.layout = plan.candidates[c];
                    sc.prog = *cand_progs[c];
                    BackendJob job{sc.layout, sc.prog, primary_elems};
                    sc.replayCycles =
                        replayTiming(cfg, job, nullptr).simCycles;
                    cands.push_back(std::move(sc));
                    ids.push_back(c);
                }
                if (cands.size() > 1) {
                    unsigned pick = chooseSchedule(cands, observed);
                    prog = cands[pick].prog;
                    exec_layout = &plan.candidates[ids[pick]];
                    if (st.scheduleId < 0) {
                        st.scheduleId = static_cast<int>(ids[pick]);
                        st.scheduleCandidates =
                            static_cast<unsigned>(cands.size());
                        st.chosenTile = exec_layout->tile();
                    }
                }
            }
            return runLowered(p, prog, *exec_layout, 0, p.iterations);
        }
        // Changing parameters defeat memoization (gauss_elim, §8): each
        // iteration builds, lowers and runs its own region, and nothing
        // past a failing iteration is lowered.
        for (std::uint64_t it = 0; it < p.iterations; ++it) {
            const TdfgGraph g = it == 0 ? std::move(*pp.g0) : p.buildTdfg(it);
            if (!runLowered(p, jit.tryLower(g, layout, sys_.map()), layout, it,
                            1))
                return false;
        }
        return true;
    };

    for (std::size_t i = 0; i < plan.phases.size(); ++i) {
        PhasePlan &pp = plan.phases[i];
        const Phase &p = *pp.phase;
        Tick phase_start = st.cycles;
        if (pp.route == Route::Irregular || pp.route == Route::Fallback) {
            // No tDFG, no valid phase layout, or Eq. 2 says in-memory does
            // not pay: fused runs the stream form near memory; In-L3 has
            // no near-memory support and falls back to the core.
            runNearOrCore(p, st, fused, 0, p.iterations);
        } else if (pp.route == Route::DegradeTdfg) {
            degradeRegion(p, st, 0, p.iterations, pp.error);
        } else if (runInMemoryPhase(pp) &&
                   !p.residualStreams.empty()) {
            // Residual work: final reductions / irregular updates coupled
            // to the in-memory part.
            if (fused) {
                bool any_reduce = false;
                for (const NearStream &s : p.residualStreams)
                    any_reduce |= s.isReduce;
                for (std::uint64_t it = 0; it < p.iterations; ++it) {
                    NearExecResult r =
                        sys_.nearEngine().run(p.residualStreams, 0);
                    if (any_reduce)
                        st.finalReduceCycles += r.cycles;
                    else
                        st.mixCycles += r.cycles;
                    st.cycles += r.cycles;
                }
            } else {
                // In-L3 has no near-memory support: the core does it.
                Phase residual;
                residual.coreFlopsPerIter = p.residualFlopsPerIter;
                residual.coreBytesPerIter = p.residualBytesPerIter;
                Tick per_iter =
                    corePhaseCycles(residual, cfg.numCores(), p.iterations);
                st.finalReduceCycles += per_iter * p.iterations;
                st.cycles += per_iter * p.iterations;
            }
        }
        st.phaseCycles.emplace_back(p.name, st.cycles - phase_start);
    }

    // Delayed release of the transposed data (§5.2).
    if (prepared && !w.assumeTransposed) {
        Tick rel = sys_.releaseTransposed(w.dirtyBytes);
        st.dramCycles += rel;
        st.cycles += rel;
    } else if (prepared) {
        sys_.releaseTransposed(0);
    }
}

void
Executor::finalizeStats(ExecStats &st) const
{
    MeshNoc &noc = sys_.noc();
    for (unsigned c = 0; c < numTrafficClasses; ++c)
        st.nocHopBytes[c] = noc.hopBytes(static_cast<TrafficClass>(c));
    st.nocUtilization = noc.utilization(std::max<Tick>(st.cycles, 1));
    st.dramBytes = sys_.dram().totalBytes();

    // Central energy charges from model totals.
    sys_.energy().charge(EnergyEvent::NocHopFlit,
                         noc.totalHopBytes() /
                             sys_.config().noc.linkBytes);
    sys_.energy().charge(EnergyEvent::DramAccess,
                         static_cast<double>(st.dramBytes) / lineBytes);
    st.energyJoules = sys_.energy().totalJoules();

    // Dispatch provenance: which SIMD table the bitserial layer resolved
    // to.
    st.simdIsa = simd::activeIsa();

    // Fault and recovery totals come from the injector — the single
    // source of truth across the NoC, the controller, and the fabric.
    FaultStats fs = sys_.faultInjector().snapshot();
    st.faultsInjected = fs.totalInjected();
    st.faultsDetected = fs.detected;
    st.faultRetries = fs.retries;
    st.retryCycles = static_cast<Tick>(fs.retryCycles);
}

} // namespace infs
