#include "core/executor.hh"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>

#include "analysis/verify_tdfg.hh"
#include "bitserial/simd.hh"
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

ExecStats
Executor::run(const Workload &w, ArrayStore *store)
{
    sys_.resetStats();
    if (store != nullptr)
        backend_->runWorkloadFunctional(w, *store);

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

    // §4.1: pick the transposed layout from the first tensor phase's
    // hints; one primary layout serves all arrays of the region. Each
    // phase's first-iteration graph is built once here and reused by the
    // plan below.
    LayoutHints hints;
    bool have_tdfg = false;
    std::vector<std::optional<TdfgGraph>> first_graphs(w.phases.size());
    for (std::size_t i = 0; i < w.phases.size(); ++i) {
        const Phase &p = w.phases[i];
        if (p.buildTdfg) {
            const TdfgGraph &g = first_graphs[i].emplace(p.buildTdfg(0));
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
    if (!w.forceTile.empty()) {
        tile.valid = w.forceTile.size() == w.primaryShape.size();
        tile.tile = w.forceTile;
    } else if (have_tdfg) {
        tile = policy.choose(w.primaryShape, w.elemBytes, hints);
    }
    TiledLayout layout;
    if (tile.valid) {
        auto made = TiledLayout::make(w.primaryShape, tile.tile);
        if (!made) {
            // A forced tile violating the layout constraints is a
            // recoverable user error, not a crash: degrade the whole
            // region to the fallback paradigm below.
            infs_warn("workload '%s': %s; disabling in-memory execution",
                      w.name.c_str(), made.error().str().c_str());
            ++st.regionsDegraded;
            tile.valid = false;
        } else {
            layout = std::move(*made);
        }
    }
    if (!have_tdfg || !tile.valid) {
        // In-memory computing disabled (§4.1): fall back to near-memory
        // when fused, else to the core.
        if (fused)
            runNearL3(w, st);
        else
            runBase(w, st, cfg.numCores());
        return;
    }
    st.chosenTile = tile.tile;

    // Fat-binary candidate schedules (DESIGN.md §14): when enabled, every
    // memoized primary-layout phase lowers each candidate and the
    // dispatcher below picks one per phase from replayed makespans and
    // the occupancy observed so far. Candidates share the winner's
    // reduce-dim tile size, so any pick is bit-identical. Deliberately
    // independent of jit_enabled: steady-state runs (data transposed,
    // commands precompiled) are exactly where a fat binary applies — the
    // schedules were lowered ahead of time and only the dispatch-time
    // pick remains. Only the chosen program's jitTicks are ever charged,
    // and only when jit_enabled, so timing semantics are unchanged.
    std::vector<TiledLayout> candLayouts;
    if (cfg.fatBinary && w.forceTile.empty() &&
        cfg.fatBinaryCandidates > 1) {
        for (TileDecision &d :
             policy.candidates(w.primaryShape, w.elemBytes, hints,
                               cfg.fatBinaryCandidates))
            candLayouts.emplace_back(w.primaryShape, d.tile);
        if (candLayouts.size() <= 1)
            candLayouts.clear();
    }

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
        st.dramBytes += prep.dramBytes;
    };

    // Waves: element sets larger than the bitline pool execute in passes.
    std::int64_t primary_elems = 1;
    for (Coord s : w.primaryShape)
        primary_elems *= s;
    Tick waves = static_cast<Tick>(
        (primary_elems + cfg.l3.totalBitlines() - 1) /
        cfg.l3.totalBitlines());
    waves = std::max<Tick>(waves, 1);

    // ---- Plan (DESIGN.md §10): resolve each phase's route with the pure
    // checks only — graph invariants, layout choice, Eq. 2 — so the JIT
    // work of independent regions can fan out before the sequential
    // timing walk below. The checks are side-effect free; hoisting them
    // is behavior-identical to the former in-loop order.
    enum class Route {
        Irregular,   ///< No tDFG: near memory (fused) or the core.
        DegradeTdfg, ///< Graph verification failed; degrade the region.
        Fallback,    ///< No valid phase layout, or Eq. 2 said no.
        InMemory,    ///< Offloaded to the fabric.
    };
    struct PhasePlan {
        const Phase *phase = nullptr;
        Route route = Route::Irregular;
        Error error;          ///< DegradeTdfg diagnostic.
        // Rank-1 placeholder until the phase's graph is built (TdfgGraph
        // has no empty state).
        TdfgGraph g0{1};      ///< First-iteration graph (set when built).
        bool usesOwnLayout = false;
        TiledLayout ownLayout; ///< Phase-specific layout when set.
        std::string memoKey;   ///< Non-empty on the memoized path.
        /** Pre-lowered program (memoized path), set bank-parallel. */
        std::optional<Expected<std::shared_ptr<const InMemProgram>>> prog;
        /** Fat-binary: one program per candidate layout, index-aligned
         * with candLayouts (primary-layout memoized phases only). */
        std::vector<Expected<std::shared_ptr<const InMemProgram>>>
            candProgs;
    };
    std::vector<PhasePlan> plans;
    plans.reserve(w.phases.size());
    for (std::size_t i = 0; i < w.phases.size(); ++i) {
        const Phase &p = w.phases[i];
        PhasePlan plan;
        plan.phase = &p;
        if (!p.buildTdfg) {
            plans.push_back(std::move(plan));
            continue;
        }
        plan.g0 = std::move(*first_graphs[i]);

        // Pre-offload verification (DESIGN.md §9): a graph that fails its
        // invariants never reaches the offload decision or the JIT.
        if (cfg.verifyLevel != VerifyLevel::Off) {
            if (auto ok = checkTdfg(plan.g0); !ok) {
                plan.route = Route::DegradeTdfg;
                plan.error = ok.error();
                plans.push_back(std::move(plan));
                continue;
            }
        }

        // Phases whose lattice rank differs from the workload layout get
        // their own layout (or fall back when none is valid).
        if (!p.latticeShape.empty() || plan.g0.dims() != layout.dims()) {
            std::vector<Coord> shape =
                p.latticeShape.empty() ? w.primaryShape : p.latticeShape;
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

        TdfgSummary summary = plan.g0.summarize();
        // Eq. 2 (§4.3): Inf-S chooses between in- and near-memory; In-L3
        // (no near-memory support) between in-memory and the core. The
        // Fig 2 steady-state mode forces in-memory to plot the paradigm
        // itself.
        OffloadDecision dec = decideOffload(summary, cfg, !jit_enabled);
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

    // ---- Pre-lower independent regions bank-parallel (DESIGN.md §10).
    // Each memoized phase lowers exactly once here; the timing walk
    // consumes the cold program directly, so the JIT time lands on the
    // same iteration and JitStats match the sequential order.
    {
        std::vector<PhasePlan *> jobs;
        for (PhasePlan &plan : plans)
            if (plan.route == Route::InMemory && !plan.memoKey.empty())
                jobs.push_back(&plan);
        auto lowerOne = [&](PhasePlan *plan) {
            if (!plan->usesOwnLayout && !candLayouts.empty()) {
                plan->candProgs = sys_.jit().lowerCandidates(
                    plan->g0, candLayouts, sys_.map(), plan->memoKey);
                // Candidate 0 is the policy winner — the legacy choice —
                // so the degradation path below is unchanged when it
                // fails.
                plan->prog = plan->candProgs.front();
            } else {
                const TiledLayout &use_layout =
                    plan->usesOwnLayout ? plan->ownLayout : layout;
                plan->prog = sys_.jit().tryLower(
                    plan->g0, use_layout, sys_.map(), plan->memoKey);
            }
        };
        ThreadPool &pool = sys_.pool();
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

    // ---- Sequential timing walk: all simulated-time, traffic, energy,
    // and fault accounting happens here, in phase order, exactly as the
    // single-thread engine did.

    // Bank occupancy observed across the regions executed so far; feeds
    // the fat-binary dispatcher of later phases (empty history means the
    // cost reduces to the replayed makespan alone).
    FabricStats observed;
    for (PhasePlan &plan : plans) {
        const Phase &p = *plan.phase;
        Tick phase_start = st.cycles;
        if (plan.route == Route::Irregular ||
            plan.route == Route::Fallback) {
            // No tDFG, no valid phase layout, or Eq. 2 says in-memory does
            // not pay: fused runs the stream form near memory; In-L3 has
            // no near-memory support and falls back to the core.
            runNearOrCore(p, st, fused, 0, p.iterations);
            st.phaseCycles.emplace_back(p.name, st.cycles - phase_start);
            continue;
        }
        if (plan.route == Route::DegradeTdfg) {
            degradeRegion(p, st, 0, p.iterations, plan.error);
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
            // The first iteration pays the JIT; the rest reuse the
            // memoized program (§4.2). Lowered bank-parallel above.
            auto &prog_or = *plan.prog;
            if (!prog_or) {
                degradeRegion(p, st, 0, p.iterations, prog_or.error());
                st.phaseCycles.emplace_back(p.name,
                                            st.cycles - phase_start);
                continue;
            }
            std::shared_ptr<const InMemProgram> prog = *prog_or;
            const TiledLayout *exec_layout = &use_layout;
            if (!plan.candProgs.empty()) {
                // Fat-binary dispatch (DESIGN.md §14): probe each cleanly
                // lowered candidate's makespan on private replay models,
                // then pick with the occupancy observed so far. Only the
                // chosen program's JIT time is charged below — the others
                // were lowered ahead of dispatch (that is the fat binary).
                std::vector<ScheduleCandidate> cands;
                std::vector<unsigned> ids;
                for (unsigned c = 0; c < plan.candProgs.size(); ++c) {
                    if (!plan.candProgs[c])
                        continue; // Candidate failed to lower: drop it.
                    ScheduleCandidate sc;
                    sc.layout = candLayouts[c];
                    sc.prog = *plan.candProgs[c];
                    BackendJob job{candLayouts[c], sc.prog, primary_elems};
                    sc.replayCycles =
                        replayTiming(cfg, job, &sys_.pool()).simCycles;
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
            InMemExecResult r = sys_.tensorController().execute(
                *prog, *exec_layout, 0, p.iterations);
            if (r.failed) {
                // The aborted attempt (including its retry time) is sunk
                // cost; the region then reruns on the fallback path.
                st.cycles += r.cycles;
                degradeRegion(p, st, 0, p.iterations,
                              Error{ErrCode::CommandFailed,
                                    "in-memory command fault persisted "
                                    "past the retry budget"});
                st.phaseCycles.emplace_back(p.name,
                                            st.cycles - phase_start);
                continue;
            }
            accumulate(r);
        } else {
            // Changing parameters defeat memoization (gauss_elim, §8).
            // Graphs build sequentially; lowering fans out in bounded
            // blocks of 32 lowerings per thread, so each round of worker
            // wake-ups is amortized over many whole programs. When a
            // lowering fails, the block may have lowered graphs past the
            // failing iteration speculatively — that shows in JitStats
            // only; ExecStats and the degradation point are unchanged
            // (DESIGN.md §10).
            ThreadPool &pool = sys_.pool();
            const std::uint64_t block =
                pool.inlineOnly() ? 1 : 32 * std::uint64_t{pool.threads()};
            bool degraded = false;
            for (std::uint64_t it0 = 0;
                 it0 < p.iterations && !degraded; it0 += block) {
                const std::uint64_t n =
                    std::min<std::uint64_t>(block, p.iterations - it0);
                std::vector<TdfgGraph> graphs;
                graphs.reserve(n);
                for (std::uint64_t k = 0; k < n; ++k) {
                    graphs.push_back(it0 + k == 0
                                         ? std::move(plan.g0)
                                         : p.buildTdfg(it0 + k));
                }
                using ProgOr =
                    Expected<std::shared_ptr<const InMemProgram>>;
                std::vector<std::optional<ProgOr>> progs(n);
                auto lowerK = [&](std::uint64_t k) {
                    progs[k] = sys_.jit().tryLower(graphs[k], use_layout,
                                                   sys_.map());
                };
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
                for (std::uint64_t k = 0; k < n; ++k) {
                    const std::uint64_t it = it0 + k;
                    ProgOr &prog_or = *progs[k];
                    if (!prog_or) {
                        degradeRegion(p, st, it, p.iterations - it,
                                      prog_or.error());
                        degraded = true;
                        break;
                    }
                    const auto &prog = *prog_or;
                    if (jit_enabled) {
                        st.jitCycles += prog->jitTicks;
                        st.cycles += prog->jitTicks;
                    }
                    InMemExecResult r = sys_.tensorController().execute(
                        *prog, use_layout, 0);
                    if (r.failed) {
                        st.cycles += r.cycles;
                        degradeRegion(p, st, it, p.iterations - it,
                                      Error{ErrCode::CommandFailed,
                                            "in-memory command fault "
                                            "persisted past the retry "
                                            "budget"});
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

        // Residual work: final reductions / irregular updates coupled to
        // the in-memory part.
        if (!p.residualStreams.empty()) {
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

    // Dispatch provenance (schema v5): which SIMD table the bitserial
    // layer resolved to and how many NUMA nodes the pool pins across.
    st.simdIsa = simd::activeIsa();
    st.numaNodes = sys_.pool().numaNodes();

    // Fault and recovery totals come from the injector — the single
    // source of truth across the NoC, the controller, and the fabric.
    FaultStats fs = sys_.faultInjector().snapshot();
    st.faultsInjected = fs.totalInjected();
    st.faultsDetected = fs.detected;
    st.faultRetries = fs.retries;
    st.retryCycles = static_cast<Tick>(fs.retryCycles);
}

} // namespace infs
