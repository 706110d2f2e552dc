#include "core/plan.hh"

#include "analysis/verify_tdfg.hh"
#include "jit/jit.hh"

namespace infs {

RegionPlan
planRegion(const Workload &w, const SystemConfig &cfg, bool jit_enabled)
{
    RegionPlan plan;
    // Each phase's first-iteration graph is built once, here; its hints
    // merge into one primary layout for all arrays of the region (§4.1).
    std::vector<std::optional<TdfgGraph>> graphs(w.phases.size());
    bool have_tdfg = false;
    for (std::size_t i = 0; i < w.phases.size(); ++i) {
        const Phase &p = w.phases[i];
        if (!p.buildTdfg)
            continue;
        LayoutHints h =
            LayoutHints::fromGraph(graphs[i].emplace(p.buildTdfg(0)));
        plan.hints.shiftDims.insert(h.shiftDims.begin(), h.shiftDims.end());
        plan.hints.broadcastDims.insert(h.broadcastDims.begin(),
                                        h.broadcastDims.end());
        if (h.reduceDim)
            plan.hints.reduceDim = h.reduceDim;
        have_tdfg = true;
    }

    TilingPolicy policy(cfg.l3);
    if (!w.forceTile.empty()) {
        // A forced tile is user input: a violation is a recoverable error
        // the executor counts, not a crash.
        auto made = TiledLayout::make(w.primaryShape, w.forceTile);
        if (!made)
            plan.layoutError = made.error();
        else if (have_tdfg)
            plan.layout = std::move(*made);
    } else if (have_tdfg) {
        TileDecision d = policy.choose(w.primaryShape, w.elemBytes,
                                       plan.hints);
        if (d.valid)
            plan.layout.emplace(w.primaryShape, std::move(d.tile));
    }

    // Fat-binary candidates share the winner's reduce-dim tile size, so
    // any pick is bit-identical (DESIGN.md §14).
    if (plan.layout && cfg.fatBinary && w.forceTile.empty() &&
        cfg.fatBinaryCandidates > 1) {
        for (TileDecision &d :
             policy.candidates(w.primaryShape, w.elemBytes, plan.hints,
                               cfg.fatBinaryCandidates))
            plan.candidates.emplace_back(w.primaryShape, std::move(d.tile));
        if (plan.candidates.size() <= 1)
            plan.candidates.clear();
    }

    plan.phases.resize(w.phases.size());
    for (std::size_t i = 0; i < w.phases.size(); ++i) {
        const Phase &p = w.phases[i];
        PhasePlan &pp = plan.phases[i];
        pp.phase = &p;
        if (!graphs[i])
            continue; // Route::Irregular.
        const TdfgGraph &g0 = pp.g0.emplace(std::move(*graphs[i]));
        if (!plan.layout) {
            pp.route = Route::Fallback;
            continue;
        }

        // Phases whose lattice differs from the primary one get their own
        // layout, or none.
        if (p.latticeShape.empty() && g0.dims() == plan.layout->dims()) {
            pp.onPrimary = true;
        } else {
            std::vector<Coord> shape =
                p.latticeShape.empty() ? w.primaryShape : p.latticeShape;
            if (shape.size() == g0.dims()) {
                TileDecision d = policy.choose(shape, w.elemBytes,
                                               LayoutHints::fromGraph(g0));
                if (d.valid)
                    pp.ownLayout.emplace(std::move(shape), std::move(d.tile));
            }
        }

        // Pre-offload verification (DESIGN.md §9): a graph that fails its
        // invariants never reaches the offload decision or the JIT.
        if (cfg.verifyLevel != VerifyLevel::Off) {
            if (auto ok = checkTdfg(g0); !ok) {
                pp.route = Route::DegradeTdfg;
                pp.error = ok.error();
                continue;
            }
        }
        // Eq. 2 (§4.3): Inf-S chooses between in- and near-memory; In-L3
        // (no near-memory support) between in-memory and the core. The
        // Fig 2 steady-state mode forces in-memory to plot the paradigm
        // itself.
        if (plan.layoutOf(pp) == nullptr ||
            (!w.assumeTransposed &&
             !decideOffload(g0.summarize(), cfg, !jit_enabled).inMemory)) {
            pp.route = Route::Fallback;
            continue;
        }
        pp.route = Route::InMemory;
        if (p.sameTdfgEachIter)
            pp.memoKey = w.name + "/" + p.name;
    }
    return plan;
}

} // namespace infs
