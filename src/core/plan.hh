/**
 * @file
 * The region plan: everything the runtime decides about a workload before
 * it executes (DESIGN.md §10). Per phase, the first-iteration graph, the
 * layout it runs on and its route (the verification gate, then Eq. 2 of
 * §4.3); per region, the transposed tiled layout of §4.1 (the primary
 * tile, forced or chosen from hints merged over every tensor phase) and
 * its fat-binary candidates. planRegion is the one home of these
 * decisions: the Executor walks a plan, and the tools and tests read
 * their layouts from one.
 */

#ifndef INFS_CORE_PLAN_HH
#define INFS_CORE_PLAN_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/workload.hh"
#include "jit/tiling.hh"
#include "sim/config.hh"
#include "sim/expected.hh"

namespace infs {

/** Where one phase of a region runs. */
enum class Route : std::uint8_t {
    Irregular,   ///< No tDFG: near memory (fused) or the core.
    DegradeTdfg, ///< Graph verification failed; degrade the region.
    Fallback,    ///< No valid phase layout, or Eq. 2 said no.
    InMemory,    ///< Offloaded to the fabric.
};

/** The plan of one phase. */
struct PhasePlan {
    const Phase *phase = nullptr;
    Route route = Route::Irregular;
    Error error; ///< DegradeTdfg diagnostic.
    /** First-iteration graph; set on every tensor phase. */
    std::optional<TdfgGraph> g0;
    /** Runs on the region's primary layout. */
    bool onPrimary = false;
    /** The phase's own layout when its lattice differs from the primary
     * one; unset when it runs on the primary layout or has no layout. */
    std::optional<TiledLayout> ownLayout;
    /** JIT memo key; non-empty on memoized in-memory phases (§4.2). */
    std::string memoKey;
};

/** The plan of one workload region. */
struct RegionPlan {
    /** Layout hints merged over every tensor phase (§4.1). */
    LayoutHints hints;
    /** The primary layout; unset when in-memory computing is disabled
     * (no tensor phase, or no valid tile). */
    std::optional<TiledLayout> layout;
    /** Why a forced tile was rejected; the executor counts it as a
     * degraded region. */
    std::optional<Error> layoutError;
    /** Fat-binary candidate layouts (DESIGN.md §14), the policy winner
     * first; empty unless at least two exist. */
    std::vector<TiledLayout> candidates;
    /** One plan per workload phase, in phase order. Without a primary
     * layout every tensor phase is a Fallback with no layout. */
    std::vector<PhasePlan> phases;

    /** The layout @p p runs on, or nullptr when it has none. */
    const TiledLayout *
    layoutOf(const PhasePlan &p) const
    {
        if (p.onPrimary)
            return &*layout;
        return p.ownLayout ? &*p.ownLayout : nullptr;
    }
};

/**
 * Plan @p w on @p cfg. @p jit_enabled feeds the JIT term of Eq. 2
 * (precompiled commands pay none). Pure: no system model is touched.
 */
RegionPlan planRegion(const Workload &w, const SystemConfig &cfg,
                      bool jit_enabled);

} // namespace infs

#endif // INFS_CORE_PLAN_HH
