/**
 * @file
 * The shared scenario registry: the 17 bench scenarios with their
 * tier-1 (quick), larger (full) and paper (Table 3 / Fig 2 / Fig 19)
 * factories. infs-bench, infs-verify, and the backend differential tests
 * all consume this one table so scenario names and sizes cannot drift
 * between tools.
 */

#ifndef INFS_WORKLOADS_REGISTRY_HH
#define INFS_WORKLOADS_REGISTRY_HH

#include <functional>
#include <string>
#include <vector>

#include "core/workload.hh"

namespace infs {

/** One named scenario with its three size points. */
struct BenchScenario {
    const char *name;
    std::function<Workload()> quick; ///< Tier-1 sizes (CI smoke).
    std::function<Workload()> full;  ///< Larger, still test-machine sizes.
    /** The paper's sizes: Table 3 for the kernels, 4096 points for
     * PointNet++, and Fig 2's largest (4M) point for vec_add/array_sum. */
    std::function<Workload()> paper;
};

/** The 17 seed scenarios. */
const std::vector<BenchScenario> &benchRegistry();

/** Lookup by name; nullptr when unknown. */
const BenchScenario *findScenario(const std::string &name);

} // namespace infs

#endif // INFS_WORKLOADS_REGISTRY_HH
