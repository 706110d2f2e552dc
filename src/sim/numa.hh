/**
 * @file
 * Host NUMA topology discovery for worker pinning (DESIGN.md §14). On a
 * multi-node host the thread pool pins its workers round-robin across the
 * nodes, so memory a worker first touches stays local to its node. On a
 * single-node host everything here degenerates to "1 node, no pinning" and
 * the thread pool behaves exactly as before.
 */

#ifndef INFS_SIM_NUMA_HH
#define INFS_SIM_NUMA_HH

#include <string>
#include <vector>

namespace infs {

/** One host's NUMA layout: the online nodes and each node's CPUs. */
struct NumaTopology {
    /** Online node count; 1 on non-NUMA (or non-Linux) hosts. */
    unsigned nodes = 1;
    /** nodeCpus[n] = CPU ids owned by node n (may be empty for
     * memory-only nodes; such nodes take no pinned workers). */
    std::vector<std::vector<unsigned>> nodeCpus;
};

/**
 * The running host's topology, parsed once from the per-node sysfs
 * cpulist files under /sys/devices/system/node and cached. Falls back to
 * a single node when sysfs is unavailable.
 */
const NumaTopology &numaTopology();

/** Parse a Linux cpulist string ("0-3,8,10-11") into CPU ids. Exposed for
 * tests; malformed chunks are skipped. */
std::vector<unsigned> parseCpuList(const std::string &list);

} // namespace infs

#endif // INFS_SIM_NUMA_HH
