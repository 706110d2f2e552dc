/**
 * @file
 * Host NUMA node count, reported as run provenance only. Nothing in the
 * simulator places threads or memory by node.
 */

#ifndef INFS_SIM_NUMA_HH
#define INFS_SIM_NUMA_HH

namespace infs {

/** One host's NUMA layout. */
struct NumaTopology {
    /** Online node count; 1 on non-NUMA (or non-Linux) hosts. Kept only
     * because perfbench/src/main.cc reports it. */
    unsigned nodes = 1;
};

/**
 * The running host's topology, counted once from the per-node sysfs
 * cpulist files under /sys/devices/system/node and cached. Falls back to
 * a single node when sysfs is unavailable.
 */
const NumaTopology &numaTopology();

} // namespace infs

#endif // INFS_SIM_NUMA_HH
