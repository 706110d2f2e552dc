/**
 * @file
 * The traced driver: Executor::run rebuilt from the library's public
 * layer calls, in the executor's order, with a span around every call
 * into a layer and counters at the same boundaries. It must reproduce
 * Executor::run's ExecStats exactly; the benchmark checks that on every
 * run, which proves the spans time the program the executor runs.
 *
 * This copy exists only until the simulator records its own layer spans;
 * then the benchmark reads those and this file goes.
 */

#ifndef PERFBENCH_DRIVER_HH
#define PERFBENCH_DRIVER_HH

#include <cstdint>

#include "core/executor.hh"
#include "trace.hh"

namespace perfbench {

/** Work counted at the layer boundaries of traced runs. */
struct LayerCounts {
    std::uint64_t tdfgBuilds = 0;     ///< Phase::buildTdfg calls.
    std::uint64_t jitLowerings = 0;   ///< Cold lowerings (JitStats).
    std::uint64_t jitMemoHits = 0;    ///< Memo lookups served (JitStats).
    std::uint64_t jitCandidates = 0;  ///< Fat-binary candidates lowered.
    std::uint64_t jitCommands = 0;    ///< Commands of cold lowerings.
    std::uint64_t cmdoptRewrites = 0; ///< Fused + deduped + elided cmds.
    std::uint64_t walkCmds = 0;       ///< Commands walked by execute().
    std::uint64_t nearRuns = 0;       ///< NearStreamEngine::run calls.
    std::uint64_t dispatches = 0;     ///< Region dispatches (operations).
};

/**
 * Run @p w under @p paradigm on @p sys exactly as Executor::run does
 * (timing only, no functional store), recording spans into @p tr and
 * adding to @p counts.
 */
infs::ExecStats tracedRun(infs::InfinitySystem &sys, infs::Paradigm paradigm,
                          const infs::Workload &w, Tracer &tr,
                          LayerCounts &counts);

} // namespace perfbench

#endif // PERFBENCH_DRIVER_HH
