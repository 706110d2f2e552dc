/**
 * @file
 * The JIT runtime compiler (§4.2): lowers a scheduled tDFG into in-memory
 * commands for a chosen tiled layout — tensor decomposition (Alg. 1),
 * mv-to-shift compilation (Alg. 2), compute/broadcast/reduce lowering,
 * mapping to L3 banks, synchronization insertion, and memoization.
 */

#ifndef INFS_JIT_JIT_HH
#define INFS_JIT_JIT_HH

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "jit/cmd_effect.hh"
#include "jit/commands.hh"
#include "jit/decompose.hh"
#include "jit/tiling.hh"
#include "sim/config.hh"
#include "sim/expected.hh"
#include "tdfg/graph.hh"

namespace infs {

class ThreadPool;

/**
 * Lower one mv of @p tensor by @p dist along @p dim into shift commands
 * (paper Alg. 2). Commands whose mask does not intersect the tensor are
 * filtered out. Does not fill the banks field.
 */
std::vector<InMemCommand> compileMove(const HyperRect &tensor, unsigned dim,
                                      Coord dist, Coord tile_k);

/** Per-node lowering result: where each node's value lives. */
struct NodeLocation {
    unsigned wl = 0;        ///< Start wordline of the value.
    bool resident = false;  ///< True once assigned.
};

/** JIT statistics across a compiler's lifetime. */
struct JitStats {
    std::uint64_t lowerings = 0;   ///< Cold lowering runs.
    std::uint64_t memoHits = 0;    ///< Programs served from the cache.
    Tick totalJitTicks = 0;        ///< Modeled lowering time total.
    CmdStats cmd;                  ///< Command-optimizer work, summed over
                                   ///< cold lowerings (SystemConfig::cmdOpt).
};

/**
 * The dynamic compiler. One instance per runtime; memoizes lowered
 * programs across repeated executions of the same region (§4.2
 * "Memoization", key for iterative algorithms like stencils).
 */
class JitCompiler
{
  public:
    explicit JitCompiler(const SystemConfig &cfg) : cfg_(cfg) {}

    /**
     * Lower @p g for layout @p layout, reporting user-triggerable
     * failures (out of wordline slots, unsupported mv distance, layout
     * constraint violations) as recoverable diagnostics so the runtime
     * can degrade the region to near-memory or core execution instead
     * of aborting. @p memo_key identifies the (region, parameters) pair
     * for memoization; pass "" to disable.
     * @returns shared program (possibly from cache) or an Error.
     */
    Expected<std::shared_ptr<const InMemProgram>>
    tryLower(const TdfgGraph &g, const TiledLayout &layout,
             const AddressMap &map, const std::string &memo_key = "");

    /**
     * Lower @p g, treating any failure as fatal. Legacy entry point for
     * callers (tests, benches) with no degradation path.
     */
    std::shared_ptr<const InMemProgram>
    lower(const TdfgGraph &g, const TiledLayout &layout,
          const AddressMap &map, const std::string &memo_key = "");

    /**
     * Fat-binary lowering (DESIGN.md §14): lower @p g once per candidate
     * layout, returning one program (or diagnostic) per layout in order.
     * Each candidate memoizes under `memo_key + "@" + <tile signature>`
     * so repeated regions hit the cache per schedule, and the executor
     * can pick any of them at dispatch time. Candidates lower in order
     * on the calling thread.
     */
    std::vector<Expected<std::shared_ptr<const InMemProgram>>>
    lowerCandidates(const TdfgGraph &g,
                    const std::vector<TiledLayout> &layouts,
                    const AddressMap &map, const std::string &memo_key);

    /** Snapshot of the accumulated statistics (mutex-consistent). */
    JitStats stats() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return stats_;
    }
    /** Zero the statistics; the memo keeps its programs. */
    void resetStats()
    {
        std::lock_guard<std::mutex> lock(mu_);
        stats_ = JitStats{};
    }

    /**
     * Does nothing: every lowering runs on the thread that calls
     * tryLower or lowerCandidates (DESIGN.md §10). Kept only because
     * perfbench/src/main.cc attaches its pool, until ROADMAP item 8
     * deletes it. tryLower stays safe to call from concurrent threads,
     * as perfbench's traced replica and the JitThreads tests do: one
     * mutex guards the memo cache and the stats.
     */
    void setThreadPool(ThreadPool * /*pool*/) {}

    /**
     * Post-lowering verification callback (SystemConfig::verifyLevel).
     * Runs on every cold lowering before the program is memoized; a
     * returned Error rejects the program and tryLower reports it, so the
     * runtime degrades the region instead of executing hazardous
     * commands. Installed by InfinitySystem rather than constructed here
     * to keep the analysis layer out of the JIT's dependencies.
     */
    using VerifyHook = std::function<std::optional<Error>(
        const TdfgGraph &, const InMemProgram &, const TiledLayout &,
        const AddressMap &)>;
    void setVerifyHook(VerifyHook hook) { verify_ = std::move(hook); }

    /** Number of wordline slots available per array (wordlineSlots). */
    unsigned numSlots() const { return wordlineSlots(cfg_); }

  private:
    Expected<InMemProgram> doLower(const TdfgGraph &g,
                                   const TiledLayout &layout,
                                   const AddressMap &map);

    SystemConfig cfg_;
    VerifyHook verify_;
    /** Guards stats_ and memo_. */
    mutable std::mutex mu_;
    JitStats stats_;
    /** Memoized programs by key; the first entry for a key wins. */
    std::unordered_map<std::string, std::shared_ptr<const InMemProgram>>
        memo_;
};

/** Eq. 2 offload decision (§4.3). */
struct OffloadDecision {
    bool inMemory = false;
    double coreCycles = 0.0;   ///< LHS: core at peak throughput.
    double inMemCycles = 0.0;  ///< RHS: op latencies + JIT time.
};

/**
 * Decide in- vs near-memory from the tDFG's aggregate hints (the compiler
 * embeds these so the runtime never walks the graph, §4.3).
 */
OffloadDecision decideOffload(const TdfgSummary &summary,
                              const SystemConfig &cfg,
                              bool jit_precompiled = false);

} // namespace infs

#endif // INFS_JIT_JIT_HH
