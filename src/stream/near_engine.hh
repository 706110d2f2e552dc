/**
 * @file
 * Near-stream computing model (the NSC baseline, §2.1/§5.1): streams and
 * their computations execute at the L3 stream engines (SEL3), reading and
 * writing banks directly and forwarding operands to consumer streams over
 * the NoC, with coarse-grained flow control back to the core.
 */

#ifndef INFS_STREAM_NEAR_ENGINE_HH
#define INFS_STREAM_NEAR_ENGINE_HH

#include <string>
#include <vector>

#include "energy/energy.hh"
#include "mem/dram.hh"
#include "mem/l3_model.hh"
#include "noc/mesh.hh"
#include "sim/config.hh"
#include "stream/pattern.hh"

namespace infs {

/** One stream offloaded near memory. */
struct NearStream {
    AccessPattern pattern;
    bool isStore = false;       ///< Writes results to L3.
    bool isReduce = false;      ///< Produces a scalar for the core.
    unsigned flopsPerElem = 0;  ///< Near-stream computation per element.
    /**
     * Index of the consumer stream this stream forwards its data to
     * (§2.1: "Stream A[i] and B[i] directly forward their data to stream
     * C[i]"), or -1 when consumed locally.
     */
    int forwardTo = -1;
    /** Fraction of elements resident in L3 (rest fetched from DRAM). */
    double l3Residency = 1.0;
};

/**
 * Aggregate result of executing a group of streams near memory, for one
 * iteration of the group however many iterations the call charged.
 */
struct NearExecResult {
    Tick cycles = 0;
    Bytes l3Bytes = 0;
    Bytes dramBytes = 0;
    std::uint64_t elements = 0;
    std::uint64_t flops = 0;
};

/**
 * Analytic near-memory execution: accounts bank bandwidth, SEL3 compute
 * throughput, stream migration and forwarding traffic, flow control, and
 * energy. Streams in one group execute concurrently (one kernel phase).
 */
class NearStreamEngine
{
  public:
    NearStreamEngine(const SystemConfig &cfg, MeshNoc &noc, L3Model &l3,
                     DramModel &dram, EnergyAccount &energy)
        : cfg_(cfg), noc_(noc), l3_(l3), dram_(dram), energy_(energy)
    {
    }

    /**
     * Execute a group of concurrent streams near L3, @p repeat times.
     * The group is evaluated once: the NoC, L3, DRAM and energy models
     * are charged for @p repeat iterations, and the result describes one.
     * @param streams The offloaded streams.
     * @param core The core tile that configured the offload (for control
     * traffic).
     * @param elem_bytes Element size (fp32 = 4).
     * @param repeat Iterations of the group to charge (at least one).
     */
    NearExecResult run(const std::vector<NearStream> &streams, BankId core,
                       unsigned elem_bytes = 4, std::uint64_t repeat = 1);

  private:
    SystemConfig cfg_;
    MeshNoc &noc_;
    L3Model &l3_;
    DramModel &dram_;
    EnergyAccount &energy_;
};

} // namespace infs

#endif // INFS_STREAM_NEAR_ENGINE_HH
