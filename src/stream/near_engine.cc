#include "stream/near_engine.hh"

#include <algorithm>

namespace infs {

NearExecResult
NearStreamEngine::run(const std::vector<NearStream> &streams, BankId core,
                      unsigned elem_bytes, std::uint64_t repeat)
{
    infs_assert(repeat > 0, "near-stream group run zero times");
    // The group is a pure function of its streams, so one evaluation
    // serves every iteration: each model is charged once with @p repeat
    // times one iteration's amount. That equals @p repeat separate runs
    // bit for bit. Every amount is an integer (byte, element, flop and
    // message counts) or a dyadic fraction (avgHops() is 21/4 on the 8x8
    // mesh and 5/2 on the 4x4 one; lineBytes and the link-slot count are
    // powers of two), so x * N is x added N times for as long as no
    // partial sum rounds, the argument MeshNoc::accountBulk makes for
    // its uniform_ share (DESIGN.md section 7).
    const double rep = static_cast<double>(repeat);
    NearExecResult res;
    const unsigned banks = cfg_.l3.numBanks;
    const double avg_hops = noc_.avgHops();
    double flops = 0.0;
    Bytes l3_bytes = 0;
    Bytes dram_bytes = 0;
    std::uint64_t flow_msgs = 0;

    // Offload configuration: one message per stream, to a fixed bank
    // (the last bank from core 0, bank 0 from any other core).
    for (const NearStream &s : streams) {
        infs_assert(s.pattern.valid(), "invalid near-stream pattern");
        noc_.send(core, core == 0 ? banks - 1 : 0, 32,
                  TrafficClass::Offload, repeat);
    }

    for (const NearStream &s : streams) {
        const std::uint64_t elems =
            static_cast<std::uint64_t>(s.pattern.numElements());
        const Bytes bytes = elems * elem_bytes;
        res.elements += elems;
        flops += static_cast<double>(elems) * s.flopsPerElem;

        // Bank-side data movement: streams read/write the banks directly.
        l3_bytes += bytes;
        if (s.isStore)
            l3_.write(0, bytes * repeat);
        else
            l3_.read(0, bytes * repeat);

        // Non-resident data comes from DRAM.
        Bytes miss_bytes = static_cast<Bytes>(
            static_cast<double>(bytes) * (1.0 - s.l3Residency));
        dram_bytes += miss_bytes;

        if (s.pattern.indirect()) {
            // Irregular gathers/scatters issue per-element remote requests
            // from the SE to the element's home bank: the reuse-blind
            // traffic the paper calls out for kmeans (§8).
            noc_.accountBulk(static_cast<double>(elems) *
                                 (elem_bytes + 8.0),
                             avg_hops, TrafficClass::Data, repeat);
            // The index stream itself is affine and stays bank-local.
        } else {
            // Stream migration: a control hand-off each interleave granule
            // (usually to the adjacent bank).
            std::uint64_t migrations =
                bytes / static_cast<Bytes>(cfg_.l3.interleave);
            noc_.accountBulk(static_cast<double>(migrations) * 16.0, 1.0,
                             TrafficClass::Offload, repeat);
        }

        // Forwarding to a consumer stream crosses banks (the producing
        // element's home bank vs the consumer element's home bank are
        // generally different under 1 kB interleave).
        if (s.forwardTo >= 0) {
            noc_.accountBulk(static_cast<double>(bytes), avg_hops,
                             TrafficClass::Data, repeat);
        }

        // Coarse-grained flow control with the core (§5.1).
        flow_msgs += (bytes / lineBytes) / cfg_.stream.flowControlLines + 1;

        // Reduce streams ship the final value back to the core.
        if (s.isReduce)
            noc_.send(0, core, elem_bytes, TrafficClass::Offload, repeat);
    }

    noc_.accountBulk(static_cast<double>(flow_msgs) * 16.0, avg_hops,
                     TrafficClass::Offload, repeat);

    // Energy: line-granular bank accesses and per-op SE energy. NoC and
    // DRAM energy is charged centrally from the model totals at stats
    // finalization; charge only the engine-local events here.
    energy_.charge(EnergyEvent::L3Access,
                   static_cast<double>(l3_bytes) / lineBytes * rep);
    energy_.charge(EnergyEvent::StreamEngineOp, flops * rep);

    // Timing: concurrent streams are jointly limited by bank bandwidth,
    // SEL3 compute throughput, and DRAM bandwidth.
    double bw_cycles = static_cast<double>(l3_bytes) /
                       (static_cast<double>(cfg_.l3.htreeBandwidth) * banks);
    double compute_cycles =
        flops / (static_cast<double>(cfg_.stream.sel3LanesFp32) * banks);
    double dram_cycles = static_cast<double>(dram_bytes) /
                         cfg_.dram.bytesPerCycle(cfg_.core.ghz);
    if (dram_bytes > 0)
        dram_.transfer(dram_bytes * repeat);

    double cycles = std::max({bw_cycles, compute_cycles, dram_cycles});
    res.cycles = static_cast<Tick>(cycles) + cfg_.l3.bankLatency +
                 cfg_.stream.computeInitLatency +
                 static_cast<Tick>(avg_hops *
                                   (cfg_.noc.routerStages +
                                    cfg_.noc.linkLatency));
    res.l3Bytes = l3_bytes;
    res.dramBytes = dram_bytes;
    res.flops = static_cast<std::uint64_t>(flops);
    return res;
}

} // namespace infs
