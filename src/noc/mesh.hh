/**
 * @file
 * 8x8 mesh network-on-chip model: X-Y dimension-ordered routing, per-link
 * bandwidth and utilization accounting, and traffic categorization matching
 * the paper's Fig. 12/13 breakdown (control / data / offload / inter-tile).
 */

#ifndef INFS_NOC_MESH_HH
#define INFS_NOC_MESH_HH

#include <array>
#include <cstdint>
#include <vector>

#include "sim/config.hh"
#include "sim/types.hh"

namespace infs {

class FaultInjector;

/** Traffic categories for the paper's breakdown figures. */
enum class TrafficClass : std::uint8_t {
    Control,     ///< Coherence control messages.
    Data,        ///< Moving data (request/response payloads).
    Offload,     ///< Managing offloaded computation (streams, sync).
    InterTile,   ///< Inter-tile shifts routed over the NoC (Inf-S only).
};

inline constexpr unsigned numTrafficClasses = 4;

/** Human-readable traffic class name. */
const char *trafficClassName(TrafficClass c);

/** (x, y) position on the mesh. */
struct MeshCoord {
    unsigned x = 0;
    unsigned y = 0;
    bool operator==(const MeshCoord &o) const = default;
};

/**
 * The mesh NoC. Messages are accounted analytically: each message charges
 * bytes x hops to its traffic class and occupies the traversed links for
 * its serialization time, which feeds the utilization statistic.
 */
class MeshNoc
{
  public:
    explicit MeshNoc(const NocConfig &cfg);

    unsigned numNodes() const { return cfg_.meshX * cfg_.meshY; }

    MeshCoord coord(BankId node) const;
    BankId node(MeshCoord c) const;

    /** Manhattan hop distance between two nodes. */
    unsigned hops(BankId src, BankId dst) const;

    /**
     * Account @p count identical unicast messages (one by default).
     * Without a fault injector the route is charged once with @p count
     * times the bytes; with one, faults are sampled per message, exactly
     * as @p count separate sends would sample them.
     * @return Latency in ticks for the head of one message to reach dst
     * plus serialization of its payload, plus one retransmission when any
     * message faulted.
     */
    Tick send(BankId src, BankId dst, Bytes bytes, TrafficClass cls,
              std::uint64_t count = 1);

    /**
     * Account bulk traffic analytically: @p count flows (one by default)
     * of @p bytes each, moving an average of @p avg_hops hops. Used for
     * aggregate flows (stream forwarding) where per-message routing is
     * not enumerated; link occupancy is spread uniformly over every link
     * slot, in O(1). With a fault injector, faults are sampled per flow,
     * as @p count separate calls would sample them.
     */
    void accountBulk(double bytes, double avg_hops, TrafficClass cls,
                     std::uint64_t count = 1);

    /** Mean hop distance between two uniformly random distinct nodes. */
    double avgHops() const;

    /** Total bytes x hops accounted to a class. */
    double hopBytes(TrafficClass cls) const;

    /** Total bytes x hops across all classes. */
    double totalHopBytes() const;

    /**
     * Average link utilization over @p elapsed ticks: busy link-cycles /
     * (links x elapsed). Phase time is not yet bounded by link load, so
     * a phase that moves more bytes than the mesh carries in @p elapsed
     * reads above 1.
     */
    double utilization(Tick elapsed) const;

    /**
     * Bytes charged so far to the directed link from node @p from to the
     * adjacent node @p to: its unicast traffic plus its share of the
     * uniformly spread bulk traffic.
     */
    double linkBusyBytes(BankId from, BankId to) const;

    /** Zero all traffic accounting. */
    void resetStats();

    /**
     * Attach a fault injector (nullptr detaches). Injected packet faults
     * are caught by the link-level CRC and retransmitted: the message's
     * links are charged again and the latency grows by the detection and
     * retry penalty, so faulty runs stay functionally correct but slower.
     */
    void attachFaultInjector(FaultInjector *f) { fault_ = f; }

    const NocConfig &config() const { return cfg_; }

  private:
    /** Link index for the hop from node @p from toward adjacent @p to. */
    unsigned linkIndex(BankId from, BankId to) const;

    /**
     * Charge @p bytes to every link of the X-Y route src -> dst, in route
     * order, without enumerating it: east/west along the source row,
     * then north/south along the destination column.
     */
    void chargeRoute(MeshCoord src, MeshCoord dst, double bytes);

    NocConfig cfg_;
    FaultInjector *fault_ = nullptr;
    std::array<double, numTrafficClasses> hopBytes_{};
    // Busy byte-count per directed link (bytes / linkBytes = busy cycles)
    // from the discrete send charges.
    std::vector<double> links_;
    // Busy bytes every link slot carries on top of links_: the bulk
    // traffic, spread uniformly (see accountBulk).
    double uniform_ = 0.0;
};

} // namespace infs

#endif // INFS_NOC_MESH_HH
