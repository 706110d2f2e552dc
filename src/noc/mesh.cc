#include "noc/mesh.hh"

#include <algorithm>

#include "sim/fault.hh"
#include "sim/logging.hh"

namespace infs {

const char *
trafficClassName(TrafficClass c)
{
    switch (c) {
      case TrafficClass::Control: return "control";
      case TrafficClass::Data: return "data";
      case TrafficClass::Offload: return "offload";
      case TrafficClass::InterTile: return "inter_tile";
    }
    return "?";
}

MeshNoc::MeshNoc(const NocConfig &cfg) : cfg_(cfg)
{
    // Directed links: 4 per node is an overestimate at edges but indexing
    // is simple; nonexistent edge links are simply never charged.
    links_.assign(static_cast<std::size_t>(numNodes()) * 4, 0.0);
}

MeshCoord
MeshNoc::coord(BankId node) const
{
    infs_assert(node < numNodes(), "node %u out of %u", node, numNodes());
    return MeshCoord{node % cfg_.meshX, node / cfg_.meshX};
}

BankId
MeshNoc::node(MeshCoord c) const
{
    infs_assert(c.x < cfg_.meshX && c.y < cfg_.meshY, "coord out of mesh");
    return c.y * cfg_.meshX + c.x;
}

unsigned
MeshNoc::hops(BankId src, BankId dst) const
{
    MeshCoord a = coord(src), b = coord(dst);
    unsigned dx = a.x > b.x ? a.x - b.x : b.x - a.x;
    unsigned dy = a.y > b.y ? a.y - b.y : b.y - a.y;
    return dx + dy;
}

unsigned
MeshNoc::linkIndex(BankId from, BankId to) const
{
    MeshCoord a = coord(from), b = coord(to);
    unsigned dir;
    if (b.x == a.x + 1 && b.y == a.y)
        dir = 0; // east
    else if (a.x == b.x + 1 && b.y == a.y)
        dir = 1; // west
    else if (b.y == a.y + 1 && b.x == a.x)
        dir = 2; // north
    else if (a.y == b.y + 1 && b.x == a.x)
        dir = 3; // south
    else
        infs_panic("nodes %u and %u are not adjacent", from, to);
    return from * 4 + dir;
}

void
MeshNoc::chargeRoute(MeshCoord src, MeshCoord dst, double bytes)
{
    // X-Y dimension-ordered routing, X first: link(from, dir) is
    // from * 4 + dir with dir 0/1/2/3 = east/west/north/south.
    const unsigned row = src.y * cfg_.meshX;
    for (unsigned x = src.x; x < dst.x; ++x)
        links_[(row + x) * 4 + 0] += bytes;
    for (unsigned x = src.x; x > dst.x; --x)
        links_[(row + x) * 4 + 1] += bytes;
    for (unsigned y = src.y; y < dst.y; ++y)
        links_[(y * cfg_.meshX + dst.x) * 4 + 2] += bytes;
    for (unsigned y = src.y; y > dst.y; --y)
        links_[(y * cfg_.meshX + dst.x) * 4 + 3] += bytes;
}

Tick
MeshNoc::send(BankId src, BankId dst, Bytes bytes, TrafficClass cls,
              std::uint64_t count)
{
    unsigned h = hops(src, dst);
    const MeshCoord a = coord(src), b = coord(dst);
    Tick serialization = (bytes + cfg_.linkBytes - 1) / cfg_.linkBytes;
    Tick latency = Tick(h) * (cfg_.routerStages + cfg_.linkLatency) +
                   (serialization > 0 ? serialization - 1 : 0);
    // The link CRC catches a dropped/corrupted packet, which is
    // retransmitted: its route is charged a second time.
    std::uint64_t packets = count;
    Tick retry = 0;
    if (fault_) {
        for (std::uint64_t i = 0; i < count; ++i) {
            if (fault_->sampleNocPacketFault()) {
                ++packets;
                retry = fault_->recordDetection() +
                        fault_->recordRetry(latency);
            }
        }
    }
    // Integer byte counts: charging packets x bytes once equals charging
    // bytes once per packet, bit for bit.
    const double charged =
        static_cast<double>(bytes) * static_cast<double>(packets);
    hopBytes_[static_cast<unsigned>(cls)] += charged * h;
    chargeRoute(a, b, charged);
    return latency + retry;
}

void
MeshNoc::accountBulk(double bytes, double avg_hops, TrafficClass cls,
                     std::uint64_t count)
{
    double hop_bytes = bytes * avg_hops * static_cast<double>(count);
    if (fault_) {
        // Line-sized packets; faulted ones are retransmitted, so the flows
        // carry that many extra packets' worth of hop-bytes.
        auto packets = static_cast<std::uint64_t>(
            (bytes + double(lineBytes) - 1.0) / double(lineBytes));
        std::uint64_t faulted = 0;
        for (std::uint64_t i = 0; i < count; ++i)
            faulted += fault_->sampleNocBulkFaults(packets);
        for (std::uint64_t i = 0; i < faulted; ++i) {
            fault_->recordDetection();
            fault_->recordRetry();
        }
        hop_bytes += double(faulted) * double(lineBytes) * avg_hops;
    }
    hopBytes_[static_cast<unsigned>(cls)] += hop_bytes;
    // Spread occupancy uniformly over the link slots. Every slot gets the
    // same share, so one scalar carries it for all of them: links_[i] +
    // uniform_ is what adding the share to each slot would give, bit for
    // bit, as long as no partial sum rounds. None does on the shipped
    // machines. avgHops() is 21/4 on the 8x8 mesh and 5/2 on the 4x4
    // one; the callers' other hop and crossing factors are integers over
    // a power-of-two bank or arrays-per-bank count; the slot count is a
    // power of two. So every share is a multiple of 2^-22 byte, and a
    // per-slot sum could round only past 2^31 bytes (2^53 such units).
    // The same argument makes a counted call equal @p count calls.
    uniform_ += hop_bytes / static_cast<double>(links_.size());
}

double
MeshNoc::avgHops() const
{
    // Mean Manhattan distance on an X x Y mesh: (X^2-1)/(3X) + (Y^2-1)/(3Y).
    double x = cfg_.meshX, y = cfg_.meshY;
    return (x * x - 1.0) / (3.0 * x) + (y * y - 1.0) / (3.0 * y);
}

double
MeshNoc::hopBytes(TrafficClass cls) const
{
    return hopBytes_[static_cast<unsigned>(cls)];
}

double
MeshNoc::totalHopBytes() const
{
    double t = 0.0;
    for (double v : hopBytes_)
        t += v;
    return t;
}

double
MeshNoc::utilization(Tick elapsed) const
{
    if (elapsed == 0)
        return 0.0;
    double busy_cycles = 0.0;
    for (double b : links_)
        busy_cycles += (b + uniform_) / static_cast<double>(cfg_.linkBytes);
    // Count only links that physically exist (interior of the mesh):
    // horizontal: (X-1)*Y per direction, vertical: X*(Y-1) per direction.
    double real_links =
        2.0 * ((cfg_.meshX - 1) * cfg_.meshY + cfg_.meshX * (cfg_.meshY - 1));
    return busy_cycles / (real_links * static_cast<double>(elapsed));
}

double
MeshNoc::linkBusyBytes(BankId from, BankId to) const
{
    return links_[linkIndex(from, to)] + uniform_;
}

void
MeshNoc::resetStats()
{
    hopBytes_.fill(0.0);
    std::fill(links_.begin(), links_.end(), 0.0);
    uniform_ = 0.0;
}

} // namespace infs
