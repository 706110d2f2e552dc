#include "jit/cmd_effect.hh"

#include <algorithm>

namespace infs {

unsigned
wordlineSlots(const SystemConfig &cfg)
{
    const unsigned bits = dtypeBits(cfg.tensor.elemType);
    const unsigned slots = bits ? cfg.l3.wordlines / bits : 0;
    return slots > 1 ? slots - 1 : 0; // Guard the wordlines<bits case.
}

ReadSlots
readSlots(const InMemCommand &c)
{
    ReadSlots r;
    switch (c.kind) {
      case CmdKind::IntraShift:
      case CmdKind::InterShift:
      case CmdKind::BroadcastBl:
        r.slot[r.count++] = c.wlA;
        break;
      case CmdKind::Compute:
        r.slot[r.count++] = c.wlA;
        if (!c.useImm)
            r.slot[r.count++] = c.wlB;
        break;
      case CmdKind::BroadcastVal:
      case CmdKind::Sync:
        break;
    }
    return r;
}

bool
usesDim(const InMemCommand &c)
{
    return isShift(c.kind) || c.kind == CmdKind::BroadcastBl ||
           (c.kind == CmdKind::Compute && c.maskHi > c.maskLo);
}

bool
sameEffect(const InMemCommand &a, const InMemCommand &b)
{
    return a.kind == b.kind && a.dim == b.dim && a.maskLo == b.maskLo &&
           a.maskHi == b.maskHi && a.interTileDist == b.interTileDist &&
           a.intraTileDist == b.intraTileDist && a.bcCount == b.bcCount &&
           a.bcDist == b.bcDist && a.op == b.op && a.dtype == b.dtype &&
           a.useImm == b.useImm && a.imm == b.imm && a.wlA == b.wlA &&
           a.wlB == b.wlB && a.wlDst == b.wlDst;
}

CmdEffect
effectOf(const InMemCommand &c, const TiledLayout &layout,
         const HyperRect &array_rect)
{
    CmdEffect e;
    e.src = c.tensor.intersect(array_rect);
    switch (c.kind) {
      case CmdKind::IntraShift:
      case CmdKind::InterShift: {
        const Coord tile_k = layout.tileSize(c.dim);
        e.dst = c.tensor
                    .shifted(c.dim,
                             c.interTileDist * tile_k + c.intraTileDist)
                    .intersect(array_rect);
        e.async = c.kind == CmdKind::InterShift;
        break;
      }
      case CmdKind::BroadcastBl: {
        const Coord span = c.tensor.size(c.dim);
        e.dst = c.tensor
                    .withDim(c.dim, c.tensor.lo(c.dim) + c.bcDist,
                             c.tensor.lo(c.dim) + c.bcDist +
                                 c.bcCount * span)
                    .intersect(array_rect);
        e.async = c.bcCount * span > layout.tileSize(c.dim);
        break;
      }
      default:
        e.dst = e.src;
        break;
    }
    return e;
}

CmdDep
asyncDependence(const InMemCommand &w, const CmdEffect &we,
                const InMemCommand &r, const CmdEffect &re,
                const TiledLayout &layout, const AddressMap &map)
{
    if (r.group == w.group)
        return CmdDep::None; // Same-group restatement.
    if (readSlots(r).contains(w.wlDst)) {
        const HyperRect o = we.dst.intersect(re.src);
        if (!o.empty() && layout.banksFor(o, map).intersects(r.banks))
            return CmdDep::Raw;
    }
    if (r.wlDst == w.wlDst) {
        const HyperRect o = we.dst.intersect(re.dst);
        if (!o.empty() && layout.banksFor(o, map).intersects(r.banks))
            return CmdDep::Waw;
    }
    return CmdDep::None;
}

std::uint64_t
maskedElements(const InMemCommand &c, const TiledLayout &layout)
{
    const HyperRect &t = c.tensor;
    if (t.empty())
        return 0;
    // Compute commands carry a positional mask only when the JIT set one
    // (reduction rounds); an unset mask (maskHi == 0) means all cells.
    if ((c.kind == CmdKind::Compute && c.maskHi <= c.maskLo) ||
        c.kind == CmdKind::BroadcastBl || c.kind == CmdKind::BroadcastVal)
        return static_cast<std::uint64_t>(t.volume());
    // Shift commands: count dim-k coordinates whose in-tile position lies
    // inside the mask.
    const auto covered = static_cast<std::uint64_t>(
        maskedCoordCount(t.lo(c.dim), t.hi(c.dim), layout.tileSize(c.dim),
                         c.maskLo, c.maskHi));
    return covered * static_cast<std::uint64_t>(t.volume() / t.size(c.dim));
}

MoveCharge
moveCharge(const InMemCommand &c, const TiledLayout &layout,
           const AddressMap &map, const SystemConfig &cfg)
{
    MoveCharge m;
    const unsigned elem_bytes = dtypeBits(cfg.tensor.elemType) / 8;
    m.bytesOnce = static_cast<double>(maskedElements(c, layout)) * elem_bytes;
    const double banks_involved =
        static_cast<double>(std::max<std::size_t>(c.banks.size(), 1));
    m.htree = LatencyTable().intraShiftCycles(c.dtype) + 8 +
              static_cast<Tick>(m.bytesOnce / banks_involved /
                                static_cast<double>(cfg.l3.htreeBandwidth));
    if (c.kind != CmdKind::InterShift)
        return m;
    // Linear tile-index delta of the shift along its dimension. With the
    // contiguous tile->array mapping, only tiles whose destination crosses
    // a bank boundary inject NoC packets; the rest travel the bank's H
    // tree (§5.2).
    std::int64_t stride = 1;
    for (unsigned d = 0; d < c.dim; ++d)
        stride *= layout.grid()[d];
    const std::int64_t tile_delta = c.interTileDist * stride;
    m.tileDelta = tile_delta < 0 ? -tile_delta : tile_delta;
    const double crossing = std::min(
        1.0, static_cast<double>(m.tileDelta) /
                 static_cast<double>(map.arraysPerBank()));
    if (crossing > 0.0 && m.tileDelta > 0) {
        m.crossing = crossing;
        m.noc = static_cast<Tick>(m.bytesOnce * crossing / banks_involved /
                                  static_cast<double>(cfg.noc.linkBytes));
    }
    return m;
}

} // namespace infs
