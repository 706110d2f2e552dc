#include "jit/jit.hh"

#include <algorithm>
#include <array>
#include <optional>
#include <sstream>

#include "jit/cmdopt.hh"

namespace infs {

const char *
cmdKindName(CmdKind k)
{
    switch (k) {
      case CmdKind::IntraShift: return "intra_shift";
      case CmdKind::InterShift: return "inter_shift";
      case CmdKind::Compute: return "compute";
      case CmdKind::BroadcastBl: return "bc";
      case CmdKind::BroadcastVal: return "bc_imm";
      case CmdKind::Sync: return "sync";
    }
    return "?";
}

std::string
InMemCommand::str() const
{
    std::ostringstream os;
    os << cmdKindName(kind);
    switch (kind) {
      case CmdKind::IntraShift:
      case CmdKind::InterShift:
        os << " " << tensor.str() << " dim=" << dim << " mask=[" << maskLo
           << "," << maskHi << ") inter=" << interTileDist
           << " intra=" << intraTileDist;
        break;
      case CmdKind::Compute:
        os << " " << bitOpName(op) << " " << tensor.str() << " wl=" << wlA
           << (useImm ? ",imm" : ",") << (useImm ? "" : std::to_string(wlB))
           << "->" << wlDst;
        break;
      case CmdKind::BroadcastBl:
        os << " " << tensor.str() << " dim=" << dim << " count=" << bcCount;
        break;
      case CmdKind::BroadcastVal:
        os << " imm=" << imm << " ->" << wlDst;
        break;
      case CmdKind::Sync:
        break;
    }
    return os.str();
}

std::vector<InMemCommand>
compileMove(const HyperRect &tensor, unsigned dim, Coord dist, Coord tile_k)
{
    // Paper Alg. 2.
    std::vector<InMemCommand> out;
    if (dist == 0 || tensor.empty())
        return out;
    const Coord d_abs = dist > 0 ? dist : -dist;
    const Coord d_inter = d_abs / tile_k;
    const Coord d_intra = d_abs % tile_k;
    const Coord d_intra_c = tile_k - d_intra; // Complement.

    auto shift = [&](Coord mask_lo, Coord mask_hi, Coord inter,
                     Coord intra) {
        // Positions within the tile covered by the tensor along dim k:
        // the mask intersects these; empty intersections are filtered
        // (§4.2).
        if (maskedCoordCount(tensor.lo(dim), tensor.hi(dim), tile_k,
                             mask_lo, mask_hi) == 0)
            return;
        InMemCommand c;
        c.kind = inter == 0 ? CmdKind::IntraShift : CmdKind::InterShift;
        c.tensor = tensor;
        c.dim = dim;
        c.maskLo = mask_lo;
        c.maskHi = mask_hi;
        c.interTileDist = inter;
        c.intraTileDist = intra;
        out.push_back(std::move(c));
    };

    if (dist > 0) { // Shift forward (Alg. 2 l. 5-8).
        shift(0, d_intra_c, d_inter, d_intra);
        if (d_intra > 0)
            shift(d_intra_c, tile_k, d_inter + 1, -d_intra_c);
    } else { // Shift backward (Alg. 2 l. 9-12).
        if (d_intra > 0)
            shift(0, d_intra, -(d_inter + 1), d_intra_c);
        shift(d_intra, tile_k, -d_inter, -d_intra);
    }
    return out;
}

namespace {

/** Ceil log2 for reduction round counts. */
unsigned
ceilLog2(Coord v)
{
    unsigned r = 0;
    Coord p = 1;
    while (p < v) {
        p <<= 1;
        ++r;
    }
    return r;
}

} // namespace

Expected<InMemProgram>
JitCompiler::doLower(const TdfgGraph &g, const TiledLayout &layout,
                     const AddressMap &map)
{
    InMemProgram prog;
    // Most nodes lower to one or two commands per subtensor.
    prog.commands.reserve(2 * g.size());
    const DType elem = cfg_.tensor.elemType;
    const unsigned bits = dtypeBits(elem);
    const unsigned num_slots = numSlots();
    // Recoverable failure raised by the allocation lambdas; checked after
    // every allocation site so the first diagnostic wins.
    std::optional<Error> err;

    // ---- Wordline allocation (the static compiler's register allocation
    // of §3.4; slot = `bits` consecutive wordlines). Arrays referenced by
    // tensor/output nodes get stable home slots; temporaries reuse slots
    // freed at their last use. No spilling (§6 limitation 3). Array
    // homes take slots 0, 1, ... in first-reference order, so each
    // array's slot is its index here.
    std::vector<ArrayId> array_slot;
    array_slot.reserve(num_slots);
    auto arrayHome = [&](ArrayId a) -> unsigned {
        auto it = std::find(array_slot.begin(), array_slot.end(), a);
        if (it != array_slot.end())
            return static_cast<unsigned>(it - array_slot.begin());
        unsigned slot = static_cast<unsigned>(array_slot.size());
        if (slot >= num_slots) {
            if (!err) {
                err = Error{ErrCode::OutOfSlots,
                            "tDFG '" + g.name() +
                                "': out of wordline slots for arrays (" +
                                std::to_string(num_slots) +
                                " available) — register spilling "
                                "unsupported (§6)"};
            }
            return 0;
        }
        array_slot.push_back(a);
        return slot;
    };
    // Pre-assign homes for all arrays touched (inputs and outputs).
    for (const TdfgNode &n : g.nodes())
        if (n.kind == TdfgKind::Tensor)
            arrayHome(n.array);
    for (const auto &o : g.outputs())
        arrayHome(o.array);
    if (err)
        return *err;

    // Last use of each node.
    std::vector<NodeId> last_use(g.size());
    for (NodeId id = 0; id < g.size(); ++id) {
        last_use[id] = id;
        for (NodeId op : g.node(id).operands)
            last_use[op] = id;
    }
    for (const auto &o : g.outputs())
        last_use[o.node] = static_cast<NodeId>(g.size());

    std::vector<bool> slot_busy(num_slots, false);
    for (std::size_t s = 0; s < array_slot.size(); ++s)
        slot_busy[s] = true;
    std::vector<NodeLocation> loc(g.size());
    std::vector<int> node_slot(g.size(), -1);

    auto allocSlot = [&](NodeId id) -> unsigned {
        for (unsigned s = 0; s < num_slots; ++s) {
            if (!slot_busy[s]) {
                slot_busy[s] = true;
                node_slot[id] = static_cast<int>(s);
                return s;
            }
        }
        if (!err) {
            err = Error{ErrCode::OutOfSlots,
                        "tDFG '" + g.name() +
                            "': out of wordline registers (" +
                            std::to_string(num_slots) +
                            " slots) — register spilling unsupported (§6)"};
        }
        return 0;
    };
    auto freeDeadSlots = [&](NodeId now) {
        // Free slots whose owner was last consumed by the node just
        // processed (including self-owned dead values).
        for (NodeId id = 0; id <= now; ++id) {
            if (node_slot[id] >= 0 && last_use[id] == now) {
                slot_busy[static_cast<unsigned>(node_slot[id])] = false;
                node_slot[id] = -1;
            }
        }
    };

    // ---- Lowering proper.
    bool pending_inter_tile = false;
    auto syncIfPending = [&]() {
        if (!pending_inter_tile)
            return;
        InMemCommand s;
        s.kind = CmdKind::Sync;
        prog.commands.push_back(std::move(s));
        pending_inter_tile = false;
    };

    auto banksOf = [&](const HyperRect &r) {
        return layout.banksFor(r, map);
    };
    // Bank sets of the compute subtensors mapped so far. Computes over
    // one domain decompose into the same subtensors, so lookups often
    // repeat; an inline table serves them without a heap allocation,
    // and banksFor takes over once it is full. Moves, broadcasts and
    // reductions call banksFor directly.
    struct MappedRect {
        HyperRect rect;
        BankSet banks;
    };
    std::array<MappedRect, 16> compute_banks;
    std::size_t num_compute_banks = 0;
    auto computeBanksOf = [&](const HyperRect &r) {
        for (std::size_t i = 0; i < num_compute_banks; ++i) {
            if (compute_banks[i].rect == r)
                return compute_banks[i].banks;
        }
        const BankSet banks = banksOf(r);
        if (num_compute_banks < compute_banks.size())
            compute_banks[num_compute_banks++] = {r, banks};
        return banks;
    };

    // Operand buffers of compute nodes, reused across nodes.
    std::vector<NodeId> tensor_ops;
    std::vector<double> imms;

    // Subtensors lower in Alg. 1 decomposition order on the calling
    // thread: each yields a handful of commands, far less work than
    // waking a pool worker, so parallelism lives across whole lowerings
    // instead (DESIGN.md §10).
    for (NodeId id = 0; id < g.size(); ++id) {
        const TdfgNode &n = g.node(id);
        switch (n.kind) {
          case TdfgKind::Tensor: {
            loc[id] = {arrayHome(n.array) * bits, true};
            break;
          }
          case TdfgKind::ConstVal: {
            // Constants are broadcast by the TC right before the consuming
            // compute (§5.2); no standalone command.
            break;
          }
          case TdfgKind::Shrink: {
            loc[id] = loc[n.operands[0]]; // Lowered to a nop (appendix).
            break;
          }
          case TdfgKind::Move: {
            syncIfPending();
            const NodeLocation &src = loc[n.operands[0]];
            infs_assert(src.resident, "move of non-resident node");
            if (n.dim >= layout.dims()) {
                return Error{ErrCode::UnsupportedMove,
                             "tDFG '" + g.name() + "': mv along dim " +
                                 std::to_string(n.dim) + " of a rank-" +
                                 std::to_string(layout.dims()) + " layout"};
            }
            const Coord mv_abs = n.dist >= 0 ? n.dist : -n.dist;
            if (mv_abs >= layout.shape()[n.dim]) {
                return Error{ErrCode::UnsupportedMove,
                             "tDFG '" + g.name() + "': mv distance " +
                                 std::to_string(n.dist) +
                                 " exceeds array extent " +
                                 std::to_string(layout.shape()[n.dim]) +
                                 " along dim " + std::to_string(n.dim)};
            }
            unsigned dst_wl = allocSlot(id) * bits;
            if (err)
                return *err;
            // Alg. 1 then Alg. 2 per decomposed subtensor.
            const HyperRect &src_dom = g.domainOf(n.operands[0]);
            auto subs = tryDecomposeTensor(src_dom, layout.tile());
            if (!subs)
                return subs.error();
            for (const HyperRect &sub : *subs) {
                for (InMemCommand c :
                     compileMove(sub, n.dim, n.dist,
                                 layout.tileSize(n.dim))) {
                    c.group = id;
                    c.dtype = elem;
                    c.wlA = src.wl;
                    c.wlDst = dst_wl;
                    c.banks = banksOf(
                        sub.boundingUnion(sub.shifted(n.dim, n.dist)
                                              .intersect(HyperRect::array(
                                                  layout.shape()))));
                    if (c.kind == CmdKind::InterShift)
                        pending_inter_tile = true;
                    prog.commands.push_back(std::move(c));
                }
            }
            loc[id] = {dst_wl, true};
            break;
          }
          case TdfgKind::Broadcast: {
            syncIfPending();
            const NodeLocation &src = loc[n.operands[0]];
            infs_assert(src.resident, "broadcast of non-resident node");
            unsigned dst_wl = allocSlot(id) * bits;
            if (err)
                return *err;
            const HyperRect &src_dom = g.domainOf(n.operands[0]);
            auto subs = tryDecomposeTensor(src_dom, layout.tile());
            if (!subs)
                return subs.error();
            for (const HyperRect &sub : *subs) {
                InMemCommand c;
                c.kind = CmdKind::BroadcastBl;
                c.group = id;
                c.tensor = sub;
                c.dim = n.dim;
                c.bcCount = n.count;
                c.bcDist = n.dist;
                c.dtype = elem;
                c.wlA = src.wl;
                c.wlDst = dst_wl;
                // Banks: source plus the whole destination region.
                HyperRect dst = n.domain.intersect(
                    HyperRect::array(layout.shape()));
                c.banks = banksOf(sub.boundingUnion(dst));
                // Broadcasts beyond one tile traverse the H tree/NoC.
                if (n.count * src_dom.size(n.dim) > layout.tileSize(n.dim))
                    pending_inter_tile = true;
                prog.commands.push_back(std::move(c));
            }
            loc[id] = {dst_wl, true};
            break;
          }
          case TdfgKind::Compute: {
            // Computes fold pairwise into binary commands; a select's
            // predicate would be a third source slot, which no command
            // names, so its region degrades instead of lowering into
            // commands no backend can run.
            if (n.fn == BitOp::Select)
                return Error{ErrCode::InvalidArgument,
                             "tDFG '" + g.name() +
                                 "': select has no command form"};
            syncIfPending();
            unsigned dst_wl = allocSlot(id) * bits;
            if (err)
                return *err;
            // Chain n-ary computes into binary commands.
            // Gather tensor operands and at most the constants as imms.
            tensor_ops.clear();
            imms.clear();
            for (NodeId op : n.operands) {
                if (g.node(op).kind == TdfgKind::ConstVal)
                    imms.push_back(g.node(op).constValue);
                else
                    tensor_ops.push_back(op);
            }
            infs_assert(!tensor_ops.empty(), "compute with only consts");
            auto subs = tryDecomposeTensor(n.domain, layout.tile());
            if (!subs)
                return subs.error();
            for (const HyperRect &sub : *subs) {
                const BankSet banks = computeBanksOf(sub);
                unsigned cur_wl = loc[tensor_ops[0]].wl;
                // Fold further tensor operands pairwise.
                for (std::size_t i = 1; i < tensor_ops.size(); ++i) {
                    InMemCommand c;
                    c.kind = CmdKind::Compute;
                    c.group = id;
                    c.op = n.fn;
                    c.dtype = elem;
                    c.tensor = sub;
                    c.wlA = cur_wl;
                    c.wlB = loc[tensor_ops[i]].wl;
                    c.wlDst = dst_wl;
                    c.banks = banks;
                    prog.commands.push_back(std::move(c));
                    cur_wl = dst_wl;
                }
                // Fold constants as immediate operands.
                for (double imm : imms) {
                    InMemCommand c;
                    c.kind = CmdKind::Compute;
                    c.group = id;
                    c.op = n.fn;
                    c.dtype = elem;
                    c.tensor = sub;
                    c.wlA = cur_wl;
                    c.useImm = true;
                    c.imm = imm;
                    c.wlDst = dst_wl;
                    c.banks = banks;
                    prog.commands.push_back(std::move(c));
                    cur_wl = dst_wl;
                }
                // Unary non-const compute (e.g. relu): single command.
                if (tensor_ops.size() == 1 && imms.empty()) {
                    InMemCommand c;
                    c.kind = CmdKind::Compute;
                    c.group = id;
                    c.op = n.fn;
                    c.dtype = elem;
                    c.tensor = sub;
                    c.wlA = cur_wl;
                    c.wlB = cur_wl;
                    c.wlDst = dst_wl;
                    c.banks = banks;
                    prog.commands.push_back(std::move(c));
                }
            }
            loc[id] = {dst_wl, true};
            break;
          }
          case TdfgKind::Reduce: {
            syncIfPending();
            const NodeLocation &src = loc[n.operands[0]];
            unsigned dst_wl = allocSlot(id) * bits;
            if (err)
                return *err;
            // Scratch register for the shifted operand of each tree
            // round (the accumulator cannot alias its own shift source).
            unsigned tmp_slot = ~0u;
            for (unsigned sslot = 0; sslot < num_slots; ++sslot) {
                if (!slot_busy[sslot]) {
                    slot_busy[sslot] = true;
                    tmp_slot = sslot;
                    break;
                }
            }
            if (tmp_slot == ~0u) {
                return Error{ErrCode::OutOfSlots,
                             "tDFG '" + g.name() +
                                 "': no scratch wordline register for "
                                 "reduction (§6)"};
            }
            unsigned tmp_wl = tmp_slot * bits;
            const HyperRect &src_dom = g.domainOf(n.operands[0]);
            // §4.2: interleaving compute and intra-tile shift commands to
            // fully reduce each tile on the reduced dimension, then
            // inter-tile rounds (synchronized) to combine the per-tile
            // partials when the reduced extent spans multiple tiles.
            Coord extent = std::min<Coord>(src_dom.size(n.dim),
                                           layout.tileSize(n.dim));
            unsigned rounds = ceilLog2(extent);
            Coord tiles_along =
                (src_dom.size(n.dim) + layout.tileSize(n.dim) - 1) /
                layout.tileSize(n.dim);
            unsigned inter_rounds = ceilLog2(tiles_along);
            auto subs = tryDecomposeTensor(src_dom, layout.tile());
            if (!subs)
                return subs.error();
            for (const HyperRect &sub : *subs) {
                auto banks = banksOf(sub);
                unsigned cur_wl = src.wl;
                Coord live = std::min<Coord>(sub.size(n.dim),
                                             layout.tileSize(n.dim));
                for (unsigned r = 0; r < rounds; ++r) {
                    // Halving tree over IN-TILE positions, every tile in
                    // parallel: positions [0, live/2) accumulate
                    // positions [live/2, live) shifted down by live/2.
                    // The positional masks carry the live regions so
                    // element accounting matches the tree reduction.
                    Coord half = std::max<Coord>((live + 1) / 2, 1);
                    InMemCommand sh;
                    sh.kind = CmdKind::IntraShift;
                    // Reduction rounds depend on each other: distinct
                    // groups per round (2 * r + phase) per subtensor.
                    sh.group = id * 64 + 2 * r;
                    sh.tensor = sub;
                    sh.dim = n.dim;
                    sh.maskLo = half;
                    sh.maskHi = live;
                    sh.interTileDist = 0;
                    sh.intraTileDist = -half;
                    sh.dtype = elem;
                    sh.wlA = cur_wl;
                    sh.wlDst = tmp_wl;
                    sh.banks = banks;
                    prog.commands.push_back(std::move(sh));
                    InMemCommand c;
                    c.kind = CmdKind::Compute;
                    c.group = id * 64 + 2 * r + 1;
                    c.op = n.fn;
                    c.dtype = elem;
                    c.tensor = sub;
                    c.dim = n.dim;
                    c.maskLo = 0;
                    c.maskHi = half;
                    c.wlA = cur_wl;
                    c.wlB = tmp_wl;
                    c.wlDst = dst_wl;
                    c.banks = banks;
                    prog.commands.push_back(std::move(c));
                    cur_wl = dst_wl;
                    live = half;
                }
                // Cross-tile combination: tree rounds of inter-tile
                // shifts, each a global synchronization point (§4.2).
                Coord live_tiles = tiles_along;
                for (unsigned r = 0; r < inter_rounds; ++r) {
                    Coord half_tiles =
                        std::max<Coord>((live_tiles + 1) / 2, 1);
                    Coord active = half_tiles;
                    HyperRect part = sub.withDim(
                        n.dim, sub.lo(n.dim),
                        sub.lo(n.dim) +
                            std::max<Coord>(live_tiles *
                                                layout.tileSize(n.dim),
                                            1));
                    InMemCommand sh;
                    sh.kind = CmdKind::InterShift;
                    sh.group = id * 64 + 32 + 2 * r;
                    sh.tensor = part;
                    sh.dim = n.dim;
                    // Only the per-tile partials (one lane per tile,
                    // position 0 after the in-tile reduction) move.
                    sh.maskLo = 0;
                    sh.maskHi = 1;
                    sh.interTileDist = -half_tiles;
                    live_tiles = half_tiles;
                    sh.intraTileDist = 0;
                    sh.dtype = elem;
                    sh.wlA = cur_wl;
                    sh.wlDst = tmp_wl;
                    sh.banks = banks;
                    prog.commands.push_back(std::move(sh));
                    InMemCommand sync;
                    sync.kind = CmdKind::Sync;
                    prog.commands.push_back(std::move(sync));
                    InMemCommand c;
                    c.kind = CmdKind::Compute;
                    c.group = id * 64 + 33 + 2 * r;
                    c.op = n.fn;
                    c.dtype = elem;
                    // One partial lane (position 0) per surviving tile.
                    c.tensor = sub.withDim(
                        n.dim, sub.lo(n.dim),
                        sub.lo(n.dim) +
                            std::max<Coord>(active *
                                                layout.tileSize(n.dim),
                                            1));
                    c.dim = n.dim;
                    c.maskLo = 0;
                    c.maskHi = 1;
                    c.wlA = cur_wl;
                    c.wlB = tmp_wl;
                    c.wlDst = dst_wl;
                    c.banks = banks;
                    prog.commands.push_back(std::move(c));
                    cur_wl = dst_wl;
                }
            }
            slot_busy[tmp_slot] = false; // Scratch freed after the node.
            loc[id] = {dst_wl, true};
            break;
          }
          case TdfgKind::Stream: {
            // Near-memory side; no in-memory command. A store stream's
            // tensor value lives at its input's location; a load stream
            // lays its data into freshly allocated wordlines
            // (stream-to-tensor, §3.3).
            if (!n.operands.empty())
                loc[id] = loc[n.operands[0]];
            else
                loc[id] = {allocSlot(id) * bits, true};
            break;
          }
        }
        if (err)
            return *err;
        freeDeadSlots(id);
    }
    // Final sync so all inter-tile movement commits before the region
    // completes (context switches wait on this, §5.3).
    syncIfPending();

    // Homes are listed latest-assigned first, an order the pinned program
    // digests (tests/jit/test_lowered_digest.cc) fix.
    prog.arraySlots.reserve(array_slot.size());
    for (std::size_t s = array_slot.size(); s-- > 0;)
        prog.arraySlots.emplace_back(array_slot[s],
                                     static_cast<unsigned>(s) * bits);
    prog.outputSlots.reserve(g.outputs().size());
    for (const auto &o : g.outputs())
        prog.outputSlots.emplace_back(o.array, loc[o.node].wl);

    prog.recount();

    // ---- JIT time model (§4.2): division of labor leaves mapping and
    // command generation; bank mapping is the O(Nbank x Ncmd) term.
    const TensorConfig &tc = cfg_.tensor;
    double bank_work = 0;
    for (const InMemCommand &c : prog.commands)
        bank_work += static_cast<double>(c.banks.size());
    prog.jitTicks = tc.jitFixedCycles +
                    Tick(tc.jitPerNodeCycles) * g.size() +
                    Tick(tc.jitPerCommandCycles) * prog.commands.size() +
                    static_cast<Tick>(bank_work * 0.5);
    return prog;
}

Expected<std::shared_ptr<const InMemProgram>>
JitCompiler::tryLower(const TdfgGraph &g, const TiledLayout &layout,
                      const AddressMap &map, const std::string &memo_key)
{
    using Result = Expected<std::shared_ptr<const InMemProgram>>;
    if (!memo_key.empty()) {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = memo_.find(memo_key);
        if (it != memo_.end()) {
            ++stats_.memoHits;
            return Result(it->second);
        }
    }
    auto lowered = doLower(g, layout, map);
    if (!lowered)
        return lowered.error();
    if (verify_) {
        if (std::optional<Error> err = verify_(g, *lowered, layout, map))
            return *std::move(err);
    }
    if (cfg_.cmdOpt) {
        optimizeCommands(*lowered, layout, map, cfg_);
        if (verify_ && verify_(g, *lowered, layout, map)) {
            // Fall back to the raw stream, which just passed the hook, so
            // the region still executes and the bailout only foregoes the
            // optimization. Lowering is deterministic: lowering again
            // rebuilds that stream.
            lowered = doLower(g, layout, map);
            lowered->opt.bailouts = 1;
        }
    }
    auto prog = std::make_shared<InMemProgram>(std::move(*lowered));
    std::shared_ptr<InMemProgram> memoized;
    if (!memo_key.empty()) {
        memoized = std::make_shared<InMemProgram>(*prog);
        memoized->memoized = true;
        memoized->jitTicks = 0; // Cached reuse skips lowering.
    }
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.lowerings;
    stats_.totalJitTicks += prog->jitTicks;
    stats_.cmd.accumulate(prog->opt);
    // A concurrent pre-lowering of the same key may have won the race;
    // emplace keeps the first entry (identical program).
    if (memoized)
        memo_.emplace(memo_key, std::move(memoized));
    return Result(std::shared_ptr<const InMemProgram>(std::move(prog)));
}

std::shared_ptr<const InMemProgram>
JitCompiler::lower(const TdfgGraph &g, const TiledLayout &layout,
                   const AddressMap &map, const std::string &memo_key)
{
    auto res = tryLower(g, layout, map, memo_key);
    if (!res) {
        infs_fatal("tDFG '%s': lowering failed with no degradation path: "
                   "%s",
                   g.name().c_str(), res.error().str().c_str());
    }
    return *res;
}

std::vector<Expected<std::shared_ptr<const InMemProgram>>>
JitCompiler::lowerCandidates(const TdfgGraph &g,
                             const std::vector<TiledLayout> &layouts,
                             const AddressMap &map,
                             const std::string &memo_key)
{
    using ProgOr = Expected<std::shared_ptr<const InMemProgram>>;
    auto candKey = [&](const TiledLayout &layout) {
        if (memo_key.empty())
            return std::string();
        std::string sig;
        for (Coord t : layout.tile()) {
            if (!sig.empty())
                sig += 'x';
            sig += std::to_string(t);
        }
        return memo_key + "@" + sig;
    };
    std::vector<ProgOr> out;
    out.reserve(layouts.size());
    for (const TiledLayout &layout : layouts)
        out.push_back(tryLower(g, layout, map, candKey(layout)));
    return out;
}

OffloadDecision
decideOffload(const TdfgSummary &summary, const SystemConfig &cfg,
              bool jit_precompiled)
{
    OffloadDecision d;
    // LHS: N_elem x N_op / TP_core.
    double n_ops = summary.numCompute + summary.numReduce;
    d.coreCycles = static_cast<double>(summary.maxTensorElems) * n_ops /
                   cfg.basePeakOpsPerCycle();
    // RHS: sum of op latencies (fully parallel, no N_elem) + JIT time.
    // The summary carries the aggregate op cycles (per-op-kind counts x
    // latencies) the compiler embeds as hints (§4.3).
    double op_lat = static_cast<double>(summary.opCycles);
    double jit = jit_precompiled
                     ? 0.0
                     : double(summary.numNodes) *
                           cfg.tensor.jitPerNodeCycles +
                           cfg.tensor.jitFixedCycles;
    d.inMemCycles = op_lat + jit;
    d.inMemory = d.coreCycles > d.inMemCycles;
    return d;
}

} // namespace infs
