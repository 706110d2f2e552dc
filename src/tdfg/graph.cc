#include "tdfg/graph.hh"

#include <sstream>

namespace infs {

const char *
tdfgKindName(TdfgKind k)
{
    switch (k) {
      case TdfgKind::Tensor: return "tensor";
      case TdfgKind::ConstVal: return "const";
      case TdfgKind::Compute: return "cmp";
      case TdfgKind::Move: return "mv";
      case TdfgKind::Broadcast: return "bc";
      case TdfgKind::Shrink: return "shrink";
      case TdfgKind::Reduce: return "reduce";
      case TdfgKind::Stream: return "strm";
    }
    return "?";
}

const TdfgNode &
TdfgGraph::node(NodeId id) const
{
    infs_assert(id < nodes_.size(), "node %u out of %zu", id, nodes_.size());
    return nodes_[id];
}

namespace {

/** The name a node gets when its builder gives none. */
std::string
defaultName(TdfgKind kind, NodeId id)
{
    return std::string(tdfgKindName(kind)) + std::to_string(id);
}

} // namespace

NodeId
TdfgGraph::append(TdfgNode n)
{
    NodeId id = static_cast<NodeId>(nodes_.size());
    for (NodeId op : n.operands)
        infs_assert(op < id, "operand %u of node %u not yet defined", op,
                    id);
    if (n.name.empty())
        n.name = defaultName(n.kind, id);
    nodes_.push_back(std::move(n));
    return id;
}

NodeId
TdfgGraph::appendUnchecked(TdfgNode n)
{
    NodeId id = static_cast<NodeId>(nodes_.size());
    if (n.name.empty())
        n.name = defaultName(n.kind, id);
    nodes_.push_back(std::move(n));
    return id;
}

HyperRect
TdfgGraph::intersectOperands(const std::vector<NodeId> &ids) const
{
    HyperRect acc;
    bool have = false;
    for (NodeId id : ids) {
        const TdfgNode &n = node(id);
        if (n.infiniteDomain)
            continue;
        if (!have) {
            acc = n.domain;
            have = true;
        } else {
            acc = acc.intersect(n.domain);
        }
    }
    infs_assert(have, "compute with only constant operands");
    return acc;
}

NodeId
TdfgGraph::tensor(ArrayId array, HyperRect rect, std::string name)
{
    infs_assert(rect.dims() == dims_, "tensor rank %u != lattice rank %u",
                rect.dims(), dims_);
    TdfgNode n;
    n.kind = TdfgKind::Tensor;
    n.array = array;
    n.domain = std::move(rect);
    n.name = std::move(name);
    return append(std::move(n));
}

NodeId
TdfgGraph::constant(double value, std::string name)
{
    TdfgNode n;
    n.kind = TdfgKind::ConstVal;
    n.constValue = value;
    n.infiniteDomain = true;
    n.name = std::move(name);
    return append(std::move(n));
}

NodeId
TdfgGraph::compute(BitOp fn, std::vector<NodeId> inputs, std::string name)
{
    infs_assert(!inputs.empty(), "compute needs operands");
    TdfgNode n;
    n.kind = TdfgKind::Compute;
    n.fn = fn;
    n.domain = intersectOperands(inputs);
    n.operands = std::move(inputs);
    n.name = std::move(name);
    infs_assert(!n.domain.empty(),
                "compute '%s' has empty domain %s — operands misaligned?",
                n.name.c_str(), n.domain.str().c_str());
    return append(std::move(n));
}

NodeId
TdfgGraph::move(NodeId a, unsigned dim, Coord dist, std::string name)
{
    infs_assert(dim < dims_, "move dim %u out of rank %u", dim, dims_);
    TdfgNode n;
    n.kind = TdfgKind::Move;
    n.operands = {a};
    n.dim = dim;
    n.dist = dist;
    n.domain = domainOf(a).shifted(dim, dist);
    n.name = std::move(name);
    return append(std::move(n));
}

NodeId
TdfgGraph::broadcast(NodeId a, unsigned dim, Coord dist, Coord count,
                     std::string name)
{
    infs_assert(dim < dims_, "broadcast dim %u out of rank %u", dim, dims_);
    infs_assert(count >= 1, "broadcast count must be >= 1");
    const HyperRect &src = domainOf(a);
    Coord span = src.size(dim);
    TdfgNode n;
    n.kind = TdfgKind::Broadcast;
    n.operands = {a};
    n.dim = dim;
    n.dist = dist;
    n.count = count;
    // Copies land at offsets dist, dist+span, ..., dist+(count-1)*span.
    n.domain = src.withDim(dim, src.lo(dim) + dist,
                           src.lo(dim) + dist + count * span);
    n.name = std::move(name);
    return append(std::move(n));
}

NodeId
TdfgGraph::shrink(NodeId a, unsigned dim, Coord p, Coord q, std::string name)
{
    infs_assert(dim < dims_, "shrink dim %u out of rank %u", dim, dims_);
    const HyperRect &src = domainOf(a);
    infs_assert(p >= src.lo(dim) && q <= src.hi(dim),
                "shrink [%lld,%lld) escapes source %s",
                static_cast<long long>(p), static_cast<long long>(q),
                src.str().c_str());
    TdfgNode n;
    n.kind = TdfgKind::Shrink;
    n.operands = {a};
    n.dim = dim;
    n.domain = src.withDim(dim, p, q);
    n.name = std::move(name);
    return append(std::move(n));
}

NodeId
TdfgGraph::reduce(NodeId a, BitOp fn, unsigned dim, std::string name)
{
    infs_assert(dim < dims_, "reduce dim %u out of rank %u", dim, dims_);
    infs_assert(fn == BitOp::Add || fn == BitOp::Max || fn == BitOp::Min ||
                    fn == BitOp::Mul,
                "reduce needs an associative op, got %s", bitOpName(fn));
    const HyperRect &src = domainOf(a);
    TdfgNode n;
    n.kind = TdfgKind::Reduce;
    n.operands = {a};
    n.fn = fn;
    n.dim = dim;
    n.domain = src.withDim(dim, src.lo(dim), src.lo(dim) + 1);
    n.name = std::move(name);
    return append(std::move(n));
}

NodeId
TdfgGraph::stream(StreamRole role, AccessPattern pattern, NodeId input,
                  HyperRect rect, std::string name, BitOp reduce_fn)
{
    infs_assert(pattern.valid(), "invalid stream access pattern");
    TdfgNode n;
    n.kind = TdfgKind::Stream;
    n.streamRole = role;
    n.fn = reduce_fn;
    n.pattern = std::move(pattern);
    n.name = std::move(name);
    if (role == StreamRole::Load) {
        infs_assert(input == invalidNode, "load stream takes no operand");
        infs_assert(rect.dims() == dims_, "load stream needs a tensor rect");
        n.domain = std::move(rect);
    } else {
        infs_assert(input != invalidNode, "store/reduce stream needs input");
        n.operands = {input};
        if (role == StreamRole::Store) {
            // Tensor value: bounding rect of the touched cells (§3.3).
            n.domain = rect.dims() == dims_ ? std::move(rect)
                                            : domainOf(input);
        } else {
            // Reduce streams produce normal (scalar) values.
            n.domain = HyperRect::array(std::vector<Coord>(dims_, 1));
        }
    }
    return append(std::move(n));
}

void
TdfgGraph::output(NodeId node_id, ArrayId array)
{
    const TdfgNode &n = node(node_id);
    infs_assert(!n.infiniteDomain, "cannot output an infinite tensor");
    outputs_.push_back(Output{node_id, array});
}

const HyperRect &
TdfgGraph::domainOf(NodeId id) const
{
    const TdfgNode &n = node(id);
    infs_assert(!n.infiniteDomain, "node %u has infinite domain", id);
    return n.domain;
}

TdfgSummary
TdfgGraph::summarize() const
{
    TdfgSummary s;
    LatencyTable lat;
    s.numNodes = static_cast<unsigned>(nodes_.size());
    for (const TdfgNode &n : nodes_) {
        switch (n.kind) {
          case TdfgKind::Compute:
            ++s.numCompute;
            s.opCycles += lat.opCycles(n.fn, DType::Fp32) *
                          std::max<std::size_t>(n.operands.size() - 1, 1);
            break;
          case TdfgKind::Move:
            ++s.numMove;
            s.opCycles += lat.intraShiftCycles(DType::Fp32);
            break;
          case TdfgKind::Broadcast:
            ++s.numBroadcast;
            s.opCycles += lat.intraShiftCycles(DType::Fp32);
            break;
          case TdfgKind::Reduce:
            ++s.numReduce;
            s.opCycles += 8 * lat.opCycles(n.fn, DType::Fp32);
            break;
          case TdfgKind::Stream: ++s.numStream; break;
          default: break;
        }
        if (!n.infiniteDomain)
            s.maxTensorElems =
                std::max(s.maxTensorElems, n.domain.volume());
    }
    return s;
}

bool
TdfgGraph::validate(bool fatal) const
{
    auto fail = [&](const std::string &msg) {
        if (fatal)
            infs_panic("tDFG '%s' invalid: %s", name_.c_str(), msg.c_str());
        return false;
    };
    for (NodeId id = 0; id < nodes_.size(); ++id) {
        const TdfgNode &n = nodes_[id];
        for (NodeId op : n.operands) {
            if (op >= id)
                return fail("node " + std::to_string(id) +
                            " uses later node " + std::to_string(op));
        }
        if (!n.infiniteDomain && n.domain.dims() != dims_)
            return fail("node " + std::to_string(id) + " rank mismatch");
        if (n.kind == TdfgKind::Compute && n.domain.empty())
            return fail("compute node " + std::to_string(id) +
                        " has empty domain");
    }
    for (const Output &o : outputs_) {
        if (o.node >= nodes_.size())
            return fail("output references missing node");
        if (nodes_[o.node].infiniteDomain)
            return fail("output references infinite tensor");
    }
    return true;
}

std::string
TdfgGraph::dump() const
{
    std::ostringstream os;
    auto list = [&os](const std::vector<std::int64_t> &v) {
        os << "[";
        for (std::size_t i = 0; i < v.size(); ++i)
            os << (i ? "," : "") << v[i];
        os << "]";
    };
    os << "tdfg " << name_ << " dims=" << dims_ << "\n";
    for (NodeId id = 0; id < nodes_.size(); ++id) {
        const TdfgNode &n = nodes_[id];
        os << "  %" << id << " = " << tdfgKindName(n.kind);
        switch (n.kind) {
          case TdfgKind::Tensor:
            os << " array" << n.array << " " << n.domain.str();
            break;
          case TdfgKind::ConstVal:
            os << " " << n.constValue;
            break;
          case TdfgKind::Compute:
            os << " " << bitOpName(n.fn);
            break;
          case TdfgKind::Move:
            os << " dim=" << n.dim << " dist=" << n.dist;
            break;
          case TdfgKind::Broadcast:
            os << " dim=" << n.dim << " dist=" << n.dist
               << " count=" << n.count;
            break;
          case TdfgKind::Shrink:
            os << " dim=" << n.dim << " to=" << n.domain.str();
            break;
          case TdfgKind::Reduce:
            os << " " << bitOpName(n.fn) << " dim=" << n.dim;
            break;
          case TdfgKind::Stream:
            os << (n.streamRole == StreamRole::Load ? " load"
                   : n.streamRole == StreamRole::Store ? " store"
                                                       : " reduce");
            os << " array" << n.pattern.array << " start=" << n.pattern.start;
            os << " strides=";
            list(n.pattern.strides);
            os << " counts=";
            list(n.pattern.counts);
            if (n.pattern.indirect())
                os << " indirect=array" << n.pattern.indirectArray;
            break;
        }
        if (!n.operands.empty()) {
            os << " (";
            for (std::size_t i = 0; i < n.operands.size(); ++i)
                os << (i ? ", %" : "%") << n.operands[i];
            os << ")";
        }
        if (!n.infiniteDomain && n.kind != TdfgKind::Tensor)
            os << " : " << n.domain.str();
        if (n.name != defaultName(n.kind, id))
            os << " name=" << n.name;
        os << "\n";
    }
    for (const Output &o : outputs_)
        os << "  output %" << o.node << " -> array" << o.array << "\n";
    return os.str();
}

} // namespace infs
