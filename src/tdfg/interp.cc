#include "tdfg/interp.hh"

#include <algorithm>
#include <utility>
#include <cmath>

namespace infs {

TensorValue
TensorValue::dense(const HyperRect &d)
{
    TensorValue v;
    v.domain = d;
    v.data.assign(static_cast<std::size_t>(std::max<std::int64_t>(
                      d.volume(), 0)),
                  0.0f);
    return v;
}

namespace {

std::int64_t
relIndex(const HyperRect &d, const std::vector<Coord> &pt)
{
    std::int64_t lin = 0;
    std::int64_t mult = 1;
    for (unsigned dim = 0; dim < d.dims(); ++dim) {
        infs_assert(pt[dim] >= d.lo(dim) && pt[dim] < d.hi(dim),
                    "point outside tensor domain %s", d.str().c_str());
        lin += (pt[dim] - d.lo(dim)) * mult;
        mult *= d.size(dim);
    }
    return lin;
}

} // namespace

float
TensorValue::at(const std::vector<Coord> &pt) const
{
    if (isConst)
        return constVal;
    return data[static_cast<std::size_t>(relIndex(domain, pt))];
}

float &
TensorValue::at(const std::vector<Coord> &pt)
{
    infs_assert(!isConst, "cannot write a const tensor");
    return data[static_cast<std::size_t>(relIndex(domain, pt))];
}

RectIter::RectIter(const HyperRect &r) : rect_(r), done_(r.empty())
{
    pt_.resize(r.dims());
    for (unsigned d = 0; d < r.dims(); ++d)
        pt_[d] = r.lo(d);
}

void
RectIter::next()
{
    infs_assert(!done_, "iterating past the end");
    for (unsigned d = 0; d < rect_.dims(); ++d) {
        if (++pt_[d] < rect_.hi(d))
            return;
        pt_[d] = rect_.lo(d);
    }
    done_ = true;
}

float
TdfgInterpreter::applyOp(BitOp fn, float a, float b)
{
    switch (fn) {
      case BitOp::Add: return a + b;
      case BitOp::Sub: return a - b;
      case BitOp::Mul: return a * b;
      case BitOp::Div: return a / b;
      case BitOp::Max: return a > b ? a : b;
      case BitOp::Min: return a < b ? a : b;
      case BitOp::CmpLt: return a < b ? 1.0f : 0.0f;
      case BitOp::Copy: return a;
      case BitOp::Relu: return a > 0.0f ? a : 0.0f;
      default:
        infs_panic("interp: unsupported op %s", bitOpName(fn));
    }
}

void
TdfgInterpreter::run(const TdfgGraph &g)
{
    g.validate();
    values_.clear();
    reduceResults_.clear();
    flops_ = 0;
    values_.reserve(g.size());
    for (NodeId id = 0; id < g.size(); ++id)
        values_.push_back(evalNode(g, g.node(id)));
    for (const auto &o : g.outputs())
        writeOutput(g, o);
}

const TensorValue &
TdfgInterpreter::value(NodeId id) const
{
    infs_assert(id < values_.size(), "no value for node %u", id);
    return values_[id];
}

float
TdfgInterpreter::streamReduceResult(NodeId id) const
{
    auto it = reduceResults_.find(id);
    infs_assert(it != reduceResults_.end(),
                "node %u produced no reduce result", id);
    return it->second;
}

TensorValue
TdfgInterpreter::evalNode(const TdfgGraph &g, const TdfgNode &n)
{
    switch (n.kind) {
      case TdfgKind::Tensor: {
        const StoredArray &arr = store_.array(n.array);
        infs_assert(arr.rect().containsRect(n.domain),
                    "tensor %s escapes array '%s' (%s)",
                    n.domain.str().c_str(), arr.name.c_str(),
                    arr.rect().str().c_str());
        TensorValue v = TensorValue::dense(n.domain);
        for (RectIter it(n.domain); !it.done(); it.next())
            v.at(*it) = arr.at(*it);
        return v;
      }
      case TdfgKind::ConstVal: {
        TensorValue v;
        v.isConst = true;
        v.constVal = static_cast<float>(n.constValue);
        return v;
      }
      case TdfgKind::Compute:
        return evalCompute(g, n);
      case TdfgKind::Move: {
        // SSA move: same data, shifted domain.
        TensorValue v = values_[n.operands[0]];
        infs_assert(!v.isConst, "move of const tensor is meaningless");
        v.domain = v.domain.shifted(n.dim, n.dist);
        return v;
      }
      case TdfgKind::Shrink: {
        const TensorValue &src = values_[n.operands[0]];
        TensorValue v = TensorValue::dense(n.domain);
        for (RectIter it(n.domain); !it.done(); it.next())
            v.at(*it) = src.at(*it);
        return v;
      }
      case TdfgKind::Broadcast: {
        const TensorValue &src = values_[n.operands[0]];
        TensorValue v = TensorValue::dense(n.domain);
        Coord span = src.domain.size(n.dim);
        Coord src_lo = src.domain.lo(n.dim);
        for (RectIter it(n.domain); !it.done(); it.next()) {
            std::vector<Coord> pt = *it;
            // Fold the broadcast dimension back into the source copy.
            Coord off = pt[n.dim] - (src_lo + n.dist);
            pt[n.dim] = src_lo + (off % span + span) % span;
            v.at(*it) = src.at(pt);
        }
        return v;
      }
      case TdfgKind::Reduce:
        return evalReduce(n);
      case TdfgKind::Stream: {
        NodeId id = static_cast<NodeId>(values_.size());
        return evalStream(g, n, id);
      }
    }
    infs_panic("unknown tDFG node kind");
}

TensorValue
TdfgInterpreter::evalCompute(const TdfgGraph &g, const TdfgNode &n)
{
    (void)g;
    TensorValue out = TensorValue::dense(n.domain);
    const unsigned n_ops = static_cast<unsigned>(n.operands.size());
    infs_assert(n_ops >= 1, "compute without operands");
    if (n.fn == BitOp::Select) {
        // Predicated move (bitserial/latency.hh): p != 0 ? a : b.
        infs_assert(n_ops == 3, "select needs a predicate and two values, "
                                "got %u operands", n_ops);
        const TensorValue &p = values_[n.operands[0]];
        const TensorValue &a = values_[n.operands[1]];
        const TensorValue &b = values_[n.operands[2]];
        for (RectIter it(n.domain); !it.done(); it.next()) {
            out.at(*it) = p.at(*it) != 0.0f ? a.at(*it) : b.at(*it);
            ++flops_;
        }
        return out;
    }
    for (RectIter it(n.domain); !it.done(); it.next()) {
        const TensorValue &first = values_[n.operands[0]];
        float acc = std::as_const(first).at(*it);
        if (n_ops == 1) {
            acc = applyOp(n.fn, acc, 0.0f);
            ++flops_;
        }
        for (unsigned i = 1; i < n_ops; ++i) {
            const TensorValue &opv = values_[n.operands[i]];
            acc = applyOp(n.fn, acc, std::as_const(opv).at(*it));
            ++flops_;
        }
        out.at(*it) = acc;
    }
    return out;
}

TensorValue
TdfgInterpreter::evalReduce(const TdfgNode &n)
{
    const TensorValue &src = values_[n.operands[0]];
    TensorValue out = TensorValue::dense(n.domain);
    const HyperRect &sd = src.domain;
    bool first_written = false;
    (void)first_written;
    for (RectIter it(n.domain); !it.done(); it.next()) {
        std::vector<Coord> pt = *it;
        float acc = 0.0f;
        bool first = true;
        for (Coord k = sd.lo(n.dim); k < sd.hi(n.dim); ++k) {
            pt[n.dim] = k;
            float v = src.at(pt);
            if (first) {
                acc = v;
                first = false;
            } else {
                acc = applyOp(n.fn, acc, v);
                ++flops_;
            }
        }
        out.at(*it) = acc;
    }
    return out;
}

TensorValue
TdfgInterpreter::evalStream(const TdfgGraph &g, const TdfgNode &n, NodeId id)
{
    const AccessPattern &p = n.pattern;
    StoredArray &arr = store_.array(p.array);
    // Enumerate the affine index sequence.
    std::vector<std::int64_t> seq;
    std::int64_t total = p.numElements();
    seq.reserve(static_cast<std::size_t>(total));
    std::vector<std::int64_t> ctr(p.counts.size(), 0);
    for (std::int64_t e = 0; e < total; ++e) {
        std::int64_t idx = p.start;
        for (std::size_t d = 0; d < ctr.size(); ++d)
            idx += ctr[d] * p.strides[d];
        if (p.indirect()) {
            const StoredArray &ind = store_.array(p.indirectArray);
            infs_assert(idx >= 0 &&
                            idx < static_cast<std::int64_t>(ind.data.size()),
                        "indirect index stream out of bounds");
            idx = static_cast<std::int64_t>(ind.data[
                static_cast<std::size_t>(idx)]);
        }
        infs_assert(idx >= 0 &&
                        idx < static_cast<std::int64_t>(arr.data.size()),
                    "stream index %lld out of array '%s'",
                    static_cast<long long>(idx), arr.name.c_str());
        seq.push_back(idx);
        for (std::size_t d = 0; d < ctr.size(); ++d) {
            if (++ctr[d] < p.counts[d])
                break;
            ctr[d] = 0;
        }
    }

    switch (n.streamRole) {
      case StreamRole::Load: {
        TensorValue v = TensorValue::dense(n.domain);
        infs_assert(static_cast<std::int64_t>(seq.size()) ==
                        n.domain.volume(),
                    "load stream length %zu != tensor volume %lld",
                    seq.size(),
                    static_cast<long long>(n.domain.volume()));
        std::size_t e = 0;
        for (RectIter it(n.domain); !it.done(); it.next())
            v.at(*it) = arr.data[static_cast<std::size_t>(seq[e++])];
        return v;
      }
      case StreamRole::Store: {
        const TensorValue &src = values_[n.operands[0]];
        infs_assert(static_cast<std::int64_t>(seq.size()) ==
                        src.domain.volume(),
                    "store stream length %zu != tensor volume %lld",
                    seq.size(),
                    static_cast<long long>(src.domain.volume()));
        std::size_t e = 0;
        for (RectIter it(src.domain); !it.done(); it.next())
            arr.data[static_cast<std::size_t>(seq[e++])] = src.at(*it);
        // The produced tensor value covers the touched cells.
        TensorValue v = TensorValue::dense(n.domain);
        if (!n.domain.empty() && !p.indirect() &&
            n.domain == src.domain) {
            v = src;
            v.domain = n.domain;
        }
        return v;
      }
      case StreamRole::Reduce: {
        const TensorValue &src = values_[n.operands[0]];
        float acc = 0.0f;
        bool first = true;
        for (RectIter it(src.domain); !it.done(); it.next()) {
            float x = src.at(*it);
            if (first) {
                acc = x;
                first = false;
            } else {
                acc = applyOp(n.fn, acc, x);
                ++flops_;
            }
        }
        reduceResults_[id] = acc;
        TensorValue v = TensorValue::dense(n.domain);
        if (!v.data.empty())
            v.data[0] = acc;
        (void)g;
        return v;
      }
    }
    infs_panic("unknown stream role");
}

void
TdfgInterpreter::writeOutput(const TdfgGraph &g, const TdfgGraph::Output &o)
{
    (void)g;
    const TensorValue &v = values_[o.node];
    StoredArray &arr = store_.array(o.array);
    HyperRect writable = arr.rect().intersect(v.domain);
    // Data moved/broadcast outside the global bounding rect is discarded
    // (§3.2), so clamp to the array's rect.
    for (RectIter it(writable); !it.done(); it.next())
        arr.at(*it) = v.at(*it);
}

} // namespace infs
