/**
 * @file
 * The tensor dataflow graph (tDFG, §3.2): the paper's IR and program
 * representation. Nodes are tensors positioned in a global lattice space;
 * the graph is SSA (nodes always produce new tensors). Fig 5 defines node
 * semantics; this header implements them with automatic domain inference.
 */

#ifndef INFS_TDFG_GRAPH_HH
#define INFS_TDFG_GRAPH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "bitserial/latency.hh"
#include "stream/pattern.hh"
#include "tdfg/hyperrect.hh"

namespace infs {

/** Index of a node within its graph. */
using NodeId = std::uint32_t;
inline constexpr NodeId invalidNode = ~NodeId(0);

/** tDFG node kinds (Fig 5 plus the appendix's shrink node). */
enum class TdfgKind : std::uint8_t {
    Tensor,     ///< Hyperrectangle of an array's elements.
    ConstVal,   ///< Infinite tensor with a constant at all cells.
    Compute,    ///< Elementwise f over the intersection of inputs.
    Move,       ///< Shift by dist along a dimension.
    Broadcast,  ///< Replicate count times along a dimension.
    Shrink,     ///< Resize a dimension (appendix Eq. 5); lowered to a nop.
    Reduce,     ///< Collapse a dimension with an associative op.
    Stream,     ///< Embedded near-memory stream (§3.3).
};

const char *tdfgKindName(TdfgKind k);

/** Role of an embedded stream node. */
enum class StreamRole : std::uint8_t {
    Load,    ///< Reads array data into a tensor (or normal values).
    Store,   ///< Writes a tensor back through an (possibly indirect) pattern.
    Reduce,  ///< Final reduction of in-memory partial results (Fig 4b).
};

/** One tDFG node. Parameter fields are meaningful per kind. */
struct TdfgNode {
    TdfgKind kind = TdfgKind::Tensor;
    std::vector<NodeId> operands;

    /** Domain in the lattice space; ignored when infiniteDomain. */
    HyperRect domain;
    /** ConstVal nodes cover the whole lattice. */
    bool infiniteDomain = false;

    ArrayId array = invalidArray;    ///< Tensor: source array.
    double constValue = 0.0;         ///< ConstVal.
    BitOp fn = BitOp::Add;           ///< Compute / Reduce.
    unsigned dim = 0;                ///< Move / Broadcast / Shrink / Reduce.
    Coord dist = 0;                  ///< Move / Broadcast offset.
    Coord count = 0;                 ///< Broadcast replication count.
    StreamRole streamRole = StreamRole::Load;
    AccessPattern pattern;           ///< Stream access pattern.
    std::string name;                ///< Debug label.
};

/** Aggregate counts the runtime uses for the Eq. 2 offload decision. */
struct TdfgSummary {
    unsigned numNodes = 0;
    unsigned numCompute = 0;
    unsigned numMove = 0;
    unsigned numBroadcast = 0;
    unsigned numReduce = 0;
    unsigned numStream = 0;
    std::int64_t maxTensorElems = 0;
    /** Sum of bit-serial latencies over compute/move/bc/reduce nodes —
     * the "# of each op" hints the compiler embeds so the runtime can
     * evaluate Eq. 2 without walking the graph (§4.3). */
    Tick opCycles = 0;
};

/**
 * A tensor dataflow graph over an N-dimensional lattice space. Nodes are
 * appended in topological order (operands must already exist), keeping the
 * graph SSA and trivially schedulable.
 */
class TdfgGraph
{
  public:
    explicit TdfgGraph(unsigned dims, std::string name = "tdfg")
        : dims_(dims), name_(std::move(name))
    {
        infs_assert(dims >= 1 && dims <= 3,
                    "lattice rank %u unsupported (max 3, §5.2)", dims);
    }

    unsigned dims() const { return dims_; }
    const std::string &name() const { return name_; }

    std::size_t size() const { return nodes_.size(); }
    const TdfgNode &node(NodeId id) const;
    const std::vector<TdfgNode> &nodes() const { return nodes_; }

    // ------------------------------------------------------------------
    // Construction (the kernel-builder DSL; stands in for the paper's
    // LLVM extraction pass — see DESIGN.md substitutions).
    // ------------------------------------------------------------------

    /** Input tensor: the array region @p rect of array @p array. */
    NodeId tensor(ArrayId array, HyperRect rect, std::string name = "");

    /** Constant at every lattice cell. */
    NodeId constant(double value, std::string name = "");

    /** Elementwise compute over the intersection of @p inputs. */
    NodeId compute(BitOp fn, std::vector<NodeId> inputs,
                   std::string name = "");

    /** Move @p a by @p dist along @p dim. */
    NodeId move(NodeId a, unsigned dim, Coord dist, std::string name = "");

    /** Broadcast @p a @p count times along @p dim with offset @p dist. */
    NodeId broadcast(NodeId a, unsigned dim, Coord dist, Coord count,
                     std::string name = "");

    /** Shrink dimension @p dim of @p a to [p, q) (appendix Eq. 5). */
    NodeId shrink(NodeId a, unsigned dim, Coord p, Coord q,
                  std::string name = "");

    /** Reduce @p a along @p dim with associative @p fn. */
    NodeId reduce(NodeId a, BitOp fn, unsigned dim, std::string name = "");

    /**
     * Embedded stream. Load streams take no operand; store/reduce streams
     * consume @p input. Store streams produce a tensor covering the
     * touched cells (@p rect).
     */
    NodeId stream(StreamRole role, AccessPattern pattern,
                  NodeId input = invalidNode, HyperRect rect = HyperRect{},
                  std::string name = "", BitOp reduce_fn = BitOp::Add);

    /** Mark @p node's tensor as written back to array @p array. */
    void output(NodeId node, ArrayId array);

    /**
     * Append @p n verbatim, bypassing every builder invariant (operand
     * ordering, domain inference, rank checks). For deserializers and the
     * adversarial corpora of the tDFG verifier (tests/analysis); regular
     * construction goes through the typed builders above.
     */
    NodeId appendUnchecked(TdfgNode n);

    struct Output {
        NodeId node;
        ArrayId array;
    };
    const std::vector<Output> &outputs() const { return outputs_; }

    /** Domain of a node (must not be infinite). */
    const HyperRect &domainOf(NodeId id) const;

    /** Aggregate counts for the runtime's quick decisions (§4.3). */
    TdfgSummary summarize() const;

    /**
     * Structural validation: operand ordering, domain ranks, non-empty
     * compute domains, outputs produce tensors. Panics on violation when
     * @p fatal, else returns false.
     */
    bool validate(bool fatal = true) const;

    /**
     * Multi-line text dump for debugging and golden tests. A node its
     * builder named prints the name, and a stream node prints its access
     * pattern.
     */
    std::string dump() const;

  private:
    NodeId append(TdfgNode n);
    HyperRect intersectOperands(const std::vector<NodeId> &ids) const;

    unsigned dims_;
    std::string name_;
    std::vector<TdfgNode> nodes_;
    std::vector<Output> outputs_;
};

} // namespace infs

#endif // INFS_TDFG_GRAPH_HH
