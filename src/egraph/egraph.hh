/**
 * @file
 * Equality graph (e-graph) for tDFG optimization (§3.2 "Optimizing tDFG"
 * and the appendix). A from-scratch reimplementation of the equality-
 * saturation substrate the paper builds with the egg library: union-find
 * over equivalence classes, hash-consed e-nodes, batched rewriting, and
 * cost-based extraction.
 *
 * Two tDFG nodes are equivalent iff they represent the same result AND
 * share the same lattice domain, so every e-class carries its domain and
 * merges across differing domains are rejected.
 */

#ifndef INFS_EGRAPH_EGRAPH_HH
#define INFS_EGRAPH_EGRAPH_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <vector>

#include "sim/expected.hh"
#include "tdfg/graph.hh"

namespace infs {

/** Equivalence class id. */
using EClassId = std::uint32_t;
inline constexpr EClassId invalidEClass = ~EClassId(0);

/** Index of an e-node in the e-graph's arena; stable for its lifetime. */
using ENodeId = std::uint32_t;

/**
 * An e-node's children, stored inline so that building, hashing and
 * comparing an e-node allocates nothing. tDFG computes take at most
 * three operands (Select); the optimizer declines wider ones.
 */
class EChildren
{
  public:
    static constexpr std::size_t capacity = 4;

    EChildren() = default;
    EChildren(std::initializer_list<EClassId> ids)
    {
        for (EClassId id : ids)
            push_back(id);
    }

    void
    push_back(EClassId id)
    {
        infs_assert(n_ < capacity, "e-node exceeds %zu children", capacity);
        ids_[n_++] = id;
    }

    std::size_t size() const { return n_; }
    bool empty() const { return n_ == 0; }
    EClassId &operator[](std::size_t i) { return ids_[i]; }
    EClassId operator[](std::size_t i) const { return ids_[i]; }
    EClassId *begin() { return ids_.data(); }
    EClassId *end() { return ids_.data() + n_; }
    const EClassId *begin() const { return ids_.data(); }
    const EClassId *end() const { return ids_.data() + n_; }

    bool
    operator==(const EChildren &o) const
    {
        return n_ == o.n_ && std::equal(begin(), end(), o.begin());
    }

  private:
    std::array<EClassId, capacity> ids_{};
    std::uint8_t n_ = 0;
};

/**
 * One operator application over e-classes. Parameter fields mirror
 * TdfgNode; children refer to e-classes rather than nodes.
 */
struct ENode {
    TdfgKind kind = TdfgKind::Tensor;
    BitOp fn = BitOp::Add;
    unsigned dim = 0;
    Coord dist = 0;
    Coord count = 0;
    Coord shrinkLo = 0;     ///< Shrink target range.
    Coord shrinkHi = 0;
    ArrayId array = invalidArray;
    double constValue = 0.0;
    HyperRect rect;         ///< Tensor: source rect (identity-relevant).
    /** Original node id for opaque Stream nodes (not rewritten). */
    std::int32_t streamTag = -1;
    EChildren children;

    bool operator==(const ENode &o) const;
};

/** Hash for hash-consing. */
struct ENodeHash {
    std::size_t operator()(const ENode &n) const;
};

/** Bit for @p k in the kind masks of EGraph::kinds() and allKinds(). */
constexpr std::uint16_t
kindBit(TdfgKind k)
{
    return static_cast<std::uint16_t>(1u << static_cast<unsigned>(k));
}

/** One equivalence class: its e-nodes (arena ids) and semantic domain. */
struct EClass {
    std::vector<ENodeId> nodes;
    HyperRect domain;
    bool infiniteDomain = false;
};

/**
 * The e-graph. E-nodes live in one arena and never move, so a class is a
 * list of node ids and a rule may hold an e-node across add() and merge().
 * add() hash-conses canonical nodes; merge() unions classes and rebuild()
 * restores congruence. Extraction breaks cost ties by class id and by
 * position in a class, so these orders are part of the contract:
 *  - classes get ids in creation order, and a union keeps the smaller id;
 *  - a merged class lists the smaller-id class's nodes first;
 *  - rebuild() canonicalizes every node in place and, among nodes that
 *    became equal, keeps the first.
 * The hashcons survives rebuilds. It holds node ids and matches a node by
 * its current content; rebuild() re-keys a node whose child lost a union
 * by canonicalizing it in place and inserting it under its new hash. Until
 * then the node matches no lookup, since lookups are canonical.
 */
class EGraph
{
  public:
    explicit EGraph(unsigned dims) : dims_(dims) {}

    unsigned dims() const { return dims_; }

    /** Add (or find) an e-node; returns its class. */
    EClassId add(ENode n);

    /** Canonical representative of a class. */
    EClassId
    find(EClassId id) const
    {
        infs_assert(id < parent_.size(), "eclass %u out of %zu", id,
                    parent_.size());
        while (parent_[id] != id) {
            parent_[id] = parent_[parent_[id]]; // Path halving.
            id = parent_[id];
        }
        return id;
    }

    /** True when @p id names an allocated class (canonical or not). */
    bool validId(EClassId id) const { return id < parent_.size(); }

    /**
     * Union two classes. Rejected (returns false) when their domains
     * differ — equivalence in the tDFG requires equal domains.
     */
    bool merge(EClassId a, EClassId b);

    /**
     * merge() for untrusted callers: a malformed id becomes a
     * recoverable InvalidArgument diagnostic instead of an abort. The
     * value carries merge()'s domain-compatibility verdict.
     */
    Expected<bool> tryMerge(EClassId a, EClassId b);

    /**
     * Restore congruence closure after a batch of merges. Congruent
     * classes found during a pass are unioned after it, so no class's
     * node list changes while the pass walks it.
     */
    void rebuild();

    /** Number of canonical classes. */
    std::size_t numClasses() const;

    /** Total e-nodes across canonical classes. */
    std::size_t numNodes() const;

    const EClass &eclass(EClassId id) const { return classes_[find(id)]; }

    /** kindBit() of every kind among all e-nodes. */
    std::uint16_t allKinds() const { return allKinds_; }

    /** kindBit() of every kind among class @p id's e-nodes. */
    std::uint16_t kinds(EClassId id) const { return kinds_[find(id)]; }

    /** The e-node with arena id @p id. */
    const ENode &
    node(ENodeId id) const
    {
        return chunks_[id / chunkSize][id % chunkSize];
    }

    /** node(@p id).kind, from a compact array. */
    TdfgKind kind(ENodeId id) const { return nodeKinds_[id]; }

    /**
     * A counter that advances whenever a class's node list changes: it
     * absorbs or is absorbed by another class, or rebuild() re-keys one
     * of its nodes.
     */
    std::uint32_t clock() const { return clock_; }

    /** True when class @p id's node list is unchanged since clock @p t. */
    bool
    unchangedSince(EClassId id, std::uint32_t t) const
    {
        return changed_[id] <= t;
    }

    /** All canonical class ids (stable snapshot). */
    std::vector<EClassId> canonicalClasses() const;

    /** Compute the semantic domain an e-node would produce. */
    void domainOf(const ENode &n, HyperRect &out, bool &infinite) const;

  private:
    static constexpr ENodeId noNode = ~ENodeId(0);

    ENode &
    mutableNode(ENodeId id)
    {
        return chunks_[id / chunkSize][id % chunkSize];
    }

    /** Replace children by their representatives; true if any changed. */
    bool canonicalize(ENode &n) const;

    /** The hash-consed node equal to @p n (of hash @p hash), or noNode. */
    ENodeId lookup(const ENode &n, std::size_t hash) const;

    /** Hash-cons node @p id under @p hash. */
    void insert(ENodeId id, std::size_t hash);

    unsigned dims_;
    mutable std::vector<EClassId> parent_;  // Union-find.
    std::vector<EClass> classes_;
    /** Every root class id, ascending, plus losers not yet dropped. */
    mutable std::vector<EClassId> roots_;
    /**
     * Classes that absorbed a congruent class: they may list two equal
     * nodes. Otherwise only a re-keyed node can equal another (add()
     * creates a node only when no node has its content).
     */
    std::vector<bool> twins_;
    std::vector<std::uint16_t> kinds_;  // See kinds().
    std::uint16_t allKinds_ = 0;
    /** clock() at each class's last node-list change. */
    std::vector<std::uint32_t> changed_;
    std::uint32_t clock_ = 0;
    /** Arena: fixed-size chunks, so ids and addresses stay stable. */
    static constexpr std::size_t chunkSize = 64;
    std::vector<std::unique_ptr<ENode[]>> chunks_;
    std::vector<TdfgKind> nodeKinds_;  // By node id; see kind().
    /** Class each node was created in; find() gives its class now. */
    std::vector<EClassId> owner_;
    /** Hash of each node's current content; a slot is live if equal. */
    std::vector<std::size_t> nodeHash_;
    /** Hashcons slot: a node and its content hash when inserted. */
    struct Slot {
        std::size_t hash = 0;
        ENodeId node = noNode;
    };
    /** Open addressing, linear probing, power-of-two size. */
    std::vector<Slot> hashcons_;
    std::size_t hashconsUsed_ = 0;
    bool dirty_ = false;
};

/**
 * Architecture-informed extraction cost model (appendix: "estimated
 * latency of move vs. compute node, the amount of moved/broadcast data,
 * and the number of computations").
 */
struct ExtractionCost {
    double bitlinesTotal = 4.0 * 1024 * 1024;  ///< PEs available.
    LatencyTable latency;

    /**
     * Cost of one node excluding its children: an operator of @p kind
     * (and @p fn) over @p arity operands whose result spans @p domain, or
     * the whole lattice when @p infinite.
     */
    double nodeCost(TdfgKind kind, BitOp fn, std::size_t arity,
                    const HyperRect &domain, bool infinite) const;
};

/** Result of extraction: a tDFG rebuilt from the cheapest e-nodes. */
struct ExtractionResult {
    TdfgGraph graph;
    double cost = 0.0;
    std::vector<NodeId> rootNodes;  ///< tDFG node per requested root.
};

/**
 * Equality-saturation optimizer implementing the appendix's rewrite rules
 * (Eqs. 3-9 plus tensor expansion and compute reuse).
 */
class TdfgOptimizer
{
  public:
    struct Options {
        unsigned maxIterations = 8;   ///< Saturation rounds budget.
        std::size_t maxNodes = 20000; ///< Early-termination node budget.
        bool enableExpansion = true;  ///< Tensor expansion (Eq. 5).
        bool enableAlgebra = true;    ///< Assoc/comm/distrib (Eq. 3).
    };

    TdfgOptimizer() = default;
    explicit TdfgOptimizer(Options opts) : opts_(opts) {}

    /**
     * Optimize @p g: ingest into an e-graph, saturate, extract the
     * cheapest equivalent graph. Outputs are preserved. A compute wider
     * than EChildren::capacity and extraction failures (cyclic or
     * incomplete selections, an extracted graph that fails verification)
     * are recoverable diagnostics: callers keep the unoptimized graph and
     * move on.
     */
    Expected<ExtractionResult>
    tryOptimize(const TdfgGraph &g,
                const ExtractionCost &cost = ExtractionCost{});

    /** tryOptimize() for callers with no fallback; failures are fatal. */
    ExtractionResult optimize(const TdfgGraph &g,
                              const ExtractionCost &cost = ExtractionCost{});

    /** Number of rewrite matches applied in the last run. */
    unsigned rewritesApplied() const { return rewrites_; }
    /** Number of saturation iterations performed in the last run. */
    unsigned iterationsRun() const { return iterations_; }

  private:
    Options opts_{};
    unsigned rewrites_ = 0;
    unsigned iterations_ = 0;
};

} // namespace infs

#endif // INFS_EGRAPH_EGRAPH_HH
