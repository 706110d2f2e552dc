/**
 * @file
 * Equality-saturation rules (appendix Eqs. 3-9) and cost-based extraction.
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "analysis/verify_tdfg.hh"
#include "egraph/egraph.hh"

namespace infs {

namespace {

bool
isCommutative(BitOp fn)
{
    return fn == BitOp::Add || fn == BitOp::Mul || fn == BitOp::Max ||
           fn == BitOp::Min;
}

/**
 * One saturation run: the appendix's rewrite rules over one e-graph.
 * Every rule walks the canonical classes in id order and, per class, a
 * snapshot of the e-nodes it matches, so the adds and merges it makes
 * along the way never disturb the walk.
 *
 * Most of a round repeats the round before: the same matches over classes
 * that did not change, whose adds find existing classes and whose merges
 * find one class already. So each application of a rule (to one e-node,
 * or to one tensor pair) is recorded as a Replay, and skipped while the
 * replay provably changes nothing. The skip is exact: the e-graph evolves
 * exactly as if every rule ran on every e-node.
 */
class Rewriter
{
  public:
    Rewriter(EGraph &eg, const TdfgOptimizer::Options &opts)
        : eg_(eg), opts_(opts)
    {
    }

    /** Apply every enabled rule once; returns the matches applied. */
    unsigned applyRules();

    /** Note an EGraph::rebuild(): remember every class's root. */
    void rebuilt();

  private:
    enum Rule : unsigned {
        Commutative,
        Distributive,
        MoveExchange,
        BroadcastExchange,
        ShrinkThroughCompute,
        ShrinkThroughMove,
        ShrinkCombine,
        MoveFusion,
        NumRules
    };

    /**
     * What one application depended on. Its reads are the classes whose
     * node lists it scanned; its keys are the classes it compared, keyed
     * an add on, or got back from one. While every read is unchanged
     * since the stamp and no key's class has lost a union since the later
     * of the stamp and the last rebuild (which re-keys the adds' nodes),
     * a replay scans the same nodes, makes the same adds, gets the same
     * classes back and merges nothing new. Its unguarded merges return
     * true again: `applied` of them.
     */
    struct Replay {
        std::uint32_t stamp = 0;
        std::uint32_t readBegin = 0, readEnd = 0;
        std::uint32_t keyBegin = 0, keyEnd = 0;
        unsigned applied = 0;
        bool recorded = false;
    };

    unsigned ruleCommutative();
    unsigned ruleComputeMoveExchange();
    unsigned ruleComputeBroadcastExchange();
    unsigned ruleTensorExpansion();
    unsigned ruleShrinkThroughCompute();
    unsigned ruleShrinkThroughMove();
    unsigned ruleShrinkCombine();
    unsigned ruleMoveFusion();
    unsigned ruleDistributive();

    /**
     * Apply @p match (returning how many matches it applied) to every
     * e-node whose kind is in @p kinds (a kindBit() mask), class by class
     * in id order, skipping those whose replay would change nothing. A
     * rule whose matches need an e-node of kind @p needs somewhere does
     * nothing while the e-graph has none.
     */
    template <typename Match>
    unsigned eachNode(Rule rule, std::uint16_t kinds, std::uint16_t needs,
                      Match match);

    /**
     * True, adding its count to @p applied, when replaying @p r would
     * change nothing. Otherwise start recording the application into @p r
     * and return false.
     */
    bool replayed(Replay &r, unsigned &applied);

    /** Record that the application compared or keyed an add on @p c. */
    void
    key(EClassId c)
    {
        c = eg_.find(c);
        if (current_->keyEnd == current_->keyBegin || keys_.back() != c) {
            keys_.push_back(c);
            current_->keyEnd = static_cast<std::uint32_t>(keys_.size());
        }
    }

    /** Class @p c, whose node list the application scans. */
    const EClass &
    read(EClassId c)
    {
        c = eg_.find(c);
        if (std::find(reads_.begin() + current_->readBegin, reads_.end(),
                      c) == reads_.end()) {
            reads_.push_back(c);
            current_->readEnd = static_cast<std::uint32_t>(reads_.size());
        }
        return eg_.eclass(c);
    }

    /** First e-node of @p kind in class @p c (a read); nullptr if none. */
    const ENode *
    findKind(EClassId c, TdfgKind kind)
    {
        for (ENodeId n : read(c).nodes)
            if (eg_.kind(n) == kind)
                return &eg_.node(n);
        return nullptr;
    }

    /** EGraph::add(), keying the application on the node and result. */
    EClassId
    add(ENode &&n)
    {
        for (EClassId ch : n.children)
            key(ch);
        EClassId c = eg_.add(std::move(n));
        key(c);
        return c;
    }

    /** An unguarded merge: a replay counts it again when it holds. */
    unsigned
    mergeCounted(EClassId a, EClassId b)
    {
        unsigned ok = eg_.merge(a, b);
        current_->applied += ok;
        return ok;
    }

    EGraph &eg_;
    const TdfgOptimizer::Options &opts_;
    std::vector<ENodeId> snap_;
    /** Per rule, by e-node id. */
    std::array<std::vector<Replay>, NumRules> replays_;
    /** Dense ordinal of every tensor e-node seen, by e-node id. */
    std::vector<std::uint32_t> tensorOrdinal_;
    std::uint32_t numTensors_ = 0;
    /** Expanded tensor pairs, triangular by ordinal (hi * (hi-1) / 2 + lo). */
    std::vector<Replay> expanded_;
    /** The replays' reads and keys, sliced by each Replay. */
    std::vector<EClassId> reads_, keys_;
    Replay *current_ = nullptr;
    /** Every class's root at the last rebuild. */
    std::vector<EClassId> rootAtRebuild_;
};

bool
Rewriter::replayed(Replay &r, unsigned &applied)
{
    bool noop = r.recorded;
    for (std::uint32_t i = r.readBegin; noop && i < r.readEnd; ++i)
        noop = eg_.unchangedSince(reads_[i], r.stamp);
    for (std::uint32_t i = r.keyBegin; noop && i < r.keyEnd; ++i) {
        // A key was a root when recorded; a class that existed at the
        // last rebuild answers for its root then.
        EClassId k = keys_[i];
        if (k < rootAtRebuild_.size())
            k = rootAtRebuild_[k];
        noop = eg_.find(k) == k;
    }
    if (noop) {
        applied += r.applied;
        return true;
    }
    r.stamp = eg_.clock();
    r.readBegin = r.readEnd = static_cast<std::uint32_t>(reads_.size());
    r.keyBegin = r.keyEnd = static_cast<std::uint32_t>(keys_.size());
    r.applied = 0;
    r.recorded = true;
    current_ = &r;
    return false;
}

void
Rewriter::rebuilt()
{
    rootAtRebuild_.clear();
    for (EClassId c = 0; eg_.validId(c); ++c)
        rootAtRebuild_.push_back(eg_.find(c));
}

unsigned
Rewriter::applyRules()
{
    unsigned n = 0;
    if (opts_.enableAlgebra) {
        n += ruleCommutative();
        n += ruleDistributive();
    }
    n += ruleComputeMoveExchange();
    n += ruleComputeBroadcastExchange();
    if (opts_.enableExpansion)
        n += ruleTensorExpansion();
    n += ruleShrinkThroughCompute();
    n += ruleShrinkThroughMove();
    n += ruleShrinkCombine();
    n += ruleMoveFusion();
    return n;
}

template <typename Match>
unsigned
Rewriter::eachNode(Rule rule, std::uint16_t kinds, std::uint16_t needs,
                   Match match)
{
    unsigned applied = 0;
    if ((eg_.allKinds() & needs) != needs)
        return applied;
    for (EClassId c : eg_.canonicalClasses()) {
        if ((eg_.kinds(c) & kinds) == 0)
            continue;
        // Snapshot: the match may grow or empty this class's list.
        snap_.clear();
        for (ENodeId id : eg_.eclass(c).nodes)
            if (kindBit(eg_.kind(id)) & kinds)
                snap_.push_back(id);
        for (ENodeId id : snap_) {
            std::vector<Replay> &rs = replays_[rule];
            if (id >= rs.size())
                rs.resize(std::max<std::size_t>(2 * rs.size(), id + 1));
            if (!replayed(rs[id], applied))
                applied += match(c, eg_.node(id));
        }
    }
    return applied;
}

unsigned
Rewriter::ruleCommutative()
{
    // Eq. 3b: C(f, A, B) <=> C(f, B, A).
    return eachNode(Commutative, kindBit(TdfgKind::Compute), 0,
                    [&](EClassId c, const ENode &n) -> unsigned {
        if (n.children.size() != 2 || !isCommutative(n.fn))
            return 0;
        ENode sw = n;
        std::swap(sw.children[0], sw.children[1]);
        EClassId sc = add(std::move(sw));
        return eg_.find(sc) != eg_.find(c) && eg_.merge(c, sc);
    });
}

unsigned
Rewriter::ruleDistributive()
{
    // Eq. 3c with g = multiply-by-shared-operand:
    // C(+, C(*, A, K), C(*, B, K)) => C(*, C(+, A, B), K).
    return eachNode(Distributive, kindBit(TdfgKind::Compute), 0,
                    [&](EClassId c, const ENode &n) -> unsigned {
        if (n.fn != BitOp::Add || n.children.size() != 2)
            return 0;
        const ENode *lm = findKind(n.children[0], TdfgKind::Compute);
        const ENode *rm = findKind(n.children[1], TdfgKind::Compute);
        if (!lm || !rm || lm->fn != BitOp::Mul || rm->fn != BitOp::Mul)
            return 0;
        if (lm->children.size() != 2 || rm->children.size() != 2)
            return 0;
        // Find the shared factor K.
        unsigned applied = 0;
        for (int li = 0; li < 2; ++li) {
            for (int ri = 0; ri < 2; ++ri) {
                key(lm->children[li]);
                key(rm->children[ri]);
                if (eg_.find(lm->children[li]) != eg_.find(rm->children[ri]))
                    continue;
                // Two constant weights would sum into a compute with only
                // constant operands, which a tDFG cannot hold.
                if (eg_.eclass(lm->children[1 - li]).infiniteDomain &&
                    eg_.eclass(rm->children[1 - ri]).infiniteDomain)
                    continue;
                ENode sum;
                sum.kind = TdfgKind::Compute;
                sum.fn = BitOp::Add;
                sum.children = {lm->children[1 - li], rm->children[1 - ri]};
                EClassId sum_c = add(std::move(sum));
                ENode mul;
                mul.kind = TdfgKind::Compute;
                mul.fn = BitOp::Mul;
                mul.children = {sum_c, lm->children[li]};
                EClassId mc = add(std::move(mul));
                if (eg_.find(mc) != eg_.find(c) && eg_.merge(c, mc))
                    ++applied;
            }
        }
        return applied;
    });
}

unsigned
Rewriter::ruleComputeMoveExchange()
{
    // Eq. 4a: C(f, M(A0,i,d), M(A1,i,d), ...) <=> M(C(f, A0, A1, ...),i,d).
    // Constant operands are translation-invariant and pass through.
    return eachNode(MoveExchange,
                    kindBit(TdfgKind::Compute) | kindBit(TdfgKind::Move),
                    kindBit(TdfgKind::Move),
                    [&](EClassId c, const ENode &n) -> unsigned {
        if (n.kind == TdfgKind::Compute) {
            // Hoist: all non-const children contain a Move with the same
            // (dim, dist).
            bool found = false;
            unsigned dim = 0;
            Coord dist = 0;
            EChildren inner;
            for (EClassId ch : n.children) {
                if (eg_.eclass(ch).infiniteDomain) {
                    inner.push_back(ch);
                    continue;
                }
                const ENode *mv = findKind(ch, TdfgKind::Move);
                if (!mv)
                    return 0;
                if (!found) {
                    dim = mv->dim;
                    dist = mv->dist;
                    found = true;
                } else if (mv->dim != dim || mv->dist != dist) {
                    return 0;
                }
                inner.push_back(mv->children[0]);
            }
            if (!found || dist == 0)
                return 0;
            ENode cmp;
            cmp.kind = TdfgKind::Compute;
            cmp.fn = n.fn;
            cmp.children = inner;
            EClassId cmp_c = add(std::move(cmp));
            ENode mv;
            mv.kind = TdfgKind::Move;
            mv.dim = dim;
            mv.dist = dist;
            mv.children = {cmp_c};
            EClassId mv_c = add(std::move(mv));
            return eg_.find(mv_c) != eg_.find(c) && eg_.merge(c, mv_c);
        }
        // Sink: M(C(f, A...), i, d) => C(f, M(A,i,d)...).
        const ENode *cm = findKind(n.children[0], TdfgKind::Compute);
        if (!cm)
            return 0;
        ENode cmp;
        cmp.kind = TdfgKind::Compute;
        cmp.fn = cm->fn;
        for (EClassId ch : cm->children) {
            if (eg_.eclass(ch).infiniteDomain) {
                cmp.children.push_back(ch);
                continue;
            }
            ENode mv;
            mv.kind = TdfgKind::Move;
            mv.dim = n.dim;
            mv.dist = n.dist;
            mv.children = {ch};
            cmp.children.push_back(add(std::move(mv)));
        }
        EClassId cc = add(std::move(cmp));
        return eg_.find(cc) != eg_.find(c) && eg_.merge(c, cc);
    });
}

unsigned
Rewriter::ruleComputeBroadcastExchange()
{
    // Eq. 4b: C(f, B(A,i,dist,cnt)) <=> B(C(f, A),i,dist,cnt) (unary form:
    // other operands must be constants).
    return eachNode(BroadcastExchange, kindBit(TdfgKind::Compute),
                    kindBit(TdfgKind::Broadcast),
                    [&](EClassId c, const ENode &n) -> unsigned {
        const ENode *bc = nullptr;
        EChildren inner;
        for (EClassId ch : n.children) {
            if (eg_.eclass(ch).infiniteDomain) {
                inner.push_back(ch);
                continue;
            }
            if (bc != nullptr)
                return 0; // Only the unary (one tensor) form.
            bc = findKind(ch, TdfgKind::Broadcast);
            if (!bc)
                return 0;
            inner.push_back(bc->children[0]);
        }
        if (bc == nullptr)
            return 0;
        ENode cmp;
        cmp.kind = TdfgKind::Compute;
        cmp.fn = n.fn;
        cmp.children = inner;
        EClassId cmp_c = add(std::move(cmp));
        ENode nb;
        nb.kind = TdfgKind::Broadcast;
        nb.dim = bc->dim;
        nb.dist = bc->dist;
        nb.count = bc->count;
        nb.children = {cmp_c};
        EClassId bc_c = add(std::move(nb));
        return eg_.find(bc_c) != eg_.find(c) && eg_.merge(c, bc_c);
    });
}

unsigned
Rewriter::ruleTensorExpansion()
{
    // Eq. 5: T(..., p, q, ...) <=> S(i, p, q, T(..., p', q', ...)) for any
    // containing range. We expand pairs of tensors over the same array to
    // their bounding union — exactly the "tensor expansion" transformation
    // of §3.2, which unlocks compute reuse.
    unsigned applied = 0;
    struct TensorRef {
        ENodeId node;
        EClassId cls;
    };
    constexpr std::uint32_t unseen = ~std::uint32_t(0);
    std::vector<TensorRef> tensors;
    for (EClassId c : eg_.canonicalClasses()) {
        if ((eg_.kinds(c) & kindBit(TdfgKind::Tensor)) == 0)
            continue;
        for (ENodeId id : eg_.eclass(c).nodes) {
            if (eg_.kind(id) != TdfgKind::Tensor)
                continue;
            tensors.push_back({id, c});
            if (id >= tensorOrdinal_.size())
                tensorOrdinal_.resize(id + 1, unseen);
            if (tensorOrdinal_[id] == unseen)
                tensorOrdinal_[id] = numTensors_++;
        }
    }
    expanded_.resize(std::size_t{numTensors_} * (numTensors_ - 1) / 2);

    for (std::size_t i = 0; i < tensors.size(); ++i) {
        const ENode &ti = eg_.node(tensors[i].node);
        for (std::size_t j = i + 1; j < tensors.size(); ++j) {
            // Tensors never change, so a pair that does not qualify
            // records an empty replay and is skipped from then on.
            std::size_t oi = tensorOrdinal_[tensors[i].node];
            std::size_t oj = tensorOrdinal_[tensors[j].node];
            std::size_t lo = std::min(oi, oj), hi = std::max(oi, oj);
            if (replayed(expanded_[hi * (hi - 1) / 2 + lo], applied))
                continue;
            const ENode &tj = eg_.node(tensors[j].node);
            if (ti.array != tj.array || ti.rect == tj.rect)
                continue;
            // The bounding union. When one tensor already spans it, the
            // union is that tensor's own node, so no add is needed to
            // find its class.
            const TensorRef *spans =
                ti.rect.empty()                 ? &tensors[j]
                : tj.rect.empty()               ? &tensors[i]
                : ti.rect.containsRect(tj.rect) ? &tensors[i]
                : tj.rect.containsRect(ti.rect) ? &tensors[j]
                                                : nullptr;
            HyperRect joined;
            EClassId big_c;
            if (spans != nullptr) {
                big_c = eg_.find(spans->cls);
                key(big_c);
            } else {
                joined = ti.rect.boundingUnion(tj.rect);
                ENode big;
                big.kind = TdfgKind::Tensor;
                big.array = ti.array;
                big.rect = joined;
                big_c = add(std::move(big));
            }
            const HyperRect &uni =
                spans != nullptr ? eg_.node(spans->node).rect : joined;
            for (const TensorRef *t : {&tensors[i], &tensors[j]}) {
                if (t == spans)
                    continue;
                const HyperRect &rect = eg_.node(t->node).rect;
                // Chain shrinks per differing dimension.
                EClassId cur = big_c;
                for (unsigned d = 0; d < uni.dims(); ++d) {
                    if (rect.lo(d) == uni.lo(d) && rect.hi(d) == uni.hi(d))
                        continue;
                    ENode s;
                    s.kind = TdfgKind::Shrink;
                    s.dim = d;
                    s.shrinkLo = rect.lo(d);
                    s.shrinkHi = rect.hi(d);
                    s.children = {cur};
                    cur = add(std::move(s));
                }
                if (eg_.find(cur) != eg_.find(t->cls) &&
                    eg_.merge(t->cls, cur))
                    ++applied;
            }
        }
    }
    return applied;
}

unsigned
Rewriter::ruleShrinkThroughCompute()
{
    // Eq. 9: C(f, S(i,p,q,A), consts...) => S(i,p,q, C(f, A, consts...)).
    // Multi-tensor form requires every tensor operand to carry the same
    // shrink. A class may hold several shrink nodes (one per expansion
    // pairing), so every candidate of the first tensor operand is tried.
    std::vector<const ENode *> candidates;
    return eachNode(ShrinkThroughCompute, kindBit(TdfgKind::Compute),
                    kindBit(TdfgKind::Shrink),
                    [&](EClassId c, const ENode &n) -> unsigned {
        // Candidate shrinks of the first non-const child.
        candidates.clear();
        for (EClassId ch : n.children) {
            if (eg_.eclass(ch).infiniteDomain)
                continue;
            for (ENodeId s : read(ch).nodes)
                if (eg_.kind(s) == TdfgKind::Shrink)
                    candidates.push_back(&eg_.node(s));
            break; // Only the first tensor child seeds candidates.
        }
        unsigned applied = 0;
        for (const ENode *cand : candidates) {
            unsigned dim = cand->dim;
            Coord lo = cand->shrinkLo, hi = cand->shrinkHi;
            bool ok = true, first_tensor = true;
            EChildren inner;
            for (EClassId ch : n.children) {
                if (eg_.eclass(ch).infiniteDomain) {
                    inner.push_back(ch);
                    continue;
                }
                if (first_tensor) {
                    inner.push_back(cand->children[0]);
                    first_tensor = false;
                    continue;
                }
                const ENode *match = nullptr;
                for (ENodeId s : read(ch).nodes) {
                    const ENode &sn = eg_.node(s);
                    if (sn.kind == TdfgKind::Shrink && sn.dim == dim &&
                        sn.shrinkLo == lo && sn.shrinkHi == hi) {
                        match = &sn;
                        break;
                    }
                }
                if (!match) {
                    ok = false;
                    break;
                }
                inner.push_back(match->children[0]);
            }
            if (!ok)
                continue;
            ENode cmp;
            cmp.kind = TdfgKind::Compute;
            cmp.fn = n.fn;
            cmp.children = inner;
            EClassId cmp_c = add(std::move(cmp));
            ENode s;
            s.kind = TdfgKind::Shrink;
            s.dim = dim;
            s.shrinkLo = lo;
            s.shrinkHi = hi;
            s.children = {cmp_c};
            EClassId sc = add(std::move(s));
            if (eg_.find(sc) != eg_.find(c) && eg_.merge(c, sc))
                ++applied;
        }
        return applied;
    });
}

unsigned
Rewriter::ruleShrinkThroughMove()
{
    // Eq. 7a/7b: M(S(i,p,q,A), j, d) <=> S(i', p', q', M(A, j, d)) where
    // the shrink range shifts by d when i == j.
    return eachNode(ShrinkThroughMove, kindBit(TdfgKind::Move),
                    kindBit(TdfgKind::Shrink),
                    [&](EClassId c, const ENode &n) -> unsigned {
        const ENode *s = findKind(n.children[0], TdfgKind::Shrink);
        if (!s)
            return 0;
        ENode mv;
        mv.kind = TdfgKind::Move;
        mv.dim = n.dim;
        mv.dist = n.dist;
        mv.children = {s->children[0]};
        EClassId mv_c = add(std::move(mv));
        ENode ns;
        ns.kind = TdfgKind::Shrink;
        ns.dim = s->dim;
        ns.shrinkLo = s->shrinkLo + (s->dim == n.dim ? n.dist : 0);
        ns.shrinkHi = s->shrinkHi + (s->dim == n.dim ? n.dist : 0);
        ns.children = {mv_c};
        EClassId sc = add(std::move(ns));
        return eg_.find(sc) != eg_.find(c) && eg_.merge(c, sc);
    });
}

unsigned
Rewriter::ruleShrinkCombine()
{
    // Eq. 6b plus elimination: a shrink whose range equals its child's
    // domain is the identity.
    return eachNode(ShrinkCombine, kindBit(TdfgKind::Shrink), 0,
                    [&](EClassId c, const ENode &n) -> unsigned {
        const EClass &child = eg_.eclass(n.children[0]);
        if (!child.infiniteDomain && child.domain.lo(n.dim) == n.shrinkLo &&
            child.domain.hi(n.dim) == n.shrinkHi)
            return mergeCounted(c, n.children[0]);
        const ENode *s = findKind(n.children[0], TdfgKind::Shrink);
        if (!s || s->dim != n.dim)
            return 0;
        ENode ns;
        ns.kind = TdfgKind::Shrink;
        ns.dim = n.dim;
        ns.shrinkLo = std::max(n.shrinkLo, s->shrinkLo);
        ns.shrinkHi = std::min(n.shrinkHi, s->shrinkHi);
        ns.children = {s->children[0]};
        EClassId sc = add(std::move(ns));
        return eg_.find(sc) != eg_.find(c) && eg_.merge(c, sc);
    });
}

unsigned
Rewriter::ruleMoveFusion()
{
    // M(M(A,i,d1),i,d2) => M(A,i,d1+d2); M(A,i,0) => A.
    return eachNode(MoveFusion, kindBit(TdfgKind::Move), 0,
                    [&](EClassId c, const ENode &n) -> unsigned {
        if (n.dist == 0)
            return mergeCounted(c, n.children[0]);
        const ENode *m = findKind(n.children[0], TdfgKind::Move);
        if (!m || m->dim != n.dim)
            return 0;
        Coord total = m->dist + n.dist;
        if (total == 0)
            return mergeCounted(c, m->children[0]);
        ENode nm;
        nm.kind = TdfgKind::Move;
        nm.dim = n.dim;
        nm.dist = total;
        nm.children = {m->children[0]};
        EClassId mc = add(std::move(nm));
        return eg_.find(mc) != eg_.find(c) && eg_.merge(c, mc);
    });
}

/** Per-class chosen e-node (arena id), produced by one cost fixpoint. */
using Selection = std::vector<ENodeId>;
constexpr ENodeId noNode = ~ENodeId(0);

/**
 * One e-node as relaxation sees it, computed once: its class, its own
 * cost, its canonical children and the summed volume of those with a
 * finite domain.
 */
struct Candidate {
    EClassId cls;
    ENodeId node;
    double own;
    double childVolume;
    EChildren children;
};

/** Every e-node of @p classes, in class order then list order. */
std::vector<Candidate>
candidates(const EGraph &eg, const std::vector<EClassId> &classes,
           const ExtractionCost &cost)
{
    // Each class's volume as a child (0 when infinite), computed once.
    std::vector<double> volume(classes.empty() ? 0 : classes.back() + 1);
    for (EClassId c : classes) {
        const EClass &cls = eg.eclass(c);
        if (!cls.infiniteDomain)
            volume[c] = static_cast<double>(cls.domain.volume());
    }
    std::vector<Candidate> out;
    for (EClassId c : classes) {
        const EClass &cls = eg.eclass(c);
        for (ENodeId id : cls.nodes) {
            const ENode &n = eg.node(id);
            Candidate cand{c, id,
                           cost.nodeCost(n.kind, n.fn, n.children.size(),
                                         cls.domain, cls.infiniteDomain),
                           0.0, {}};
            for (EClassId ch : n.children) {
                EClassId cc = eg.find(ch);
                cand.childVolume += volume[cc];
                cand.children.push_back(cc);
            }
            out.push_back(cand);
        }
    }
    return out;
}

/**
 * Relax class costs to a fixpoint. @p refs optionally amortizes a child's
 * cost across its (candidate) consumers, which lets extraction see sharing
 * (tree-cost extraction double-counts shared subgraphs).
 */
void
relaxCosts(const std::vector<Candidate> &cands,
           const std::vector<unsigned> *refs, Selection &sel)
{
    const double inf = std::numeric_limits<double>::infinity();
    // Near-ties (within cost_tol) break toward the candidate whose
    // children span larger domains: computes over expanded tensors cost
    // the same cycles on bitline-parallel hardware, and the expanded form
    // is the canonical one that hash-consing shares across shrunk
    // consumers (§3.2 "tensor expansion", appendix Eq. 5).
    const double cost_tol = 0.5;
    std::vector<double> best(sel.size(), inf), vol(sel.size(), -inf);
    // A candidate whose inputs (its children's best costs, its class's
    // best cost and volume) are unchanged since it was last evaluated
    // would compute the same total and not win again: skip it. Stamps
    // come from one counter; 0 means never.
    std::uint64_t clock = 0;
    std::vector<std::uint64_t> updated(sel.size(), 0);
    std::vector<std::uint64_t> evaluated(cands.size(), 0);
    for (unsigned round = 0; round < 64; ++round) {
        bool changed = false;
        for (std::size_t k = 0; k < cands.size(); ++k) {
            const Candidate &cand = cands[k];
            const EClassId c = cand.cls;
            bool stale = evaluated[k] == 0 || updated[c] > evaluated[k];
            for (EClassId cc : cand.children)
                stale |= updated[cc] > evaluated[k];
            if (!stale)
                continue;
            evaluated[k] = ++clock;
            double total = cand.own;
            bool feasible = true;
            for (EClassId cc : cand.children) {
                double bc = best[cc];
                if (bc == inf) {
                    feasible = false;
                    break;
                }
                // x / 1.0 == x exactly, so unshared children skip the
                // division.
                if (refs != nullptr && (*refs)[cc] > 1)
                    total += bc / (*refs)[cc];
                else
                    total += bc;
            }
            if (!feasible)
                continue;
            double v = cand.childVolume;
            bool better = total < best[c] - cost_tol ||
                          (total < best[c] + cost_tol && v > vol[c]);
            if (better) {
                best[c] = std::min(best[c], total);
                vol[c] = v;
                sel[c] = cand.node;
                updated[c] = ++clock;
                changed = true;
            }
        }
        if (!changed)
            break;
    }
}

/**
 * Build a tDFG from a selection; memoized so shared classes emit once.
 * The amortized selection may contain cycles (its relaxation is only
 * asymptotically convergent); on re-entry we fall back to the tree
 * selection, which positive node costs guarantee to be acyclic.
 */
struct GraphBuilder {
    const EGraph &eg;
    const Selection &sel;
    const Selection &fallback;
    const TdfgGraph &original;
    TdfgGraph &g;
    std::vector<NodeId> built;
    std::vector<bool> inProgress;
    /** First failure; once set, build() unwinds returning invalidNode. */
    std::optional<Error> err;

    GraphBuilder(const EGraph &eg_, const Selection &sel_,
                 const Selection &fallback_, const TdfgGraph &original_,
                 TdfgGraph &g_)
        : eg(eg_), sel(sel_), fallback(fallback_), original(original_),
          g(g_), built(sel_.size(), invalidNode),
          inProgress(sel_.size(), false)
    {
    }

    NodeId
    build(EClassId c, bool use_fallback = false)
    {
        if (err)
            return invalidNode;
        c = eg.find(c);
        if (built[c] != invalidNode)
            return built[c];
        if (inProgress[c]) {
            if (use_fallback) {
                // The tree selection's positive node costs should make
                // it acyclic; a cycle here means the cost fixpoint was
                // corrupted, so reject the extraction rather than abort.
                err = Error{ErrCode::VerifyFailed,
                            "extraction: cycle in acyclic tree selection "
                            "at class " + std::to_string(c)};
                return invalidNode;
            }
            use_fallback = true;
        }
        const Selection &s = use_fallback ? fallback : sel;
        if (s[c] == noNode) {
            err = Error{ErrCode::VerifyFailed,
                        "extraction: class " + std::to_string(c) +
                            " unreachable in the cost fixpoint"};
            return invalidNode;
        }
        const ENode &n = eg.node(s[c]);
        inProgress[c] = true;
        std::vector<NodeId> kids;
        for (EClassId ch : n.children)
            kids.push_back(build(ch, use_fallback));
        inProgress[c] = false;
        if (err)
            return invalidNode;
        // A deeper frame may have completed this class via the fallback
        // path; reuse it rather than emitting a duplicate node.
        if (built[c] != invalidNode)
            return built[c];
        NodeId id = invalidNode;
        switch (n.kind) {
          case TdfgKind::Tensor:
            id = g.tensor(n.array, n.rect);
            break;
          case TdfgKind::ConstVal:
            id = g.constant(n.constValue);
            break;
          case TdfgKind::Compute:
            id = g.compute(n.fn, kids);
            break;
          case TdfgKind::Move:
            id = g.move(kids[0], n.dim, n.dist);
            break;
          case TdfgKind::Broadcast:
            id = g.broadcast(kids[0], n.dim, n.dist, n.count);
            break;
          case TdfgKind::Shrink:
            id = g.shrink(kids[0], n.dim, n.shrinkLo, n.shrinkHi);
            break;
          case TdfgKind::Reduce:
            id = g.reduce(kids[0], n.fn, n.dim);
            break;
          case TdfgKind::Stream: {
            const TdfgNode &orig = original.node(
                static_cast<NodeId>(n.streamTag));
            id = g.stream(orig.streamRole, orig.pattern,
                          kids.empty() ? invalidNode : kids[0],
                          orig.domain, orig.name, orig.fn);
            break;
          }
        }
        built[c] = id;
        return id;
    }
};

/** Extract the cheapest graph computing @p roots from the saturated @p eg. */
Expected<ExtractionResult>
extractCheapest(const EGraph &eg, const std::vector<EClassId> &roots,
                const ExtractionCost &cost, const TdfgGraph &original)
{
    const std::vector<EClassId> classes = eg.canonicalClasses();
    const std::size_t n_ids = classes.empty() ? 0 : classes.back() + 1;
    const std::vector<Candidate> cands = candidates(eg, classes, cost);

    // Phase 1: plain tree-cost fixpoint.
    Selection sel1(n_ids, noNode);
    relaxCosts(cands, nullptr, sel1);

    // Reference counts over classes reachable from the roots: how many
    // candidate e-nodes consume each class. Classes consumed more than
    // once are sharing opportunities.
    std::vector<unsigned> refs(n_ids, 0);
    {
        std::vector<EClassId> stack;
        std::vector<bool> seen(n_ids, false);
        for (EClassId r : roots)
            stack.push_back(eg.find(r));
        while (!stack.empty()) {
            EClassId c = stack.back();
            stack.pop_back();
            if (seen[c])
                continue;
            seen[c] = true;
            for (ENodeId id : eg.eclass(c).nodes) {
                for (EClassId ch : eg.node(id).children) {
                    EClassId cc = eg.find(ch);
                    ++refs[cc];
                    if (!seen[cc])
                        stack.push_back(cc);
                }
            }
        }
    }

    // Phase 2: sharing-amortized fixpoint.
    Selection sel2(n_ids, noNode);
    relaxCosts(cands, &refs, sel2);

    // Build both candidate graphs and keep the one whose *true* cost (each
    // node charged once) is lower — never worse than tree extraction.
    auto buildGraph = [&](const Selection &sel,
                          ExtractionResult &res) -> std::optional<Error> {
        GraphBuilder b(eg, sel, sel1, original, res.graph);
        for (EClassId r : roots)
            res.rootNodes.push_back(b.build(r));
        if (b.err)
            return b.err;
        res.cost = 0.0;
        for (const TdfgNode &n : res.graph.nodes())
            res.cost += cost.nodeCost(n.kind, n.fn, n.operands.size(),
                                      n.domain, n.infiniteDomain);
        return std::nullopt;
    };

    const std::string name = original.name() + ".opt";
    ExtractionResult tree{TdfgGraph(eg.dims(), name), 0.0, {}};
    if (std::optional<Error> e = buildGraph(sel1, tree))
        return *std::move(e); // No tree selection: nothing to extract.
    ExtractionResult shared{TdfgGraph(eg.dims(), name), 0.0, {}};
    if (std::optional<Error> e = buildGraph(sel2, shared)) {
        // The amortized selection is an optimization attempt on top of
        // the sound tree extraction; losing it costs performance only.
        infs_warn("extract: amortized selection rejected (%s); using tree "
                  "extraction", e->str().c_str());
        return tree;
    }
    return shared.cost <= tree.cost ? std::move(shared) : std::move(tree);
}

} // namespace

Expected<ExtractionResult>
TdfgOptimizer::tryOptimize(const TdfgGraph &g, const ExtractionCost &cost)
{
    rewrites_ = 0;
    iterations_ = 0;
    EGraph eg(g.dims());

    // Ingest: one e-class per original node (hash-consing may alias).
    std::vector<EClassId> classOf(g.size(), invalidEClass);
    for (NodeId id = 0; id < g.size(); ++id) {
        const TdfgNode &n = g.node(id);
        ENode en;
        en.kind = n.kind;
        en.fn = n.fn;
        en.dim = n.dim;
        en.dist = n.dist;
        en.count = n.count;
        en.array = n.array;
        en.constValue = n.constValue;
        if (n.kind == TdfgKind::Tensor)
            en.rect = n.domain;
        if (n.kind == TdfgKind::Shrink) {
            en.shrinkLo = n.domain.lo(n.dim);
            en.shrinkHi = n.domain.hi(n.dim);
        }
        if (n.kind == TdfgKind::Stream) {
            en.streamTag = static_cast<std::int32_t>(id);
            en.rect = n.domain;
        }
        if (n.operands.size() > EChildren::capacity) {
            return Error{ErrCode::InvalidArgument,
                         "tdfg '" + g.name() + "': node " +
                             std::to_string(id) + " has " +
                             std::to_string(n.operands.size()) +
                             " operands; e-nodes hold at most " +
                             std::to_string(EChildren::capacity)};
        }
        for (NodeId op : n.operands)
            en.children.push_back(classOf[op]);
        classOf[id] = eg.add(std::move(en));
    }

    // Saturate within budgets ("can be exhaustive or terminated early").
    Rewriter rw(eg, opts_);
    for (unsigned it = 0; it < opts_.maxIterations; ++it) {
        ++iterations_;
        unsigned applied = rw.applyRules();
        eg.rebuild();
        rw.rebuilt();
        rewrites_ += applied;
        if (applied == 0 || eg.numNodes() > opts_.maxNodes)
            break;
    }

    // Roots: every output plus every (side-effecting) stream node.
    std::vector<EClassId> roots;
    std::vector<NodeId> rootOrigins;
    for (const auto &o : g.outputs()) {
        roots.push_back(eg.find(classOf[o.node]));
        rootOrigins.push_back(o.node);
    }
    for (NodeId id = 0; id < g.size(); ++id) {
        if (g.node(id).kind == TdfgKind::Stream) {
            roots.push_back(eg.find(classOf[id]));
            rootOrigins.push_back(id);
        }
    }
    Expected<ExtractionResult> res = extractCheapest(eg, roots, cost, g);
    if (!res)
        return res.error();
    // Re-attach outputs.
    for (std::size_t i = 0; i < g.outputs().size(); ++i)
        res->graph.output(res->rootNodes[i], g.outputs()[i].array);
    // Re-verify every extracted graph, so a bad rewrite surfaces as a
    // diagnostic at the rewrite (DESIGN.md §9).
    if (auto ok = checkTdfg(res->graph); !ok)
        return ok.error();
    return res;
}

ExtractionResult
TdfgOptimizer::optimize(const TdfgGraph &g, const ExtractionCost &cost)
{
    Expected<ExtractionResult> res = tryOptimize(g, cost);
    if (!res) {
        infs_fatal("tDFG '%s': optimization failed with no fallback: %s",
                   g.name().c_str(), res.error().str().c_str());
    }
    return std::move(*res);
}

double
ExtractionCost::nodeCost(TdfgKind kind, BitOp fn, std::size_t arity,
                         const HyperRect &domain, bool infinite) const
{
    double vol = infinite ? 1.0
                          : static_cast<double>(std::max<std::int64_t>(
                                domain.volume(), 1));
    double waves = std::ceil(vol / bitlinesTotal);
    switch (kind) {
      case TdfgKind::Tensor:
      case TdfgKind::ConstVal:
        return 0.01;
      case TdfgKind::Shrink:
        return 0.01; // Lowered to a nop by the JIT (appendix).
      case TdfgKind::Compute:
        return static_cast<double>(latency.opCycles(fn, DType::Fp32)) *
               waves * std::max<double>(1.0, arity - 1.0);
      case TdfgKind::Move:
        // Intra-array shift latency plus a traffic term growing with the
        // amount of moved data.
        return static_cast<double>(
                   latency.intraShiftCycles(DType::Fp32)) * waves +
               vol / bitlinesTotal;
      case TdfgKind::Broadcast:
        // Broadcast reuses the read data through the H tree: cheap.
        return static_cast<double>(
                   latency.intraShiftCycles(DType::Fp32)) * waves * 0.5;
      case TdfgKind::Reduce:
        return static_cast<double>(latency.opCycles(fn, DType::Fp32)) *
               10.0 * waves;
      case TdfgKind::Stream:
        return 1000.0; // Opaque near-memory work.
    }
    return 1.0;
}

} // namespace infs
