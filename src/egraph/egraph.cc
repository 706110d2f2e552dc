#include "egraph/egraph.hh"

#include <algorithm>
#include <utility>

namespace infs {

bool
ENode::operator==(const ENode &o) const
{
    return kind == o.kind && fn == o.fn && dim == o.dim && dist == o.dist &&
           count == o.count && shrinkLo == o.shrinkLo &&
           shrinkHi == o.shrinkHi && array == o.array &&
           constValue == o.constValue && rect == o.rect &&
           streamTag == o.streamTag && children == o.children;
}

std::size_t
ENodeHash::operator()(const ENode &n) const
{
    auto mix = [](std::size_t h, std::size_t v) {
        return (h ^ v) * 0x9e3779b97f4a7c15ULL;
    };
    std::size_t h = static_cast<std::size_t>(n.kind);
    h = mix(h, static_cast<std::size_t>(n.fn));
    h = mix(h, n.dim);
    h = mix(h, static_cast<std::size_t>(n.dist));
    h = mix(h, static_cast<std::size_t>(n.count));
    h = mix(h, static_cast<std::size_t>(n.shrinkLo));
    h = mix(h, static_cast<std::size_t>(n.shrinkHi));
    h = mix(h, static_cast<std::size_t>(n.array));
    h = mix(h, std::hash<double>()(n.constValue));
    h = mix(h, static_cast<std::size_t>(n.streamTag));
    for (unsigned d = 0; d < n.rect.dims(); ++d) {
        h = mix(h, static_cast<std::size_t>(n.rect.lo(d)));
        h = mix(h, static_cast<std::size_t>(n.rect.hi(d)));
    }
    for (EClassId c : n.children)
        h = mix(h, c);
    // Finalize (MurmurHash3 fmix64): the hashcons indexes by the low bits.
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return h;
}

bool
EGraph::canonicalize(ENode &n) const
{
    bool changed = false;
    for (EClassId &ch : n.children) {
        EClassId root = find(ch);
        changed |= root != ch;
        ch = root;
    }
    return changed;
}

void
EGraph::domainOf(const ENode &n, HyperRect &out, bool &infinite) const
{
    infinite = false;
    switch (n.kind) {
      case TdfgKind::Tensor:
        out = n.rect;
        return;
      case TdfgKind::ConstVal:
        infinite = true;
        return;
      case TdfgKind::Compute: {
        const HyperRect *first = nullptr;
        bool narrowed = false;
        for (EClassId ch : n.children) {
            const EClass &c = eclass(ch);
            if (c.infiniteDomain)
                continue;
            if (first == nullptr) {
                first = &c.domain;
            } else {
                out = (narrowed ? out : *first).intersect(c.domain);
                narrowed = true;
            }
        }
        if (first == nullptr)
            infinite = true;
        else if (!narrowed)
            out = *first;
        return;
      }
      case TdfgKind::Move:
        out = eclass(n.children[0]).domain.shifted(n.dim, n.dist);
        return;
      case TdfgKind::Broadcast: {
        const HyperRect &src = eclass(n.children[0]).domain;
        Coord span = src.size(n.dim);
        out = src.withDim(n.dim, src.lo(n.dim) + n.dist,
                          src.lo(n.dim) + n.dist + n.count * span);
        return;
      }
      case TdfgKind::Shrink:
        out = eclass(n.children[0]).domain.withDim(n.dim, n.shrinkLo,
                                                   n.shrinkHi);
        return;
      case TdfgKind::Reduce: {
        const HyperRect &src = eclass(n.children[0]).domain;
        out = src.withDim(n.dim, src.lo(n.dim), src.lo(n.dim) + 1);
        return;
      }
      case TdfgKind::Stream:
        // Stream domains are carried in rect (opaque to rewriting).
        out = n.rect;
        return;
    }
    infs_panic("domainOf: unknown kind");
}

ENodeId
EGraph::lookup(const ENode &n, std::size_t hash) const
{
    if (hashcons_.empty())
        return noNode;
    const std::size_t mask = hashcons_.size() - 1;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
        const Slot &s = hashcons_[i];
        if (s.node == noNode)
            return noNode;
        if (s.hash == hash && node(s.node) == n)
            return s.node;
    }
}

void
EGraph::insert(ENodeId id, std::size_t hash)
{
    if (2 * (hashconsUsed_ + 1) > hashcons_.size()) {
        // Grow, dropping slots left behind by re-keyed nodes.
        std::vector<Slot> old = std::move(hashcons_);
        hashcons_.assign(std::max<std::size_t>(64, 2 * old.size()), Slot{});
        hashconsUsed_ = 0;
        for (const Slot &s : old)
            if (s.node != noNode && s.hash == nodeHash_[s.node])
                insert(s.node, s.hash);
    }
    const std::size_t mask = hashcons_.size() - 1;
    std::size_t i = hash & mask;
    while (hashcons_[i].node != noNode)
        i = (i + 1) & mask;
    hashcons_[i] = Slot{hash, id};
    ++hashconsUsed_;
}

EClassId
EGraph::add(ENode n)
{
    canonicalize(n);
    const std::size_t hash = ENodeHash{}(n);
    if (ENodeId same = lookup(n, hash); same != noNode)
        return find(owner_[same]);

    const EClassId id = static_cast<EClassId>(classes_.size());
    const ENodeId nid = static_cast<ENodeId>(nodeKinds_.size());
    EClass cls;
    cls.nodes.push_back(nid);
    domainOf(n, cls.domain, cls.infiniteDomain);
    classes_.push_back(std::move(cls));
    twins_.push_back(false);
    kinds_.push_back(kindBit(n.kind));
    allKinds_ |= kindBit(n.kind);
    changed_.push_back(clock_);
    parent_.push_back(id);
    nodeKinds_.push_back(n.kind);
    if (nid % chunkSize == 0)
        chunks_.push_back(std::make_unique<ENode[]>(chunkSize));
    mutableNode(nid) = std::move(n);
    owner_.push_back(id);
    roots_.push_back(id);
    nodeHash_.push_back(hash);
    insert(nid, hash);
    return id;
}

Expected<bool>
EGraph::tryMerge(EClassId a, EClassId b)
{
    if (!validId(a) || !validId(b)) {
        return Error{ErrCode::InvalidArgument,
                     "egraph merge(" + std::to_string(a) + ", " +
                         std::to_string(b) + ") beyond the " +
                         std::to_string(parent_.size()) +
                         " allocated classes"};
    }
    return merge(a, b);
}

bool
EGraph::merge(EClassId a, EClassId b)
{
    a = find(a);
    b = find(b);
    if (a == b)
        return true;
    const EClass &ca = classes_[a];
    const EClass &cb = classes_[b];
    // Equivalence requires identical domains (§appendix): reject unsound
    // merges defensively.
    if (ca.infiniteDomain != cb.infiniteDomain)
        return false;
    if (!ca.infiniteDomain && !(ca.domain == cb.domain))
        return false;
    // Union into the smaller id for determinism.
    if (b < a)
        std::swap(a, b);
    parent_[b] = a;
    auto &na = classes_[a].nodes;
    auto &nb = classes_[b].nodes;
    na.insert(na.end(), nb.begin(), nb.end());
    nb.clear();
    kinds_[a] |= kinds_[b];
    changed_[a] = changed_[b] = ++clock_;
    dirty_ = true;
    return true;
}

void
EGraph::rebuild()
{
    std::vector<std::pair<EClassId, EClassId>> congruent;
    while (dirty_) {
        dirty_ = false;
        congruent.clear();
        for (EClassId id = 0; id < classes_.size(); ++id) {
            if (parent_[id] != id)
                continue;
            std::vector<ENodeId> &ids = classes_[id].nodes;
            bool dedup = twins_[id];
            twins_[id] = false;
            for (ENodeId nid : ids) {
                ENode &n = mutableNode(nid);
                if (!canonicalize(n))
                    continue;
                const std::size_t hash = ENodeHash{}(n);
                nodeHash_[nid] = hash;
                ENodeId same = lookup(n, hash);
                if (same == noNode)
                    insert(nid, hash);
                else if (find(owner_[same]) != id)
                    congruent.emplace_back(owner_[same], id);
                dedup = true;
                changed_[id] = ++clock_;
            }
            if (!dedup)
                continue;
            // Of nodes that became equal, keep the first.
            std::size_t kept = 0;
            for (std::size_t i = 0; i < ids.size(); ++i) {
                const ENode &n = node(ids[i]);
                bool dup = false;
                for (std::size_t j = 0; j < kept && !dup; ++j)
                    dup = node(ids[j]) == n;
                if (!dup)
                    ids[kept++] = ids[i];
            }
            ids.resize(kept);
        }
        // Union congruent classes only now: merging inside the pass
        // would grow or clear a node list the pass is walking.
        for (auto [a, b] : congruent)
            if (merge(a, b))
                twins_[find(a)] = true;
    }
}

std::size_t
EGraph::numClasses() const
{
    return canonicalClasses().size();
}

std::size_t
EGraph::numNodes() const
{
    std::size_t n = 0;
    for (EClassId id : canonicalClasses())
        n += classes_[id].nodes.size();
    return n;
}

std::vector<EClassId>
EGraph::canonicalClasses() const
{
    // Roots are exactly the non-empty classes: a union empties the loser.
    std::erase_if(roots_, [&](EClassId id) { return parent_[id] != id; });
    return roots_;
}

} // namespace infs

