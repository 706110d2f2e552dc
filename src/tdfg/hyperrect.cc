#include "tdfg/hyperrect.hh"

#include <algorithm>
#include <sstream>

namespace infs {

bool
HyperRect::empty() const
{
    if (rank_ == 0)
        return true;
    for (unsigned d = 0; d < dims(); ++d)
        if (hi_[d] <= lo_[d])
            return true;
    return false;
}

std::int64_t
HyperRect::volume() const
{
    if (empty())
        return 0;
    std::int64_t v = 1;
    for (unsigned d = 0; d < dims(); ++d)
        v *= (hi_[d] - lo_[d]);
    return v;
}

bool
HyperRect::contains(const std::vector<Coord> &pt) const
{
    infs_assert(pt.size() == dims(), "point rank mismatch");
    for (unsigned d = 0; d < dims(); ++d)
        if (pt[d] < lo_[d] || pt[d] >= hi_[d])
            return false;
    return true;
}

bool
HyperRect::containsRect(const HyperRect &inner) const
{
    infs_assert(inner.dims() == dims(), "rect rank mismatch");
    if (inner.empty())
        return true;
    for (unsigned d = 0; d < dims(); ++d)
        if (inner.lo_[d] < lo_[d] || inner.hi_[d] > hi_[d])
            return false;
    return true;
}

HyperRect
HyperRect::intersect(const HyperRect &o) const
{
    infs_assert(o.dims() == dims(), "rect rank mismatch: %u vs %u", dims(),
                o.dims());
    HyperRect r;
    r.rank_ = rank_;
    for (unsigned d = 0; d < rank_; ++d) {
        r.lo_[d] = std::max(lo_[d], o.lo_[d]);
        r.hi_[d] = std::max(r.lo_[d], std::min(hi_[d], o.hi_[d]));
    }
    return r;
}

bool
HyperRect::overlaps(const HyperRect &o) const
{
    infs_assert(o.dims() == dims(), "rect rank mismatch: %u vs %u", dims(),
                o.dims());
    if (rank_ == 0)
        return false;
    for (unsigned d = 0; d < dims(); ++d)
        if (std::min(hi_[d], o.hi_[d]) <= std::max(lo_[d], o.lo_[d]))
            return false;
    return true;
}

HyperRect
HyperRect::boundingUnion(const HyperRect &o) const
{
    infs_assert(o.dims() == dims(), "rect rank mismatch");
    if (empty())
        return o;
    if (o.empty())
        return *this;
    HyperRect r;
    r.rank_ = rank_;
    for (unsigned d = 0; d < rank_; ++d) {
        r.lo_[d] = std::min(lo_[d], o.lo_[d]);
        r.hi_[d] = std::max(hi_[d], o.hi_[d]);
    }
    return r;
}

HyperRect
HyperRect::shifted(unsigned dim, Coord dist) const
{
    checkDim(dim);
    HyperRect r = *this;
    r.lo_[dim] += dist;
    r.hi_[dim] += dist;
    return r;
}

HyperRect
HyperRect::withDim(unsigned dim, Coord p, Coord q) const
{
    checkDim(dim);
    HyperRect r = *this;
    r.lo_[dim] = p;
    r.hi_[dim] = q;
    return r;
}

std::string
HyperRect::str() const
{
    std::ostringstream os;
    for (unsigned d = 0; d < dims(); ++d) {
        if (d)
            os << "x";
        os << "[" << lo_[d] << "," << hi_[d] << ")";
    }
    return os.str();
}

} // namespace infs
