#include "sim/stats.hh"

namespace infs {

void
StatRegistry::add(Counter &c)
{
    infs_assert(!c.name().empty(), "counter must be named");
    counters_[c.name()] = &c;
}

double
StatRegistry::sumByPrefix(const std::string &prefix) const
{
    double total = 0.0;
    for (auto it = counters_.lower_bound(prefix); it != counters_.end();
         ++it) {
        if (it->first.compare(0, prefix.size(), prefix) != 0)
            break;
        total += it->second->value();
    }
    return total;
}

const Counter &
StatRegistry::counter(const std::string &name) const
{
    auto it = counters_.find(name);
    infs_assert(it != counters_.end(), "unknown counter '%s'", name.c_str());
    return *it->second;
}

bool
StatRegistry::hasCounter(const std::string &name) const
{
    return counters_.count(name) > 0;
}

} // namespace infs
