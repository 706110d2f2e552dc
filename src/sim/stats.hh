/**
 * @file
 * Lightweight statistics package: named scalar counters and a registry
 * for looking them up. Modeled loosely on gem5's Stats but minimal.
 */

#ifndef INFS_SIM_STATS_HH
#define INFS_SIM_STATS_HH

#include <map>
#include <string>

#include "sim/logging.hh"

namespace infs {

/** A named monotonically accumulating scalar statistic. */
class Counter
{
  public:
    Counter() = default;
    explicit Counter(std::string name) : name_(std::move(name)) {}

    const std::string &name() const { return name_; }
    double value() const { return value_; }

    Counter &operator+=(double v) { value_ += v; return *this; }
    Counter &operator++() { value_ += 1.0; return *this; }
    void reset() { value_ = 0.0; }

  private:
    std::string name_;
    double value_ = 0.0;
};

/**
 * A flat registry of counters keyed by dotted path
 * (e.g. "fault.injected.sram_bit_flip"). Owners register references; the
 * registry does not own the counters.
 */
class StatRegistry
{
  public:
    void add(Counter &c);

    /** Sum of all counters whose name starts with @p prefix. */
    double sumByPrefix(const std::string &prefix) const;

    /** Look up a counter by exact name; panics when missing. */
    const Counter &counter(const std::string &name) const;

    /** True when a counter with this exact name is registered. */
    bool hasCounter(const std::string &name) const;

  private:
    std::map<std::string, Counter *> counters_;
};

} // namespace infs

#endif // INFS_SIM_STATS_HH
