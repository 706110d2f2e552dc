/**
 * @file
 * The set of L3 banks one in-memory command touches (step 3 of §4.2), as
 * an inline bitmask. Every lowered command carries one, and the JIT, the
 * command optimizer, the hazard analyzer and the timing walk all read it,
 * so it is built, copied and intersected without touching the heap.
 */

#ifndef INFS_JIT_BANK_SET_HH
#define INFS_JIT_BANK_SET_HH

#include <array>
#include <bit>
#include <cstdint>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace infs {

class BankSet
{
  public:
    /** The most L3 banks a set holds (Table 2 has 64). */
    static constexpr unsigned kMaxBanks = 256;

    void
    insert(BankId b)
    {
        infs_assert(b < kMaxBanks, "bank %u beyond BankSet's %u", b,
                    kMaxBanks);
        std::uint64_t &w = words_[b / 64];
        const std::uint64_t bit = std::uint64_t(1) << (b % 64);
        if (!(w & bit)) {
            w |= bit;
            ++count_;
        }
    }

    bool
    contains(BankId b) const
    {
        return b < kMaxBanks && ((words_[b / 64] >> (b % 64)) & 1);
    }

    /** Number of banks in the set. Kept as a count rather than
     * recomputed: without a hardware popcount instruction enabled,
     * std::popcount is a library call, and the timing walk asks for the
     * size of every command. */
    unsigned size() const { return count_; }
    bool empty() const { return count_ == 0; }

    bool
    intersects(const BankSet &o) const
    {
        for (unsigned w = 0; w < kWords; ++w) {
            if (words_[w] & o.words_[w])
                return true;
        }
        return false;
    }

    BankSet &
    operator|=(const BankSet &o)
    {
        count_ = 0;
        for (unsigned w = 0; w < kWords; ++w) {
            words_[w] |= o.words_[w];
            count_ += static_cast<unsigned>(std::popcount(words_[w]));
        }
        return *this;
    }

    /** Call @p fn with every bank, ascending. */
    template <class Fn>
    void
    forEach(Fn &&fn) const
    {
        for (unsigned w = 0; w < kWords; ++w) {
            for (std::uint64_t bits = words_[w]; bits; bits &= bits - 1)
                fn(static_cast<BankId>(
                    w * 64 + static_cast<unsigned>(std::countr_zero(bits))));
        }
    }

    bool operator==(const BankSet &) const = default;

  private:
    static constexpr unsigned kWords = kMaxBanks / 64;

    std::array<std::uint64_t, kWords> words_{};
    unsigned count_ = 0;
};

} // namespace infs

#endif // INFS_JIT_BANK_SET_HH
