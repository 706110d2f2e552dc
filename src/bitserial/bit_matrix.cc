#include "bitserial/bit_matrix.hh"

#include <algorithm>
#include <bit>

#include "bitserial/simd.hh"

namespace infs {

void
BitRow::setRange(unsigned lo, unsigned hi)
{
    infs_assert(lo <= hi && hi <= bits_, "range [%u,%u) out of %u", lo, hi,
                bits_);
    if (lo >= hi)
        return;
    // Word-level fill: partial head word, full middle words, partial tail.
    const unsigned w_lo = lo / 64, w_hi = (hi - 1) / 64;
    const std::uint64_t head = ~0ULL << (lo % 64);
    const std::uint64_t tail = ~0ULL >> (63 - (hi - 1) % 64);
    if (w_lo == w_hi) {
        words_[w_lo] |= head & tail;
        return;
    }
    words_[w_lo] |= head;
    for (unsigned w = w_lo + 1; w < w_hi; ++w)
        words_[w] = ~0ULL;
    words_[w_hi] |= tail;
}

void
BitRow::fillRange(unsigned lo, unsigned hi, bool v)
{
    infs_assert(lo <= hi && hi <= bits_, "range [%u,%u) out of %u", lo, hi,
                bits_);
    if (v) {
        setRange(lo, hi);
        return;
    }
    if (lo >= hi)
        return;
    const unsigned w_lo = lo / 64, w_hi = (hi - 1) / 64;
    const std::uint64_t head = ~0ULL << (lo % 64);
    const std::uint64_t tail = ~0ULL >> (63 - (hi - 1) % 64);
    if (w_lo == w_hi) {
        words_[w_lo] &= ~(head & tail);
        return;
    }
    words_[w_lo] &= ~head;
    for (unsigned w = w_lo + 1; w < w_hi; ++w)
        words_[w] = 0;
    words_[w_hi] &= ~tail;
}

unsigned
BitRow::popcount() const
{
    unsigned n = 0;
    for (auto w : words_)
        n += static_cast<unsigned>(std::popcount(w));
    return n;
}

bool
BitRow::any() const
{
    for (auto w : words_)
        if (w != 0)
            return true;
    return false;
}

void
BitRow::andInto(const BitRow &o)
{
    infs_assert(bits_ == o.bits_, "row width mismatch %u vs %u", bits_,
                o.bits_);
    simd::active().rowAnd(words_.data(), o.words_.data(), words_.size());
}

void
BitRow::xorInto(const BitRow &o)
{
    infs_assert(bits_ == o.bits_, "row width mismatch %u vs %u", bits_,
                o.bits_);
    simd::active().rowXor(words_.data(), o.words_.data(), words_.size());
}

void
BitRow::orInto(const BitRow &o)
{
    infs_assert(bits_ == o.bits_, "row width mismatch %u vs %u", bits_,
                o.bits_);
    simd::active().rowOr(words_.data(), o.words_.data(), words_.size());
}

void
BitRow::notAndInto(const BitRow &a, const BitRow &m)
{
    infs_assert(bits_ == a.bits_ && bits_ == m.bits_,
                "row width mismatch %u vs %u/%u", bits_, a.bits_, m.bits_);
    simd::active().rowNotAnd(words_.data(), a.words_.data(),
                             m.words_.data(), words_.size());
    maskTail();
}

void
BitRow::assignAnd(const BitRow &a, const BitRow &b)
{
    infs_assert(bits_ == a.bits_ && bits_ == b.bits_,
                "row width mismatch %u vs %u/%u", bits_, a.bits_, b.bits_);
    simd::active().rowAssignAnd(words_.data(), a.words_.data(),
                                b.words_.data(), words_.size());
}

void
BitRow::fullAdderInto(const BitRow &addend, BitRow &carry)
{
    infs_assert(bits_ == addend.bits_ && bits_ == carry.bits_,
                "row width mismatch %u vs %u/%u", bits_, addend.bits_,
                carry.bits_);
    simd::active().rowFullAdder(words_.data(), addend.words_.data(),
                                carry.words_.data(), words_.size());
}

void
BitRow::assignSelect(const BitRow &a, const BitRow &b, const BitRow &pred)
{
    infs_assert(bits_ == a.bits_ && bits_ == b.bits_ &&
                    bits_ == pred.bits_,
                "row width mismatch in select (%u bits)", bits_);
    simd::active().rowSelect(words_.data(), a.words_.data(),
                             b.words_.data(), pred.words_.data(),
                             words_.size());
    maskTail();
}

void
BitRow::copyFrom(const BitRow &src)
{
    infs_assert(bits_ == src.bits_, "row width mismatch %u vs %u", bits_,
                src.bits_);
    for (std::size_t i = 0; i < words_.size(); ++i)
        words_[i] = src.words_[i];
}

void
BitRow::assignShifted(const BitRow &src, int dist)
{
    infs_assert(bits_ == src.bits_, "row width mismatch %u vs %u", bits_,
                src.bits_);
    infs_assert(&src != this, "assignShifted cannot alias");
    const unsigned n =
        static_cast<unsigned>(dist < 0 ? -dist : dist);
    if (n >= bits_) {
        clear();
        return;
    }
    const unsigned word_shift = n / 64;
    const unsigned bit_shift = n % 64;
    if (dist >= 0) {
        for (std::size_t i = words_.size(); i-- > 0;) {
            std::uint64_t v = 0;
            if (i >= word_shift) {
                v = src.words_[i - word_shift] << bit_shift;
                if (bit_shift != 0 && i > word_shift)
                    v |= src.words_[i - word_shift - 1] >> (64 - bit_shift);
            }
            words_[i] = v;
        }
        maskTail();
    } else {
        for (std::size_t i = 0; i < words_.size(); ++i) {
            std::uint64_t v = 0;
            if (i + word_shift < words_.size()) {
                v = src.words_[i + word_shift] >> bit_shift;
                if (bit_shift != 0 && i + word_shift + 1 < words_.size())
                    v |= src.words_[i + word_shift + 1] << (64 - bit_shift);
            }
            words_[i] = v;
        }
    }
}

void
BitRow::extractTo(std::uint64_t *out, unsigned lo, unsigned len) const
{
    infs_assert(lo + len <= bits_, "span [%u,%u) out of %u", lo, lo + len,
                bits_);
    const unsigned out_words = (len + 63) / 64;
    const unsigned w0 = lo / 64;
    const unsigned sh = lo % 64;
    for (unsigned i = 0; i < out_words; ++i) {
        std::uint64_t v = words_[w0 + i] >> sh;
        if (sh != 0 && w0 + i + 1 < words_.size())
            v |= words_[w0 + i + 1] << (64 - sh);
        out[i] = v;
    }
    // Mask the tail of the last word so staged values compare cleanly.
    const unsigned rem = len % 64;
    if (rem != 0)
        out[out_words - 1] &= (1ULL << rem) - 1;
}

void
BitRow::depositFrom(const std::uint64_t *in, unsigned lo, unsigned len)
{
    infs_assert(lo + len <= bits_, "span [%u,%u) out of %u", lo, lo + len,
                bits_);
    // Deposit word-by-word of the input: each input word lands in at most
    // two destination words.
    unsigned done = 0;
    while (done < len) {
        const unsigned chunk = std::min(64u, len - done);
        const std::uint64_t m =
            chunk == 64 ? ~0ULL : ((1ULL << chunk) - 1);
        const std::uint64_t v = in[done / 64] & m;
        const unsigned pos = lo + done;
        const unsigned w = pos / 64;
        const unsigned sh = pos % 64;
        words_[w] = (words_[w] & ~(m << sh)) | (v << sh);
        if (sh != 0 && sh + chunk > 64) {
            const unsigned spill = sh + chunk - 64;
            const std::uint64_t sm = (1ULL << spill) - 1;
            words_[w + 1] =
                (words_[w + 1] & ~sm) | ((v >> (64 - sh)) & sm);
        }
        done += chunk;
    }
}

void
BitRow::mergeMasked(const BitRow &value, const BitRow &mask)
{
    infs_assert(bits_ == value.bits_ && bits_ == mask.bits_,
                "row width mismatch %u vs %u/%u", bits_, value.bits_,
                mask.bits_);
    simd::active().rowMergeMasked(words_.data(), value.words_.data(),
                                  mask.words_.data(), words_.size());
}

void
BitRow::maskTail()
{
    unsigned rem = bits_ % 64;
    if (rem != 0 && !words_.empty())
        words_.back() &= (1ULL << rem) - 1;
}

std::uint64_t
BitMatrix::readElement(unsigned bitline, unsigned wl, unsigned bits) const
{
    infs_assert(bits <= 64, "element too wide: %u", bits);
    infs_assert(wl + bits <= wordlines_, "element [%u,%u) beyond wordlines",
                wl, wl + bits);
    infs_assert(bitline < bitlines_, "bitline %u out of %u", bitline,
                bitlines_);
    // Word index and shift computed once; one masked word read per bit
    // row (the per-bit get() with its bounds checks is the hot path).
    const unsigned wi = bitline / 64;
    const unsigned sh = bitline % 64;
    std::uint64_t v = 0;
    for (unsigned i = 0; i < bits; ++i)
        v |= ((rows_[wl + i].words()[wi] >> sh) & 1ULL) << i;
    return v;
}

void
BitMatrix::writeElement(unsigned bitline, unsigned wl, unsigned bits,
                        std::uint64_t value)
{
    infs_assert(bits <= 64, "element too wide: %u", bits);
    infs_assert(wl + bits <= wordlines_, "element [%u,%u) beyond wordlines",
                wl, wl + bits);
    infs_assert(bitline < bitlines_, "bitline %u out of %u", bitline,
                bitlines_);
    // Word index and shift computed once; one masked word update per bit
    // row (the readElement fast path, inverted).
    const unsigned wi = bitline / 64;
    const unsigned sh = bitline % 64;
    const std::uint64_t m = 1ULL << sh;
    for (unsigned i = 0; i < bits; ++i) {
        std::uint64_t &w = rows_[wl + i].words_[wi];
        w = (w & ~m) | (((value >> i) & 1ULL) << sh);
    }
}

} // namespace infs
