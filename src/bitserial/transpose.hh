/**
 * @file
 * Tensor transpose unit (TTU) timing model: the per-line cost of
 * converting elements between the normal horizontal layout and the
 * vertical bit-serial layout (§5.2). The conversion itself is
 * BitAccurateFabric::loadArray/storeArray.
 */

#ifndef INFS_BITSERIAL_TRANSPOSE_HH
#define INFS_BITSERIAL_TRANSPOSE_HH

#include <cstdint>

#include "sim/types.hh"

namespace infs {

/**
 * Timing model of the TTU. One TTU sits at each L3 bank and converts one
 * cache line between layouts every `cyclesPerLine` cycles.
 */
class TensorTransposeUnit
{
  public:
    explicit TensorTransposeUnit(Tick cycles_per_line = 4)
        : cyclesPerLine_(cycles_per_line)
    {
    }

    /** Cycles to convert @p n elements of type @p t. */
    Tick
    conversionCycles(std::uint64_t n, DType t) const
    {
        std::uint64_t bytes = n * dtypeBytes(t);
        std::uint64_t lines = (bytes + lineBytes - 1) / lineBytes;
        return lines * cyclesPerLine_;
    }

  private:
    Tick cyclesPerLine_;
};

} // namespace infs

#endif // INFS_BITSERIAL_TRANSPOSE_HH
