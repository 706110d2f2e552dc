/**
 * @file
 * Fundamental simulation types shared by every subsystem.
 */

#ifndef INFS_SIM_TYPES_HH
#define INFS_SIM_TYPES_HH

#include <cstdint>
#include <limits>

namespace infs {

/** Simulated time in core clock cycles (2 GHz per Table 2). */
using Tick = std::uint64_t;

/** Sentinel for "never" / unscheduled. */
inline constexpr Tick maxTick = std::numeric_limits<Tick>::max();

/** Physical byte address within the simulated machine. */
using Addr = std::uint64_t;

/** Number of bytes. */
using Bytes = std::uint64_t;

/** Identifier of a tile / L3 bank / core on the mesh (0..63). */
using BankId = std::uint32_t;

/** Identifier of an SRAM array within a bank's compute ways. */
using SramArrayId = std::uint32_t;

/** Cache-line size used throughout the model. */
inline constexpr Bytes lineBytes = 64;

/** Element data types supported by the in-memory engine. */
enum class DType : std::uint8_t {
    Int8,
    Int16,
    Int32,
    Int64,
    Fp32,
};

/** Bit width of a data type. */
constexpr unsigned
dtypeBits(DType t)
{
    switch (t) {
      case DType::Int8: return 8;
      case DType::Int16: return 16;
      case DType::Int32: return 32;
      case DType::Int64: return 64;
      case DType::Fp32: return 32;
    }
    return 0;
}

/** Byte width of a data type. */
constexpr unsigned
dtypeBytes(DType t)
{
    return dtypeBits(t) / 8;
}

/** Convert a nanosecond quantity to ticks at the given core frequency. */
constexpr Tick
nsToTicks(double ns, double ghz = 2.0)
{
    return static_cast<Tick>(ns * ghz);
}

} // namespace infs

#endif // INFS_SIM_TYPES_HH
