/**
 * @file
 * Static-NUCA address mapping: physical addresses interleave across L3
 * banks at a 1 kB granule (Table 2). Also provides the tiled-layout remap
 * used for transposed arrays: tiles map contiguously to SRAM arrays, SRAM
 * arrays to compute ways of banks in order.
 */

#ifndef INFS_MEM_ADDRESS_MAP_HH
#define INFS_MEM_ADDRESS_MAP_HH

#include <cstdint>

#include "sim/config.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace infs {

/** Location of one SRAM array within the L3. */
struct ArrayLocation {
    BankId bank = 0;
    unsigned way = 0;
    unsigned arrayInWay = 0;
    bool operator==(const ArrayLocation &o) const = default;
};

/** Static NUCA mapping plus the tile -> SRAM-array mapping. */
class AddressMap
{
  public:
    /** The memory-controller count (NocConfig::memCtrls) does not enter
     * the bank or array mapping. */
    explicit AddressMap(const L3Config &l3, unsigned /*mem_ctrls*/ = 16)
        : l3_(l3)
    {
    }

    /** Home L3 bank of a physical address (1 kB interleave). */
    BankId
    homeBank(Addr addr) const
    {
        return static_cast<BankId>((addr / l3_.interleave) % l3_.numBanks);
    }

    /** Number of compute SRAM arrays per bank. */
    unsigned
    arraysPerBank() const
    {
        return l3_.computeWays * l3_.arraysPerWay;
    }

    /** Total compute SRAM arrays in the system. */
    std::uint64_t
    totalArrays() const
    {
        return std::uint64_t(l3_.numBanks) * arraysPerBank();
    }

    /**
     * Map global tile index -> SRAM array location. Tiles map
     * contiguously to SRAM arrays (§5.2: "tiles are mapped contiguously
     * to SRAM arrays, it is straightforward to locate the actual
     * bitline"), filling one bank's compute arrays before the next.
     */
    ArrayLocation
    tileToArray(std::uint64_t tile) const
    {
        // Layouts larger than the array pool execute in waves; tiles wrap
        // onto the physical arrays.
        tile %= totalArrays();
        ArrayLocation loc;
        loc.bank = static_cast<BankId>(tile / arraysPerBank());
        std::uint64_t idx = tile % arraysPerBank();
        loc.way = static_cast<unsigned>(idx / l3_.arraysPerWay);
        loc.arrayInWay = static_cast<unsigned>(idx % l3_.arraysPerWay);
        return loc;
    }

    /** Inverse of tileToArray. */
    std::uint64_t
    arrayToTile(const ArrayLocation &loc) const
    {
        std::uint64_t idx =
            std::uint64_t(loc.way) * l3_.arraysPerWay + loc.arrayInWay;
        return std::uint64_t(loc.bank) * arraysPerBank() + idx;
    }

    const L3Config &l3() const { return l3_; }

  private:
    L3Config l3_;
};

} // namespace infs

#endif // INFS_MEM_ADDRESS_MAP_HH
