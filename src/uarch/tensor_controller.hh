/**
 * @file
 * Tensor controller model (TCcore + TCL3, §5.2): executes a lowered
 * in-memory program, charging per-bank occupancy, H-tree and NoC traffic
 * for inter-tile shifts, synchronization barriers, and energy.
 */

#ifndef INFS_UARCH_TENSOR_CONTROLLER_HH
#define INFS_UARCH_TENSOR_CONTROLLER_HH

#include <vector>

#include "energy/energy.hh"
#include "jit/commands.hh"
#include "jit/tiling.hh"
#include "mem/address_map.hh"
#include "noc/mesh.hh"
#include "sim/config.hh"

namespace infs {

class FaultInjector;

/** Aggregate result of executing one in-memory program. */
struct InMemExecResult {
    Tick cycles = 0;           ///< Region makespan.
    Tick computeCycles = 0;    ///< Bit-serial compute occupancy (max bank).
    Tick moveCycles = 0;       ///< Shift/broadcast occupancy (max bank).
    Tick syncCycles = 0;       ///< Barrier waiting.
    std::uint64_t inMemOps = 0;        ///< Element ops done in bitlines.
    double intraTileBytes = 0.0;       ///< Moved within SRAM arrays.
    double interTileBytes = 0.0;       ///< Moved across tiles (H tree).
    double interTileNocBytes = 0.0;    ///< Of which crossed the NoC.
    std::uint64_t faultsInjected = 0;  ///< Faults hit during this region.
    std::uint64_t faultsDetected = 0;  ///< Caught by parity/ECC.
    std::uint64_t faultRetries = 0;    ///< Bounded re-issues performed.
    Tick retryCycles = 0;              ///< Detect + re-issue time added.
    /** A fault persisted past the retry budget: the region's in-memory
     * attempt was abandoned and the caller must degrade it. */
    bool failed = false;
    /** Per-bank busy ticks at region end (repeat-scaled). Deterministic —
     * the fat-binary dispatcher folds these into its observed occupancy
     * (DESIGN.md §14). */
    std::vector<Tick> bankBusy;
};

/** Executes in-memory command programs against the system model. */
class TensorController
{
  public:
    TensorController(const SystemConfig &cfg, MeshNoc &noc,
                     const AddressMap &map, EnergyAccount &energy,
                     FaultInjector *fault = nullptr)
        : cfg_(cfg), noc_(noc), map_(map), energy_(energy), fault_(fault)
    {
    }

    /**
     * Execute @p prog over @p layout. Commands are synchronous per bank;
     * sync commands are global barriers (§4.2).
     * @param core The configuring core tile (barrier coordination).
     * @param repeat Execute the program this many times back to back
     * (iterative regions reusing memoized commands); cycles, traffic, and
     * energy all scale.
     */
    InMemExecResult execute(const InMemProgram &prog,
                            const TiledLayout &layout, BankId core,
                            std::uint64_t repeat = 1);

  private:
    /** Mean NoC hop count from every bank b to bank (b + @p bank_delta)
     * mod banks: an InterShift's per-bank destination pattern. Computed
     * once per delta; the mesh and the bank count never change. */
    double meanHops(unsigned bank_delta);

    SystemConfig cfg_;
    MeshNoc &noc_;
    const AddressMap &map_;
    EnergyAccount &energy_;
    FaultInjector *fault_ = nullptr;
    LatencyTable lat_;
    /** meanHops by bank delta; negative until computed. */
    std::vector<double> hopMeans_;
};

} // namespace infs

#endif // INFS_UARCH_TENSOR_CONTROLLER_HH
