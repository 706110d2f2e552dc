/**
 * @file
 * Top-level system assembly (Table 2): one object owning the NoC, L3,
 * DRAM, address map, energy account, stream engine, tensor
 * controller, and JIT compiler. Executors (src/core) drive it.
 */

#ifndef INFS_UARCH_SYSTEM_HH
#define INFS_UARCH_SYSTEM_HH

#include <memory>

#include "bitserial/transpose.hh"
#include "energy/energy.hh"
#include "jit/jit.hh"
#include "mem/address_map.hh"
#include "mem/dram.hh"
#include "mem/l3_model.hh"
#include "noc/mesh.hh"
#include "sim/config.hh"
#include "sim/fault.hh"
#include "sim/thread_pool.hh"
#include "stream/near_engine.hh"
#include "uarch/tensor_controller.hh"

namespace infs {

/** Result of preparing arrays in the transposed layout (§5.2). */
struct PrepareResult {
    Tick cycles = 0;
    Bytes movedBytes = 0;
    Bytes dramBytes = 0;
};

/** The simulated machine. */
class InfinitySystem
{
  public:
    explicit InfinitySystem(SystemConfig cfg = defaultSystemConfig());

    const SystemConfig &config() const { return cfg_; }
    MeshNoc &noc() { return noc_; }
    L3Model &l3() { return l3_; }
    DramModel &dram() { return dram_; }
    const AddressMap &map() const { return map_; }
    EnergyAccount &energy() { return energy_; }
    JitCompiler &jit() { return jit_; }
    NearStreamEngine &nearEngine() { return near_; }
    TensorController &tensorController() { return tc_; }
    FaultInjector &faultInjector() { return fault_; }
    const FaultInjector &faultInjector() const { return fault_; }
    /** Host thread pool (SystemConfig::hostThreads, DESIGN.md §10). */
    ThreadPool &pool() { return pool_; }

    /**
     * Prepare @p bytes of array data in the transposed layout: reserve
     * the compute ways, flush dirty private copies, fetch (from DRAM when
     * not resident) and run the TTU (§5.2 "Prepare Transposed Data").
     * Layout conversion moves data from NUCA home banks to tile banks.
     * @param l3_residency Fraction already resident in L3.
     */
    PrepareResult prepareTransposed(Bytes bytes, double l3_residency);

    /**
     * Release transposed data: evict dirty bytes toward memory and free
     * the reserved ways (§5.2 "Delayed Release").
     */
    Tick releaseTransposed(Bytes dirty_bytes);

    /** Zero all statistics (traffic, energy, JIT, DRAM, L3). */
    void resetStats();

  private:
    SystemConfig cfg_;
    // The pool precedes every component that holds a pointer to it (and
    // outlives their teardown, being destroyed last).
    ThreadPool pool_;
    // The injector precedes every component that holds a pointer to it.
    FaultInjector fault_;
    MeshNoc noc_;
    L3Model l3_;
    DramModel dram_;
    AddressMap map_;
    EnergyAccount energy_;
    JitCompiler jit_;
    NearStreamEngine near_;
    TensorController tc_;
    TensorTransposeUnit ttu_;
};

} // namespace infs

#endif // INFS_UARCH_SYSTEM_HH
