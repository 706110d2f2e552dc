/**
 * @file
 * Deterministic, seed-driven fault injection (the robustness counterpart
 * of the paper's silent in-/near-memory fallback, §4.3). One injector per
 * simulated system samples transient hardware faults — bit flips in the
 * bit-serial SRAM wordlines, dropped/corrupted NoC packets, and failing
 * in-memory commands — from independent per-domain xoshiro streams, so
 * the fault schedule of one domain never depends on how often another
 * domain is consulted. The same SystemConfig seed always reproduces the
 * same schedule.
 */

#ifndef INFS_SIM_FAULT_HH
#define INFS_SIM_FAULT_HH

#include <cstdint>

#include "sim/config.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace infs {

/** Fault domains, each with an independent deterministic draw stream. */
enum class FaultDomain : std::uint8_t {
    Sram,     ///< Bit flips in compute-SRAM wordlines.
    Noc,      ///< Dropped or corrupted mesh packets.
    Command,  ///< Transiently failing in-memory commands.
};

/** Outcome of sampling a command-level fault. */
struct CmdFault {
    bool faulted = false;     ///< The command failed this issue.
    bool persistent = false;  ///< Retries will not clear it (hard fault).
};

/** The injector's counters. */
struct FaultStats {
    std::uint64_t sramBitFlips = 0;
    std::uint64_t nocPacketFaults = 0;
    std::uint64_t cmdFaults = 0;
    std::uint64_t detected = 0;
    std::uint64_t retries = 0;
    std::uint64_t exhausted = 0;   ///< Faults persisting past the budget.
    std::uint64_t retryCycles = 0; ///< Modeled detect + re-issue time.

    std::uint64_t
    totalInjected() const
    {
        return sramBitFlips + nocPacketFaults + cmdFaults;
    }
};

/**
 * The fault injector. Components hold a pointer (null or disabled means
 * zero overhead and bit-identical behavior to a fault-free build) and ask
 * it whether the event they are about to model faults. Detection and
 * recovery accounting (parity/ECC checks, bounded retries) also flow
 * through here so every counter ends up in one place.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(const FaultConfig &cfg);

    const FaultConfig &config() const { return cfg_; }
    bool enabled() const { return cfg_.enabled; }

    // ------------------------------------------------------------------
    // Sampling (each advances only its own domain's stream).
    // ------------------------------------------------------------------

    /** Does the SRAM compute about to issue suffer a wordline bit flip? */
    bool sampleSramFlip();

    /** Does this NoC packet get dropped or corrupted in flight? */
    bool sampleNocPacketFault();

    /**
     * Faulted packet count for a bulk flow of @p packets (expected value
     * packets x rate, deterministically rounded via the NoC stream).
     */
    std::uint64_t sampleNocBulkFaults(std::uint64_t packets);

    /** Does the in-memory command about to issue fail, and persistently? */
    CmdFault sampleCmdFault();

    /** Uniform draw in [0, bound) from @p domain's stream (site picking). */
    std::uint64_t draw(FaultDomain domain, std::uint64_t bound);

    // ------------------------------------------------------------------
    // Recovery accounting.
    // ------------------------------------------------------------------

    /** A parity/ECC/CRC check caught a fault. @return detection cycles. */
    Tick recordDetection();

    /** One bounded retry (re-execute / retransmit). @return its penalty. */
    Tick recordRetry(Tick reissue_cycles = 0);

    /** A fault persisted past the retry budget (region will degrade). */
    void recordExhausted();

    // ------------------------------------------------------------------
    // Stats.
    // ------------------------------------------------------------------

    FaultStats snapshot() const { return stats_; }

    /** Zero all counters and restart the schedule from the config seed. */
    void reset();

  private:
    Rng &rng(FaultDomain d);

    FaultConfig cfg_;
    Rng rngs_[3];
    FaultStats stats_;
};

} // namespace infs

#endif // INFS_SIM_FAULT_HH
