/**
 * @file
 * FaultInjector implementation. Every domain draws from its own xoshiro
 * stream, salted from the one config seed, so the schedule in one domain
 * is independent of how often the others sample — a run that consults
 * the NoC more (e.g. a different tile choice) still sees the same SRAM
 * flip schedule for the same seed.
 */

#include "sim/fault.hh"

#include <cmath>

#include "sim/expected.hh"
#include "sim/logging.hh"

namespace infs {

const char *
errCodeName(ErrCode c)
{
    switch (c) {
      case ErrCode::Ok: return "ok";
      case ErrCode::OutOfSlots: return "out_of_slots";
      case ErrCode::UnsupportedMove: return "unsupported_move";
      case ErrCode::LayoutConstraint: return "layout_constraint";
      case ErrCode::CommandFailed: return "command_failed";
      case ErrCode::InvalidArgument: return "invalid_argument";
      case ErrCode::VerifyFailed: return "verify_failed";
    }
    return "unknown";
}

FaultInjector::FaultInjector(const FaultConfig &cfg) : cfg_(cfg)
{
    reset();
}

Rng &
FaultInjector::rng(FaultDomain d)
{
    return rngs_[static_cast<unsigned>(d)];
}

bool
FaultInjector::sampleSramFlip()
{
    if (!cfg_.enabled || cfg_.sramBitFlipRate <= 0.0)
        return false;
    if (rng(FaultDomain::Sram).nextDouble() >= cfg_.sramBitFlipRate)
        return false;
    ++stats_.sramBitFlips;
    return true;
}

bool
FaultInjector::sampleNocPacketFault()
{
    if (!cfg_.enabled || cfg_.nocFaultRate <= 0.0)
        return false;
    if (rng(FaultDomain::Noc).nextDouble() >= cfg_.nocFaultRate)
        return false;
    ++stats_.nocPacketFaults;
    return true;
}

std::uint64_t
FaultInjector::sampleNocBulkFaults(std::uint64_t packets)
{
    if (!cfg_.enabled || cfg_.nocFaultRate <= 0.0 || packets == 0)
        return 0;
    // Expected value with deterministic stochastic rounding: a bulk flow
    // of N packets sees floor(N*rate) faults plus one more with
    // probability frac(N*rate), drawn from the NoC stream.
    const double expect = double(packets) * cfg_.nocFaultRate;
    std::uint64_t faults = static_cast<std::uint64_t>(expect);
    const double frac = expect - std::floor(expect);
    if (frac > 0.0 && rng(FaultDomain::Noc).nextDouble() < frac)
        ++faults;
    if (faults > packets)
        faults = packets;
    stats_.nocPacketFaults += faults;
    return faults;
}

CmdFault
FaultInjector::sampleCmdFault()
{
    CmdFault f;
    if (!cfg_.enabled || cfg_.cmdTransientRate <= 0.0)
        return f;
    auto &r = rng(FaultDomain::Command);
    if (r.nextDouble() >= cfg_.cmdTransientRate)
        return f;
    f.faulted = true;
    f.persistent = r.nextDouble() < cfg_.persistentFraction;
    ++stats_.cmdFaults;
    return f;
}

std::uint64_t
FaultInjector::draw(FaultDomain domain, std::uint64_t bound)
{
    infs_assert(bound > 0, "FaultInjector::draw with zero bound");
    return rng(domain).nextBounded(bound);
}

Tick
FaultInjector::recordDetection()
{
    ++stats_.detected;
    stats_.retryCycles += cfg_.detectCycles;
    return cfg_.detectCycles;
}

Tick
FaultInjector::recordRetry(Tick reissue_cycles)
{
    ++stats_.retries;
    const Tick penalty = cfg_.retryPenaltyCycles + reissue_cycles;
    stats_.retryCycles += penalty;
    return penalty;
}

void
FaultInjector::recordExhausted()
{
    ++stats_.exhausted;
}

void
FaultInjector::reset()
{
    stats_ = FaultStats{};
    // Distinct odd salts keep the three schedules decorrelated while
    // remaining a pure function of the one config seed.
    rngs_[0].reseed(cfg_.seed ^ 0x53a5a17b17f1195ULL);
    rngs_[1].reseed(cfg_.seed ^ 0x0c0ffee1badd00d5ULL);
    rngs_[2].reseed(cfg_.seed ^ 0x7ac71ca1c0deba5eULL);
}

} // namespace infs
