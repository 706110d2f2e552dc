/**
 * @file
 * Diagnostic vocabulary of the static-analysis subsystem: one VerifyCode
 * per invariant the two verifiers (tDFG level, command level) check, plus
 * the VerifyReport the passes accumulate into. Reports convert into the
 * runtime's recoverable infs::Expected layer so a failed verification
 * degrades the region exactly like a failed lowering (DESIGN.md §9).
 */

#ifndef INFS_ANALYSIS_DIAG_HH
#define INFS_ANALYSIS_DIAG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/expected.hh"

namespace infs {

/** Machine-readable verifier diagnostic codes (catalog in DESIGN.md §9). */
enum class VerifyCode : std::uint8_t {
    // ---- tDFG verifier (VerifyLevel::Graphs and up). ----
    OperandOutOfRange,  ///< Operand id beyond the node table (dangling).
    OperandOrder,       ///< Operand not strictly earlier (cycle / non-SSA).
    OperandCount,       ///< Operand count illegal for the node kind.
    InfiniteMismatch,   ///< infiniteDomain flag disagrees with the kind.
    RankMismatch,       ///< Domain rank differs from the lattice rank.
    DimOutOfRank,       ///< dim parameter >= lattice rank.
    EmptyComputeDomain, ///< Compute input intersection is empty.
    DomainMismatch,     ///< Stored domain differs from the recomputed one.
    BadShrinkRange,     ///< Shrink range escapes the source domain.
    BadReduceOp,        ///< Reduce with a non-associative function.
    BadStreamPattern,   ///< Stream pattern invalid / role incoherent.
    BadOutput,          ///< Output references a missing/infinite node.

    // ---- Command hazard analyzer (VerifyLevel::Full). ----
    CmdRankMismatch,    ///< Command tensor rank differs from the layout.
    CmdDimOutOfRank,    ///< Command dim >= layout rank.
    CmdEmptyTensor,     ///< Tensor does not intersect the array bounds.
    CmdBadMask,         ///< Shift/compute mask outside [0, tileSize).
    CmdBadShiftDist,    ///< Shift distances inconsistent with the kind.
    CmdBadBroadcast,    ///< BroadcastBl with a non-positive count.
    CmdSlotOutOfRange,  ///< Wordline beyond the slot capacity.
    CmdSlotMisaligned,  ///< Wordline not a multiple of the element bits.
    CmdBankInvalid,     ///< Empty or out-of-range bank set.
    IntraGroupOverlap,  ///< Alg. 1 disjointness broken within a group.
    RawHazard,          ///< Read-after-write without an ordering edge.
    WawHazard,          ///< Write-after-write without an ordering edge.
    MissingSync,        ///< Inter-tile movement unsynchronized before use.
    LotInconsistent,    ///< Array/output slot table inconsistent (LOT).
};

/** Stable short name, e.g. "operand_out_of_range". */
const char *verifyCodeName(VerifyCode c);

/** One verifier finding: code, location, human-readable message. */
struct VerifyDiag {
    VerifyCode code;
    std::string where;   ///< "node 3 (mv3)" / "cmd 12 (inter_shift ...)".
    std::string message;

    /** "[code] where: message" rendering. */
    std::string str() const;
};

/** Accumulated findings of one verifier run over one subject. */
class VerifyReport
{
  public:
    explicit VerifyReport(std::string subject = "")
        : subject_(std::move(subject))
    {
    }

    const std::string &subject() const { return subject_; }
    const std::vector<VerifyDiag> &diags() const { return diags_; }

    bool clean() const { return diags_.empty(); }
    std::size_t size() const { return diags_.size(); }

    /** Whether any finding carries @p code. */
    bool has(VerifyCode code) const;
    /** Number of findings carrying @p code. */
    std::size_t count(VerifyCode code) const;

    void add(VerifyCode code, std::string where, std::string message);
    /** Append all findings of @p other (e.g. graph + command reports). */
    void merge(const VerifyReport &other);

    /** Multi-line report; "<subject>: clean" when no findings. */
    std::string str() const;

    /**
     * Collapse into one recoverable Error (first finding + total count)
     * for the degradation paths that consume infs::Expected.
     */
    Error toError() const;

  private:
    std::string subject_;
    std::vector<VerifyDiag> diags_;
};

} // namespace infs

#endif // INFS_ANALYSIS_DIAG_HH
