/**
 * @file
 * The functional backend: executes a lowered in-memory program at word
 * level — one float per lattice cell per wordline slot — instead of
 * simulating bit-serial wordline arithmetic. Every command mirrors the
 * bit fabric's cell-level semantics exactly (masks, positional windows,
 * boundary clipping, scratch immediates), and fp32 arithmetic uses the
 * same native float expressions ComputeSram::fpBinary uses per bitline,
 * so results are byte-identical to the fabric — including the junk in
 * boundary and intermediate cells that full-lattice checksums hash.
 *
 * Constructs outside the value model (1-bit CmpLt rows, non-fp32 dtypes,
 * unaligned wordlines) fall back to the bit fabric for the whole job, so
 * the backend never silently diverges; BackendResult::fallback names why.
 */

#include "core/backend.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"
#include "tdfg/hyperrect.hh"

namespace infs {

namespace {

/** Word-level replay fabric: per-slot dense float lattices. */
class WordFabric
{
  public:
    WordFabric(const TiledLayout &layout, unsigned wordlines,
               unsigned bitlines)
        : layout_(layout), wordlines_(wordlines), bitlines_(bitlines),
          arrayRect_(HyperRect::array(layout.shape()))
    {
        volume_ = 1;
        for (Coord s : layout_.shape()) {
            denseStride_.push_back(volume_);
            volume_ *= s;
        }
        slots_.assign(wordlines_ / 32,
                      std::vector<float>(
                          static_cast<std::size_t>(volume_), 0.0f));
    }

    void
    loadArray(std::span<const float> data, unsigned wl)
    {
        // The dense array order is the lattice row-major order (dim 0
        // innermost) — the bit fabric's loadArray/storeArray transpose is
        // an identity at word level.
        auto &s = slot(wl);
        infs_assert(data.size() == s.size(), "array size mismatch");
        std::copy(data.begin(), data.end(), s.begin());
    }

    void
    storeArray(std::span<float> out, unsigned wl) const
    {
        const auto &s = slots_[slotIndex(wl)];
        infs_assert(out.size() == s.size(), "array size mismatch");
        std::copy(s.begin(), s.end(), out.begin());
    }

    /** Replay @p prog; nullopt on success, an Error when a command falls
     * outside the value model (caller falls back to the bit fabric). */
    std::optional<Error>
    execute(const InMemProgram &prog)
    {
        if (wordlines_ % 32 != 0)
            return Error{ErrCode::InvalidArgument,
                         "functional backend needs 32-bit-aligned "
                         "wordlines"};
        for (const InMemCommand &cmd : prog.commands) {
            std::optional<Error> err;
            switch (cmd.kind) {
              case CmdKind::Compute:
                err = execCompute(cmd);
                break;
              case CmdKind::IntraShift:
                err = execIntraShift(cmd);
                break;
              case CmdKind::InterShift:
                err = execInterShift(cmd);
                break;
              case CmdKind::BroadcastBl:
                execBroadcastBl(cmd);
                break;
              case CmdKind::BroadcastVal:
                err = execBroadcastVal(cmd);
                break;
              case CmdKind::Sync:
                break; // Ordering only.
            }
            if (err)
                return err;
        }
        return std::nullopt;
    }

  private:
    std::size_t
    slotIndex(unsigned wl) const
    {
        infs_assert(wl % 32 == 0 && wl / 32 < slots_.size(),
                    "wordline %u is not a valid fp32 slot", wl);
        return wl / 32;
    }
    std::vector<float> &slot(unsigned wl) { return slots_[slotIndex(wl)]; }

    bool
    fp32Slots(const InMemCommand &cmd) const
    {
        if (cmd.dtype != DType::Fp32)
            return false;
        if (cmd.wlA % 32 != 0 || cmd.wlDst % 32 != 0)
            return false;
        if (cmd.kind == CmdKind::Compute && !cmd.useImm &&
            cmd.wlB % 32 != 0)
            return false;
        return true;
    }

    /**
     * The cells of @p r as dense segments, in lattice order: each dim-0
     * run split at tile-row edges and, when @p window is set, clamped to
     * the positional window [maskLo, maskHi) of cmd.dim (Alg. 2).
     * fn(pt, dense, len): pt is the segment's first cell, dense its dense
     * index, len its cell count.
     */
    template <class Fn>
    void
    forEachSegment(const HyperRect &r, const InMemCommand &cmd, bool window,
                   Fn &&fn) const
    {
        if (r.empty())
            return;
        const auto &tile = layout_.tile();
        const unsigned nd = r.dims();
        const Coord tile0 = tile[0];
        std::vector<Coord> pt(nd);
        for (unsigned d = 0; d < nd; ++d)
            pt[d] = r.lo(d);
        for (;;) {
            const Coord pos = pt[cmd.dim] % tile[cmd.dim];
            if (!window || cmd.dim == 0 ||
                (pos >= cmd.maskLo && pos < cmd.maskHi)) {
                std::int64_t row = 0; // Dense index of (0, pt[1..]).
                for (unsigned d = 1; d < nd; ++d)
                    row += pt[d] * denseStride_[d];
                for (Coord c = r.lo(0); c < r.hi(0);) {
                    const Coord origin = c - c % tile0;
                    const Coord end = std::min(r.hi(0), origin + tile0);
                    Coord lo = c, hi = end;
                    if (window && cmd.dim == 0) {
                        lo = std::max(lo, origin + cmd.maskLo);
                        hi = std::min(hi, origin + cmd.maskHi);
                    }
                    c = end;
                    if (lo < hi) {
                        pt[0] = lo;
                        fn(pt, row + lo, hi - lo);
                    }
                }
            }
            unsigned d = 1;
            for (; d < nd; ++d) {
                if (++pt[d] < r.hi(d))
                    break;
                pt[d] = r.lo(d);
            }
            if (d >= nd)
                break;
        }
    }

    /** Run copies staged so that every read happens before the first
     * write: source and destination may be the same slot. */
    class StagedMoves
    {
      public:
        void
        stage(std::int64_t dst, const float *from, std::int64_t len)
        {
            runs_.push_back({static_cast<std::size_t>(dst), values_.size(),
                             static_cast<std::size_t>(len)});
            values_.insert(values_.end(), from, from + len);
        }

        void
        commit(std::vector<float> &dst) const
        {
            for (const Run &r : runs_)
                std::copy_n(values_.data() + r.staged, r.len,
                            dst.data() + r.dst);
        }

      private:
        struct Run {
            std::size_t dst;
            std::size_t staged;
            std::size_t len;
        };
        std::vector<Run> runs_;
        std::vector<float> values_;
    };

    /** Stage segment (pt, dense, len) of @p src moved by @p dist along
     * @p dim, discarding destinations outside the array (§3.2). */
    void
    stageMoved(StagedMoves &moves, const std::vector<float> &src,
               const std::vector<Coord> &pt, std::int64_t dense,
               std::int64_t len, unsigned dim, Coord dist) const
    {
        const Coord shape_d = layout_.shape()[dim];
        std::int64_t lo = 0, hi = len; // Offsets within the segment.
        if (dim == 0) {
            lo = std::max<std::int64_t>(lo, -dist - pt[0]);
            hi = std::min<std::int64_t>(hi, shape_d - dist - pt[0]);
        } else if (pt[dim] + dist < 0 || pt[dim] + dist >= shape_d) {
            return;
        }
        if (lo < hi)
            moves.stage(dense + lo + dist * denseStride_[dim],
                        src.data() + dense + lo, hi - lo);
    }

    std::optional<Error>
    execCompute(const InMemCommand &cmd)
    {
        if (!fp32Slots(cmd))
            return Error{ErrCode::InvalidArgument,
                         "functional backend: non-fp32-slot compute"};
        const bool unary = !cmd.useImm && cmd.wlA == cmd.wlB &&
                           (cmd.op == BitOp::Relu || cmd.op == BitOp::Copy);
        switch (cmd.op) {
          case BitOp::Add:
          case BitOp::Sub:
          case BitOp::Mul:
          case BitOp::Div:
          case BitOp::Max:
          case BitOp::Min:
          case BitOp::AndB:
          case BitOp::OrB:
          case BitOp::XorB:
            break;
          case BitOp::Relu:
          case BitOp::Copy:
            if (!unary)
                return Error{ErrCode::InvalidArgument,
                             "functional backend: binary relu/copy"};
            break;
          default:
            return Error{ErrCode::InvalidArgument,
                         "functional backend: op outside the value model"};
        }
        const bool positional = cmd.maskHi > cmd.maskLo;
        auto &a = slot(cmd.wlA);
        auto &dst = slot(cmd.wlDst);
        // The hardware stages immediates through the top scratch slot
        // (ComputeSram::execBinaryImm); mirror the staging write so that
        // slot's lattice contents stay bit-identical too.
        const float imm = static_cast<float>(cmd.imm);
        std::vector<float> *scratch = nullptr;
        std::vector<float> *b = nullptr;
        if (cmd.useImm)
            scratch = &slot(wordlines_ - 32);
        else
            b = &slot(cmd.wlB);
        auto apply = [&](std::size_t i) {
            const float av = a[i];
            float bv = 0.0f;
            if (cmd.useImm) {
                (*scratch)[i] = imm;
                bv = imm;
            } else {
                bv = (*b)[i];
            }
            if (unary) {
                dst[i] = cmd.op == BitOp::Copy
                             ? av
                             : (std::bit_cast<std::uint32_t>(av) >> 31
                                    ? 0.0f
                                    : av);
                return;
            }
            float r = 0.0f;
            switch (cmd.op) {
              case BitOp::Add: r = av + bv; break;
              case BitOp::Sub: r = av - bv; break;
              case BitOp::Mul: r = av * bv; break;
              case BitOp::Div: r = av / bv; break;
              case BitOp::Max: r = av > bv ? av : bv; break;
              case BitOp::Min: r = av < bv ? av : bv; break;
              case BitOp::AndB:
                r = std::bit_cast<float>(
                    std::bit_cast<std::uint32_t>(av) &
                    std::bit_cast<std::uint32_t>(bv));
                break;
              case BitOp::OrB:
                r = std::bit_cast<float>(
                    std::bit_cast<std::uint32_t>(av) |
                    std::bit_cast<std::uint32_t>(bv));
                break;
              case BitOp::XorB:
                r = std::bit_cast<float>(
                    std::bit_cast<std::uint32_t>(av) ^
                    std::bit_cast<std::uint32_t>(bv));
                break;
              default: break; // Filtered above.
            }
            dst[i] = r;
        };
        forEachSegment(cmd.tensor.intersect(arrayRect_), cmd, positional,
                       [&](const std::vector<Coord> &, std::int64_t dense,
                           std::int64_t len) {
                           for (std::int64_t i = dense; i < dense + len; ++i)
                               apply(static_cast<std::size_t>(i));
                       });
        return std::nullopt;
    }

    std::optional<Error>
    execIntraShift(const InMemCommand &cmd)
    {
        if (!fp32Slots(cmd))
            return Error{ErrCode::InvalidArgument,
                         "functional backend: non-fp32-slot shift"};
        // ComputeSram::shift moves masked bitlines by delta within each
        // array; mirror the bitline arithmetic exactly, dropping
        // destinations beyond the array edge or outside the lattice
        // (invisible cells, same as the hardware). Each source segment
        // is a contiguous bitline range inside one tile, so its
        // destination range is contiguous too and maps back to dense
        // rows by arithmetic (TiledLayout::forEachTileRun), wrapping
        // into the next tile row exactly as the bitlines do.
        const auto &tile = layout_.tile();
        const unsigned nd = layout_.dims();
        std::int64_t stride = 1;
        for (unsigned d = 0; d < cmd.dim; ++d)
            stride *= tile[d];
        const std::int64_t delta = cmd.intraTileDist * stride;
        const std::int64_t limit = std::min<std::int64_t>(
            layout_.tileVolume(), static_cast<std::int64_t>(bitlines_));
        const auto &src = slot(cmd.wlA);

        StagedMoves moves;
        std::vector<Coord> origin(nd);
        forEachSegment(
            cmd.tensor.intersect(arrayRect_), cmd, /*window=*/true,
            [&](const std::vector<Coord> &pt, std::int64_t dense,
                std::int64_t len) {
                std::int64_t sbl = 0, mult = 1; // First source bitline.
                for (unsigned d = 0; d < nd; ++d) {
                    origin[d] = pt[d] - pt[d] % tile[d];
                    sbl += (pt[d] - origin[d]) * mult;
                    mult *= tile[d];
                }
                const std::int64_t dlo =
                    std::max<std::int64_t>(sbl + delta, 0);
                const std::int64_t dhi =
                    std::min<std::int64_t>(sbl + len + delta, limit);
                // Destination bitline bl reads dense source element
                // from + bl.
                const std::int64_t from = dense - sbl - delta;
                layout_.forEachTileRun(
                    origin.data(), dlo, dhi, [&](const TileRun &r) {
                        moves.stage(r.dense, src.data() + from + r.bitline,
                                    r.len);
                    });
            });
        moves.commit(slot(cmd.wlDst));
        return std::nullopt;
    }

    std::optional<Error>
    execInterShift(const InMemCommand &cmd)
    {
        if (!fp32Slots(cmd))
            return Error{ErrCode::InvalidArgument,
                         "functional backend: non-fp32-slot shift"};
        const Coord dist = cmd.interTileDist * layout_.tile()[cmd.dim] +
                           cmd.intraTileDist;
        const auto &src = slot(cmd.wlA);
        StagedMoves moves;
        forEachSegment(cmd.tensor.intersect(arrayRect_), cmd,
                       /*window=*/true,
                       [&](const std::vector<Coord> &pt, std::int64_t dense,
                           std::int64_t len) {
                           stageMoved(moves, src, pt, dense, len, cmd.dim,
                                      dist);
                       });
        moves.commit(slot(cmd.wlDst));
        return std::nullopt;
    }

    void
    execBroadcastBl(const InMemCommand &cmd)
    {
        const Coord span = cmd.tensor.size(cmd.dim);
        const auto &src = slot(cmd.wlA);
        StagedMoves moves;
        forEachSegment(cmd.tensor.intersect(arrayRect_), cmd,
                       /*window=*/false,
                       [&](const std::vector<Coord> &pt, std::int64_t dense,
                           std::int64_t len) {
                           for (Coord j = 0; j < cmd.bcCount; ++j)
                               stageMoved(moves, src, pt, dense, len,
                                          cmd.dim, cmd.bcDist + j * span);
                       });
        moves.commit(slot(cmd.wlDst));
    }

    std::optional<Error>
    execBroadcastVal(const InMemCommand &cmd)
    {
        if (cmd.dtype != DType::Fp32 || cmd.wlDst % 32 != 0)
            return Error{ErrCode::InvalidArgument,
                         "functional backend: non-fp32-slot immediate"};
        // The hardware writes every bitline of every tile (fullMask); the
        // lattice-visible part is the whole lattice.
        auto &dst = slot(cmd.wlDst);
        std::fill(dst.begin(), dst.end(), static_cast<float>(cmd.imm));
        return std::nullopt;
    }

    const TiledLayout &layout_;
    unsigned wordlines_;
    unsigned bitlines_;
    HyperRect arrayRect_;
    std::int64_t volume_ = 0;
    /** Dense-index step of a unit move along each dim. */
    std::vector<std::int64_t> denseStride_;
    std::vector<std::vector<float>> slots_;
};

class FunctionalBackend final : public ExecBackend
{
  public:
    using ExecBackend::ExecBackend;

    ExecBackendKind kind() const override
    {
        return ExecBackendKind::Functional;
    }

    BackendResult runJob(const BackendJob &job) override
    {
        infs_assert(job.prog != nullptr,
                    "functional backend needs a program");
        BackendResult res;
        WordFabric fab(job.layout, cfg_.l3.wordlines, cfg_.l3.bitlines);
        seedJobInputs(fab, job);
        if (auto err = fab.execute(*job.prog)) {
            // Outside the value model: keep the fidelity contract by
            // running the bit fabric for this job instead of diverging,
            // and name the reason.
            res.fallback = err->str();
            BitAccurateFabric bit(job.layout, cfg_.l3.wordlines,
                                  cfg_.l3.bitlines);
            seedJobInputs(bit, job);
            bit.execute(*job.prog);
            res.checksum = checksumJobOutputs(bit, job);
            return res;
        }
        res.checksum = checksumJobOutputs(fab, job);
        return res;
    }
};

} // namespace

std::unique_ptr<ExecBackend>
makeFunctionalBackend(const SystemConfig &cfg)
{
    return std::make_unique<FunctionalBackend>(cfg);
}

} // namespace infs
