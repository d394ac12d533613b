/**
 * @file
 * Reusable AccessStream implementations: sequential sweeps, random
 * block access, pointer chasing and composable helpers. These are the
 * building blocks of both the MEMO microbenchmark and the application
 * models.
 *
 * Streams generate *buffer offsets* and translate them through a
 * NumaBuffer, so page placement policies transparently steer traffic
 * to the right devices.
 */

#ifndef CXLMEMO_CPU_STREAMS_HH
#define CXLMEMO_CPU_STREAMS_HH

#include <memory>
#include <vector>

#include "cpu/core.hh"
#include "numa/numa.hh"
#include "sim/rng.hh"

namespace cxlmemo
{

/**
 * Sequential sweep over a region, one op per cacheline, wrapping
 * around until @p totalBytes have been touched.
 */
class SequentialStream : public AccessStream
{
  public:
    SequentialStream(const NumaBuffer &buf, std::uint64_t regionOffset,
                     std::uint64_t regionBytes, std::uint64_t totalBytes,
                     MemOp::Kind kind)
        : buf_(buf),
          regionOffset_(regionOffset),
          regionBytes_(regionBytes),
          remaining_(totalBytes),
          kind_(kind)
    {
        CXLMEMO_ASSERT(regionBytes_ >= cachelineBytes, "region too small");
        CXLMEMO_ASSERT(regionOffset_ + regionBytes_ <= buf.size(),
                       "region beyond buffer");
    }

    bool
    next(MemOp &op) override
    {
        if (remaining_ < cachelineBytes)
            return false;
        op.kind = kind_;
        op.paddr = buf_.translate(regionOffset_ + cursor_);
        cursor_ += cachelineBytes;
        if (cursor_ >= regionBytes_)
            cursor_ = 0;
        remaining_ -= cachelineBytes;
        return true;
    }

  private:
    const NumaBuffer &buf_;
    std::uint64_t regionOffset_;
    std::uint64_t regionBytes_;
    std::uint64_t cursor_ = 0;
    std::uint64_t remaining_;
    MemOp::Kind kind_;
};

/**
 * Random block access: pick a random block-aligned offset, touch the
 * block's lines sequentially, optionally fence after each block (MEMO
 * fences NT-store blocks to enforce block-level write order).
 */
class RandomBlockStream : public AccessStream
{
  public:
    RandomBlockStream(const NumaBuffer &buf, std::uint64_t regionOffset,
                      std::uint64_t regionBytes, std::uint64_t totalBytes,
                      std::uint64_t blockBytes, MemOp::Kind kind,
                      bool fencePerBlock, std::uint64_t seed)
        : buf_(buf),
          regionOffset_(regionOffset),
          numBlocks_(regionBytes / blockBytes),
          blockBytes_(blockBytes),
          remaining_(totalBytes),
          kind_(kind),
          fencePerBlock_(fencePerBlock),
          rng_(seed)
    {
        CXLMEMO_ASSERT(blockBytes >= cachelineBytes
                           && blockBytes % cachelineBytes == 0,
                       "block must be a multiple of a cacheline");
        CXLMEMO_ASSERT(numBlocks_ > 0, "region smaller than one block");
        CXLMEMO_ASSERT(regionOffset_ + regionBytes <= buf.size(),
                       "region beyond buffer");
    }

    bool
    next(MemOp &op) override
    {
        if (fencePending_) {
            fencePending_ = false;
            op.kind = MemOp::Kind::Sfence;
            return true;
        }
        if (remaining_ < cachelineBytes)
            return false;
        if (inBlock_ == 0)
            blockBase_ = rng_.below(numBlocks_) * blockBytes_;
        op.kind = kind_;
        op.paddr = buf_.translate(regionOffset_ + blockBase_ + inBlock_);
        inBlock_ += cachelineBytes;
        remaining_ -= cachelineBytes;
        if (inBlock_ >= blockBytes_) {
            inBlock_ = 0;
            fencePending_ = fencePerBlock_;
        }
        return true;
    }

  private:
    const NumaBuffer &buf_;
    std::uint64_t regionOffset_;
    std::uint64_t numBlocks_;
    std::uint64_t blockBytes_;
    std::uint64_t blockBase_ = 0;
    std::uint64_t inBlock_ = 0;
    std::uint64_t remaining_;
    MemOp::Kind kind_;
    bool fencePerBlock_;
    bool fencePending_ = false;
    Rng rng_;
};

/**
 * Pointer chase over a working set: a single random Hamiltonian cycle
 * across all lines (Sattolo's algorithm), traversed with dependent
 * loads so exactly one access is in flight -- the latency-measuring
 * pattern of MEMO's ptr-chase mode.
 */
class PointerChaseStream : public AccessStream
{
  public:
    /** @param accesses how many chase steps to perform */
    PointerChaseStream(const NumaBuffer &buf, std::uint64_t wssBytes,
                       std::uint64_t accesses, std::uint64_t seed)
        : buf_(buf), remaining_(accesses)
    {
        const std::uint64_t lines = wssBytes / cachelineBytes;
        CXLMEMO_ASSERT(lines >= 2, "working set too small to chase");
        CXLMEMO_ASSERT(wssBytes <= buf.size(), "WSS beyond buffer");
        nextIdx_.resize(lines);
        for (std::uint64_t i = 0; i < lines; ++i)
            nextIdx_[i] = static_cast<std::uint32_t>(i);
        // Sattolo's algorithm: a uniform random single cycle.
        Rng rng(seed);
        for (std::uint64_t i = lines - 1; i > 0; --i) {
            const std::uint64_t j = rng.below(i);
            std::swap(nextIdx_[i], nextIdx_[j]);
        }
    }

    bool
    next(MemOp &op) override
    {
        if (remaining_ == 0)
            return false;
        --remaining_;
        op.kind = MemOp::Kind::DependentLoad;
        op.paddr = buf_.translate(
            static_cast<std::uint64_t>(cursor_) * cachelineBytes);
        cursor_ = nextIdx_[cursor_];
        return true;
    }

  private:
    const NumaBuffer &buf_;
    std::vector<std::uint32_t> nextIdx_;
    std::uint32_t cursor_ = 0;
    std::uint64_t remaining_;
};

/** Fixed list of ops (tests and one-shot probes). */
class ListStream : public AccessStream
{
  public:
    explicit ListStream(std::vector<MemOp> ops) : ops_(std::move(ops)) {}

    bool
    next(MemOp &op) override
    {
        if (idx_ >= ops_.size())
            return false;
        op = ops_[idx_++];
        return true;
    }

  private:
    std::vector<MemOp> ops_;
    std::size_t idx_ = 0;
};

} // namespace cxlmemo

#endif // CXLMEMO_CPU_STREAMS_HH
