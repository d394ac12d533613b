#include "apps/dlrm/dlrm.hh"

#include <numeric>
#include <vector>

#include "cpu/streams.hh"
#include "memo/memo.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace cxlmemo
{
namespace dlrm
{

namespace
{

/**
 * Generates the memory-op sequence of back-to-back inferences:
 * (pooling x tables) gathers with per-line accumulate compute,
 * followed by the dense-MLP compute block.
 */
class InferenceStream : public AccessStream
{
  public:
    InferenceStream(const NumaBuffer &buf, const DlrmParams &p,
                    std::uint64_t seed, std::uint64_t *counter)
        : buf_(buf), p_(p), rng_(seed), counter_(counter)
    {
        linesPerRow_ = p_.rowBytes / cachelineBytes;
        gathersPerInference_ =
            std::uint64_t(p_.tables) * p_.pooling;
    }

    bool
    next(MemOp &op) override
    {
        // Emit: [row line load, accumulate]* ... [MLP compute].
        if (emitCompute_) {
            emitCompute_ = false;
            op.kind = MemOp::Kind::Compute;
            op.computeTicks = p_.perLineCompute;
            return true;
        }
        if (gather_ == gathersPerInference_) {
            // End of the sparse phase: dense MLP, then next inference.
            gather_ = 0;
            line_ = 0;
            if (counter_)
                ++(*counter_);
            op.kind = MemOp::Kind::Compute;
            op.computeTicks = p_.mlpCompute;
            return true;
        }
        if (line_ == 0) {
            // Pick the next embedding row: random row of table t.
            const std::uint32_t table =
                static_cast<std::uint32_t>(gather_ % p_.tables);
            const std::uint64_t row = rng_.below(p_.rowsPerTable);
            const std::uint64_t table_bytes =
                std::uint64_t(p_.rowsPerTable) * p_.rowBytes;
            rowBase_ = std::uint64_t(table) * table_bytes
                       + row * p_.rowBytes;
        }
        op.kind = MemOp::Kind::Load;
        op.paddr = buf_.translate(rowBase_
                                  + std::uint64_t(line_)
                                        * cachelineBytes);
        if (++line_ == linesPerRow_) {
            line_ = 0;
            ++gather_;
        }
        emitCompute_ = true;
        return true;
    }

  private:
    const NumaBuffer &buf_;
    DlrmParams p_;
    Rng rng_;
    std::uint64_t *counter_;
    std::uint32_t linesPerRow_;
    std::uint64_t gathersPerInference_;
    std::uint64_t gather_ = 0;
    std::uint32_t line_ = 0;
    std::uint64_t rowBase_ = 0;
    bool emitCompute_ = false;
};

} // namespace

DlrmModel::DlrmModel(Machine &machine, DlrmParams params,
                     const MemPolicy &placement, std::uint64_t seed)
    : params_(params), seed_(seed)
{
    CXLMEMO_ASSERT(params_.rowBytes % cachelineBytes == 0,
                   "embedding row must be whole cachelines");
    const std::uint64_t total = std::uint64_t(params_.tables)
                                * params_.rowsPerTable
                                * params_.rowBytes;
    buffer_ = machine.numa().alloc(total, placement);
}

std::unique_ptr<AccessStream>
DlrmModel::makeWorkerStream(std::uint32_t worker, std::uint64_t *counter)
{
    return std::make_unique<InferenceStream>(
        buffer_, params_, seed_ + 77 * worker + 1, counter);
}

double
runInferenceThroughput(Machine &machine, const DlrmParams &params,
                       const MemPolicy &placement, std::uint32_t threads,
                       double warmupUs, double measureUs,
                       std::uint64_t seed)
{
    CXLMEMO_ASSERT(threads >= 1, "need at least one worker");
    DlrmModel model(machine, params, placement, seed);

    std::vector<std::uint64_t> counters(threads, 0);
    memo::Flood flood(machine, threads, [&](std::uint32_t t) {
        return model.makeWorkerStream(t, &counters[t]);
    });
    const std::uint64_t inferences = memo::countOver(
        machine,
        {ticksFromUs(warmupUs), ticksFromUs(warmupUs + measureUs)},
        [&counters] {
            return std::accumulate(counters.begin(), counters.end(),
                                   std::uint64_t(0));
        });
    return static_cast<double>(inferences) / (measureUs * 1e-6);
}

} // namespace dlrm
} // namespace cxlmemo
