/**
 * @file
 * Page-tiering manager: a TPP-flavored hot/cold page placement daemon
 * over DRAM + CXL (the deployment model the paper's Sec. 5 frames:
 * "the performance of applications using this heterogeneous memory
 * scheme should serve as a baseline for most memory tiering policies
 * ... the proposed optimization should, at the very least, perform
 * equally well when compared against a weighted round-robin
 * allocation strategy").
 *
 * The manager owns a remappable buffer whose pages live on either the
 * DRAM node or the CXL node. Workload accesses bump per-page counters;
 * a periodic daemon promotes hot CXL pages into a bounded DRAM budget
 * (demoting the coldest resident pages to make room), moving page
 * contents with the DSA engine per the paper's guideline.
 */

#ifndef CXLMEMO_APPS_TIERING_TIERING_HH
#define CXLMEMO_APPS_TIERING_TIERING_HH

#include <cstdint>
#include <vector>

#include "system/machine.hh"

namespace cxlmemo
{
namespace tiering
{

/** Daemon knobs. */
struct TieringParams
{
    /** Pages the DRAM tier may hold (the capacity constraint that
     *  motivates CXL in the first place). */
    std::uint64_t dramBudgetPages = 0;

    /** Daemon scan interval. */
    Tick scanInterval = ticksFromUs(500.0);

    /** Accesses within one interval that make a page "hot". */
    std::uint32_t hotThreshold = 4;

    /** Counter decay per scan (bit shift), so heat is recent. */
    std::uint32_t decayShift = 1;

    /** Max migrations per scan (bounds DSA bandwidth use). */
    std::uint32_t migrationBurst = 256;

    /** Daemon CPU cost per scanned page. */
    Tick scanCostPerPage = ticksFromNs(3.0);
};

/** Migration / residency statistics. */
struct TieringStats
{
    std::uint64_t promotions = 0;
    std::uint64_t demotions = 0;
    std::uint64_t scans = 0;
    std::uint64_t dramResidentPages = 0;
};

/**
 * A buffer whose page placement changes at runtime.
 *
 * Both tiers pre-reserve frames for every page (a simulation shortcut:
 * real kernels free the source frame after the copy; capacity pressure
 * is enforced by the daemon's dramBudgetPages instead, which is the
 * policy-relevant constraint).
 */
class TieredBuffer
{
  public:
    TieredBuffer(Machine &machine, std::uint64_t bytes,
                 TieringParams params);

    std::uint64_t size() const { return bytes_; }
    std::uint64_t numPages() const { return pageOnDram_.size(); }

    /**
     * Translate an access: returns the physical address under the
     * *current* placement and records heat for the daemon.
     */
    Addr
    touch(std::uint64_t offset)
    {
        const std::uint64_t page = offset / pageBytes;
        if (heat_[page] != 0xffff)
            ++heat_[page];
        const NumaBuffer &home =
            pageOnDram_[page] ? dramFrames_ : cxlFrames_;
        return home.translate(offset);
    }

    /** Read-only translation (no heat). */
    Addr
    peek(std::uint64_t offset) const
    {
        const std::uint64_t page = offset / pageBytes;
        const NumaBuffer &home =
            pageOnDram_[page] ? dramFrames_ : cxlFrames_;
        return home.translate(offset);
    }

    /** Start the background daemon (idempotent). */
    void startDaemon();

    const TieringStats &stats() const { return stats_; }
    double
    dramResidency() const
    {
        return static_cast<double>(stats_.dramResidentPages)
               / static_cast<double>(numPages());
    }

  private:
    void scan();
    void migrate(std::uint64_t page, bool toDram, Tick &cpuTime);

    Machine &machine_;
    TieringParams params_;
    std::uint64_t bytes_;
    NumaBuffer dramFrames_;
    NumaBuffer cxlFrames_;
    std::vector<bool> pageOnDram_;
    std::vector<std::uint16_t> heat_;
    TieringStats stats_;
    bool daemonRunning_ = false;
};

} // namespace tiering
} // namespace cxlmemo

#endif // CXLMEMO_APPS_TIERING_TIERING_HH
