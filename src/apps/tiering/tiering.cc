#include "apps/tiering/tiering.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace cxlmemo
{
namespace tiering
{

TieredBuffer::TieredBuffer(Machine &machine, std::uint64_t bytes,
                           TieringParams params)
    : machine_(machine), params_(params), bytes_(bytes)
{
    CXLMEMO_ASSERT(bytes > 0, "empty tiered buffer");
    dramFrames_ = machine.numa().alloc(
        bytes, MemPolicy::membind(machine.localNode()));
    cxlFrames_ = machine.numa().alloc(
        bytes, MemPolicy::membind(machine.cxlNode()));
    const std::uint64_t pages = (bytes + pageBytes - 1) / pageBytes;
    CXLMEMO_ASSERT(params_.dramBudgetPages <= pages,
                   "budget larger than the buffer");
    pageOnDram_.assign(pages, false);
    heat_.assign(pages, 0);
    // First-touch style start: fill the DRAM budget with the buffer's
    // head, the common initial condition of a tiering system.
    for (std::uint64_t p = 0; p < params_.dramBudgetPages; ++p)
        pageOnDram_[p] = true;
    stats_.dramResidentPages = params_.dramBudgetPages;
}

void
TieredBuffer::startDaemon()
{
    if (daemonRunning_)
        return;
    daemonRunning_ = true;
    machine_.eq().scheduleIn(params_.scanInterval, [this] {
        daemonRunning_ = false;
        scan();
        startDaemon();
    });
}

void
TieredBuffer::migrate(std::uint64_t page, bool toDram, Tick &cpuTime)
{
    if (pageOnDram_[page] == toDram)
        return;
    // Move the page contents with DSA (guideline: bulk movement off
    // the cores); the daemon only pays submission cost.
    DsaDescriptor d;
    if (toDram) {
        d.src = &cxlFrames_;
        d.dst = &dramFrames_;
        ++stats_.promotions;
        ++stats_.dramResidentPages;
    } else {
        d.src = &dramFrames_;
        d.dst = &cxlFrames_;
        ++stats_.demotions;
        CXLMEMO_ASSERT(stats_.dramResidentPages > 0,
                       "demotion underflow");
        --stats_.dramResidentPages;
    }
    d.srcOffset = page * pageBytes;
    d.dstOffset = page * pageBytes;
    d.bytes = std::min<std::uint64_t>(pageBytes,
                                      bytes_ - page * pageBytes);
    machine_.dsa().submit(d, nullptr);
    cpuTime += machine_.dsa().params().submitCost;
    // Mapping flips once the copy lands; at daemon timescales the
    // copy is short, so flip immediately (documented simplification).
    pageOnDram_[page] = toDram;
}

void
TieredBuffer::scan()
{
    ++stats_.scans;
    Tick cpu = static_cast<Tick>(numPages()) * params_.scanCostPerPage;

    // Candidates: hot pages currently on CXL (promotion), coldest
    // pages currently on DRAM (demotion victims).
    std::vector<std::uint64_t> hot_cxl;
    std::vector<std::uint64_t> dram_pages;
    for (std::uint64_t p = 0; p < numPages(); ++p) {
        if (!pageOnDram_[p] && heat_[p] >= params_.hotThreshold)
            hot_cxl.push_back(p);
        else if (pageOnDram_[p])
            dram_pages.push_back(p);
    }
    // Hottest first / coldest first.
    std::sort(hot_cxl.begin(), hot_cxl.end(),
              [this](std::uint64_t a, std::uint64_t b) {
                  return heat_[a] > heat_[b];
              });
    std::sort(dram_pages.begin(), dram_pages.end(),
              [this](std::uint64_t a, std::uint64_t b) {
                  return heat_[a] < heat_[b];
              });

    std::uint32_t moved = 0;
    std::size_t victim = 0;
    for (std::uint64_t page : hot_cxl) {
        if (moved >= params_.migrationBurst)
            break;
        if (stats_.dramResidentPages >= params_.dramBudgetPages) {
            // Demote the coldest resident page -- but only if the
            // incoming page is hotter (hysteresis against thrash).
            if (victim >= dram_pages.size())
                break;
            const std::uint64_t v = dram_pages[victim];
            if (heat_[v] >= heat_[page])
                break;
            ++victim;
            migrate(v, /*toDram=*/false, cpu);
            ++moved;
        }
        if (stats_.dramResidentPages < params_.dramBudgetPages) {
            migrate(page, /*toDram=*/true, cpu);
            ++moved;
        }
    }

    // Exponential decay keeps the heat recent.
    for (auto &h : heat_)
        h = static_cast<std::uint16_t>(h >> params_.decayShift);
    (void)cpu; // daemon runs on a housekeeping core; cost tracked
               // implicitly through DSA occupancy
}

} // namespace tiering
} // namespace cxlmemo
