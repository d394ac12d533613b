/**
 * @file
 * Host memory-failure handling: the per-page error ledger that turns
 * individual consumed-poison events into page offlining, mirroring
 * the kernel's memory_failure() soft-offline path. The cache
 * hierarchy reports every consumed poison with its physical address;
 * once a page accumulates `offlineThreshold` events the handler
 * offlines it (capped at `maxOfflinePages`), fires the registered
 * hooks (the tiering layer uses one to migrate live data off the
 * page via DSA), and keeps offlined-capacity accounting.
 *
 * Pure bookkeeping: offlining never delays or reschedules anything,
 * so the handler is free to exist without perturbing timing. With
 * offlineThreshold == 0 the ledger never records and behaviour is
 * bit-identical to a build without it.
 */

#ifndef CXLMEMO_SIM_LIFECYCLE_HH
#define CXLMEMO_SIM_LIFECYCLE_HH

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "sim/chaos.hh"
#include "sim/types.hh"

namespace cxlmemo
{

class MemoryFailureHandler
{
  public:
    static constexpr std::uint64_t pageBytes = 4096;

    MemoryFailureHandler(std::uint32_t offlineThreshold,
                         std::uint32_t maxOfflinePages)
        : threshold_(offlineThreshold), maxPages_(maxOfflinePages)
    {
    }

    /** Hook fired once per offlined page with the page base address.
     *  @return bytes of live data the hook migrated off the page. */
    using OfflineHook = std::function<std::uint64_t(Addr, Tick)>;

    void addOfflineHook(OfflineHook h) { hooks_.push_back(std::move(h)); }

    /**
     * One consumed-poison event at @p addr. Bumps the page's ledger
     * entry; crossing the threshold offlines the page and fires the
     * hooks. Re-reports on an already-offlined page are counted but
     * never re-offline it.
     */
    void
    notePoison(Addr addr, Tick now)
    {
        if (threshold_ == 0)
            return;
        ++stats_.poisonEvents;
        const Addr page = addr & ~(pageBytes - 1);
        auto &entry = ledger_[page];
        if (entry.offlined)
            return;
        if (++entry.errors >= threshold_
            && stats_.pagesOfflined < maxPages_)
            offline(page, entry, now);
    }

    bool
    isOffline(Addr addr) const
    {
        const auto it = ledger_.find(addr & ~(pageBytes - 1));
        return it != ledger_.end() && it->second.offlined;
    }

    /** Ledger pages currently tracked (offlined or not). */
    std::size_t trackedPages() const { return ledger_.size(); }

    const ChaosStats &stats() const { return stats_; }

  private:
    struct Entry
    {
        std::uint32_t errors = 0;
        bool offlined = false;
    };

    void
    offline(Addr page, Entry &entry, Tick now)
    {
        entry.offlined = true;
        ++stats_.pagesOfflined;
        stats_.offlinedBytes += pageBytes;
        for (const auto &hook : hooks_)
            stats_.migratedBytes += hook(page, now);
    }

    std::uint32_t threshold_;
    std::uint32_t maxPages_;
    std::unordered_map<Addr, Entry> ledger_;
    std::vector<OfflineHook> hooks_;
    ChaosStats stats_;
};

} // namespace cxlmemo

#endif // CXLMEMO_SIM_LIFECYCLE_HH
