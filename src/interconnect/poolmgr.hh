/**
 * @file
 * Pooled-capacity ownership ledger for multi-host CXL memory.
 *
 * A CXL memory pool exposes the capacity of M devices to N hosts
 * through per-host address windows. The PoolManager is the fabric
 * manager's allocation brain: it grants capacity to hosts in fixed
 * segments, translates host-window addresses to (device, device-local
 * address) pairs, and -- the robustness core -- tracks every segment's
 * ownership state through the fencing lifecycle:
 *
 *     Free -> Granted(host) -> Quarantined -> Free
 *
 * A fenced host's segments are quarantined (no host may touch them
 * until a scrub pass has cleared residual data and poison), then
 * released and re-granted to survivors. Ownership is *exclusive*: a
 * segment belongs to at most one host at a time, so one tenant's
 * writes can never land in another tenant's window. The explicit
 * alias hook (litmus tests, future shared-memory windows) is the only
 * sanctioned way two hosts reach the same line.
 *
 * The ledger is machine-checked: conservation
 * (total == free + granted + quarantined, recounted from the
 * per-segment states) is cheap enough to verify at every fence-check
 * snapshot, so a leak surfaces as a loud invariant trip instead of
 * quietly shrinking the pool.
 *
 * Pure mechanism: no event queue, no timing. The Cluster decides
 * *when* to quarantine and scrub; the PoolManager only enforces that
 * the bookkeeping stays conserved.
 */

#ifndef CXLMEMO_INTERCONNECT_POOLMGR_HH
#define CXLMEMO_INTERCONNECT_POOLMGR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace cxlmemo
{

/** Ownership state of one pool segment. */
enum class SegState : std::uint8_t
{
    Free,        //!< unowned, grantable
    Granted,     //!< owned by exactly one host
    Quarantined, //!< reclaimed from a fenced host, awaiting scrub
};

/** Allocation / reclamation counters of the pool manager. */
struct PoolMgrStats
{
    std::uint64_t grants = 0;       //!< grant operations served
    std::uint64_t grantedBytes = 0; //!< bytes handed out (cumulative)
    std::uint64_t rejects = 0;      //!< grants refused for lack of space
    std::uint64_t quarantines = 0;  //!< fencing reclaims
    std::uint64_t quarantinedBytes = 0;
    std::uint64_t scrubbedBytes = 0; //!< quarantined -> free transitions
};

class PoolManager
{
  public:
    /** Device-local location of a host-window address. */
    struct Loc
    {
        std::uint32_t dev = 0;
        Addr addr = 0;
    };

    /**
     * @param devices pooled devices behind the switch
     * @param bytesPerDevice capacity contributed by each device
     * @param segmentBytes grant granularity (must divide the device
     *        capacity; windows are built from whole segments)
     */
    PoolManager(std::uint32_t devices, std::uint64_t bytesPerDevice,
                std::uint64_t segmentBytes = miB);

    std::uint64_t segmentBytes() const { return segBytes_; }
    std::uint64_t totalBytes() const
    {
        return std::uint64_t(totalSegs_) * segBytes_;
    }
    std::uint64_t freeBytes() const
    {
        return std::uint64_t(freeSegs_) * segBytes_;
    }
    std::uint64_t quarantinedBytes() const
    {
        return std::uint64_t(quarSegs_) * segBytes_;
    }

    /**
     * Grant @p bytes (rounded up to whole segments) to @p host,
     * appended to the host's window. Segments are taken round-robin
     * across devices starting at the host's home device, so a
     * multi-device pool stripes every window deterministically.
     * @return bytes actually granted (0 when the pool cannot satisfy
     *         the request; grants are all-or-nothing).
     */
    std::uint64_t grant(std::uint32_t host, std::uint64_t bytes);

    /** Current window size of @p host (bytes). */
    std::uint64_t grantedBytes(std::uint32_t host) const;

    /** True when @p hostAddr lies inside @p host's window. */
    bool owns(std::uint32_t host, Addr hostAddr) const;

    /**
     * Translate a host-window address to its device-local location.
     * @pre owns(host, hostAddr) (or the host aliases a window that
     *      covers it); asserts otherwise -- a translation miss is a
     *      containment bug, not a recoverable condition.
     */
    Loc translate(std::uint32_t host, Addr hostAddr) const;

    /**
     * Reclaim every segment of @p host (fencing): Granted ->
     * Quarantined. The host's window becomes empty; quarantined
     * segments are not grantable until releaseQuarantined().
     * @return bytes quarantined.
     */
    std::uint64_t quarantine(std::uint32_t host);

    /** Scrub finished: all Quarantined segments -> Free (also ends
     *  the scrub pass, see beginScrub()). @return bytes released. */
    std::uint64_t releaseQuarantined();

    /** Mark the start of a scrub pass over the quarantined segments
     *  (ledger state, so gauges can report it without the fencing
     *  harness keeping a shadow flag). */
    void beginScrub() { scrubbing_ = true; }

    /** A scrub pass is running (set by beginScrub(), cleared by
     *  releaseQuarantined()). */
    bool scrubbing() const { return scrubbing_; }

    /** Quarantined bytes currently under scrub; 0 when idle. Drops
     *  to 0 the instant the scrub completes and the pool re-grants. */
    std::uint64_t scrubbingBytes() const
    {
        return scrubbing_ ? quarantinedBytes() : 0;
    }

    /**
     * Litmus/shared-window hook: @p host resolves translate() through
     * @p owner's window instead of its own. Ownership accounting is
     * untouched -- the alias is visibility, not a grant.
     */
    void setAlias(std::uint32_t host, std::uint32_t owner);

    /**
     * The conservation invariant, recounted from the per-segment
     * state tables: total == free + granted + quarantined, the
     * cached counters match the recount, and every granted segment
     * appears in exactly one host's window.
     */
    bool ledgerOk() const;

    const PoolMgrStats &stats() const { return stats_; }

    /** One-line ledger rendering for reports and post-mortems. */
    std::string summary() const;

  private:
    static constexpr std::uint32_t noAlias = ~std::uint32_t(0);

    struct Segment
    {
        SegState state = SegState::Free;
        std::uint32_t owner = 0; //!< valid while Granted/Quarantined
    };

    const std::vector<Loc> &windowOf(std::uint32_t host) const;

    std::uint32_t numDevices_;
    std::uint64_t segBytes_;
    std::uint32_t segsPerDevice_;
    std::uint32_t totalSegs_;
    std::uint32_t freeSegs_;
    std::uint32_t quarSegs_ = 0;
    bool scrubbing_ = false;

    std::vector<std::vector<Segment>> segs_; //!< [device][segment]
    std::vector<std::vector<Loc>> windows_;  //!< [host][window segment]
    std::vector<std::uint32_t> alias_;       //!< [host] -> owner / noAlias
    PoolMgrStats stats_;
};

} // namespace cxlmemo

#endif // CXLMEMO_INTERCONNECT_POOLMGR_HH
