/**
 * @file
 * Set-associative cache tag array with MESI-lite line states.
 *
 * This is a functional tag store with LRU replacement; timing is
 * applied by the CacheHierarchy that owns the levels. States are the
 * subset of MESI the studied workloads exercise: threads in this
 * framework do not write-share lines, so S behaves like E on a store
 * (no cross-core invalidation round is modelled; documented in
 * DESIGN.md).
 */

#ifndef CXLMEMO_CACHE_CACHE_HH
#define CXLMEMO_CACHE_CACHE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace cxlmemo
{

/** Cacheline coherence state. */
enum class LineState : std::uint8_t
{
    Invalid,
    Shared,
    Exclusive,
    Modified,
};

/** Geometry and timing of one cache level. */
struct CacheParams
{
    /** Most ways a set can hold: the LRU order word ranks sixteen
     *  4-bit way indices. */
    static constexpr std::uint32_t maxAssoc = 16;

    std::string name = "cache";
    std::uint64_t sizeBytes = 48 * kiB;
    std::uint32_t assoc = 12;
    /** Incremental lookup/hit latency contributed by this level. */
    Tick latency = ticksFromNs(2.5);

    /** Throws std::invalid_argument unless 1 <= assoc <= maxAssoc and
     *  sizeBytes holds at least one set. */
    void validate() const;
};

/** Hit/miss counters for one cache level. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t dirtyEvictions = 0;

    double
    hitRate() const
    {
        const auto total = hits + misses;
        return total ? static_cast<double>(hits)
                       / static_cast<double>(total)
                     : 0.0;
    }
};

/**
 * The tag array of one cache. Addresses are line-granular
 * ("line address" = physical address >> 6).
 *
 * The store is two flat arrays of 64-bit words, zero at construction
 * (DESIGN.md §9 "Tag store"):
 *  - one tag word per way: lineAddr << 20 | owner << 4 |
 *    prefetched << 2 | state, where state 0 is LineState::Invalid;
 *  - one order word per set: the set's way indices as 4-bit nibbles,
 *    least recently used in the low nibble. It is stored XORed with
 *    the identity order, so a zero word reads as ways 0, 1, 2, ...
 *
 * Replacement is exact LRU over "found or inserted": the victim of a
 * full set is the way least recently returned by find() or written
 * by insert().
 */
class SetAssocCache
{
    static constexpr std::uint64_t stateMask = 0x3;
    static constexpr std::uint64_t prefetchedBit = 0x4;
    static constexpr unsigned ownerShift = 4;
    static constexpr unsigned addrShift = 20;

  public:
    /** Widest line address a tag word holds. */
    static constexpr unsigned lineAddrBits = 64 - addrShift;

    /** Handle on one present line's tag word; false when absent. */
    class LineRef
    {
      public:
        explicit operator bool() const { return tag_ != nullptr; }

        LineState
        state() const
        {
            return static_cast<LineState>(*tag_ & stateMask);
        }

        void
        setState(LineState s)
        {
            *tag_ = (*tag_ & ~stateMask) | static_cast<std::uint64_t>(s);
        }

        /** Set by the prefetcher; cleared on first demand hit. */
        bool prefetched() const { return (*tag_ & prefetchedBit) != 0; }
        void clearPrefetched() { *tag_ &= ~prefetchedBit; }

      private:
        friend class SetAssocCache;
        explicit LineRef(std::uint64_t *tag) : tag_(tag) {}

        std::uint64_t *tag_;
    };

    /** A valid line displaced by insert(). */
    struct Victim
    {
        std::uint64_t lineAddr;
        LineState state;
        /** Core that installed the line (inclusive-directory hint so
         *  back-invalidation does not scan every core). */
        std::uint16_t owner;
    };

    /** @throw std::invalid_argument on a bad geometry. */
    explicit SetAssocCache(CacheParams params);

    /** @return the first matching way (and make it MRU), or a false
     *  handle. */
    LineRef find(std::uint64_t lineAddr);

    /** Presence probe without LRU update. */
    bool peek(std::uint64_t lineAddr) const;

    /**
     * Install a line in the set's first invalid way, or in place of
     * the set's LRU way when it is full. A line already present
     * before the first invalid way is updated in place (state and
     * owner; its prefetched bit is kept).
     * @return the displaced valid line, if any.
     */
    std::optional<Victim> insert(std::uint64_t lineAddr, LineState state,
                                 std::uint16_t owner,
                                 bool prefetched = false);

    /** Remove the first matching line; @return its prior state. */
    LineState invalidate(std::uint64_t lineAddr);

    const CacheParams &params() const { return params_; }
    CacheStats &stats() { return stats_; }
    const CacheStats &stats() const { return stats_; }

    std::uint32_t numSets() const { return numSets_; }

    /** Drop every line (used between experiment repetitions). */
    void flushAll();

  private:
    std::uint32_t setOf(std::uint64_t lineAddr) const;
    /** Way holding @p lineAddr in @p set, or assoc if none. */
    std::uint32_t wayOf(std::uint32_t set, std::uint64_t lineAddr) const;
    /** Make @p way the most recently used way of @p set. */
    void touch(std::uint32_t set, std::uint32_t way);

    CacheParams params_;
    std::uint32_t numSets_;
    std::vector<std::uint64_t> tags_;  //!< numSets_ * assoc, set-major
    std::vector<std::uint64_t> order_; //!< one per set, ^ identity_
    std::uint64_t identity_ = 0;       //!< nibble i holds way i
    CacheStats stats_;
};

} // namespace cxlmemo

#endif // CXLMEMO_CACHE_CACHE_HH
