#include "cache/cache.hh"

#include <algorithm>
#include <bit>
#include <new>
#include <stdexcept>

#include <sys/mman.h>

namespace cxlmemo
{

namespace
{

/** One in every nibble. */
constexpr std::uint64_t nibbleOnes = 0x1111111111111111ull;

std::uint32_t
roundDownPow2(std::uint32_t v)
{
    CXLMEMO_ASSERT(v > 0, "pow2 of zero");
    return std::uint32_t(1) << (31 - std::countl_zero(v));
}

} // namespace

void
CacheParams::validate() const
{
    if (assoc == 0 || assoc > maxAssoc)
        throw std::invalid_argument("CacheParams: " + name
                                    + " needs 1 to 16 ways");
    if (sizeBytes < cachelineBytes * assoc)
        throw std::invalid_argument("CacheParams: " + name
                                    + " is smaller than one set");
}

void
SetAssocCache::Unmap::operator()(std::uint64_t *words) const
{
    ::munmap(words, bytes);
}

SetAssocCache::SetAssocCache(CacheParams params)
    : params_(std::move(params))
{
    params_.validate();
    const auto raw_sets = static_cast<std::uint32_t>(
        params_.sizeBytes / (cachelineBytes * params_.assoc));
    // Power-of-two sets keep indexing a mask, like real hardware.
    numSets_ = roundDownPow2(raw_sets);
    const std::size_t ways = std::size_t(numSets_) * params_.assoc;
    const std::size_t bytes = (ways + numSets_) * sizeof(std::uint64_t);
    void *words = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (words == MAP_FAILED)
        throw std::bad_alloc();
    tags_ = {static_cast<std::uint64_t *>(words), Unmap{bytes}};
    order_ = tags_.get() + ways;
    for (std::uint64_t w = 0; w < params_.assoc; ++w)
        identity_ |= w << (4 * w);
}

std::uint32_t
SetAssocCache::setOf(std::uint64_t lineAddr) const
{
    // Mix the node bits (bit 34+ of the line address) into the index
    // so lines from different NUMA nodes do not systematically alias.
    const std::uint64_t mixed = lineAddr ^ (lineAddr >> 17);
    return static_cast<std::uint32_t>(mixed & (numSets_ - 1));
}

std::uint32_t
SetAssocCache::wayOf(std::uint32_t set, std::uint64_t lineAddr) const
{
    const std::uint64_t *base =
        &tags_[static_cast<std::size_t>(set) * params_.assoc];
    std::uint32_t w = 0;
    for (; w < params_.assoc; ++w) {
        if ((base[w] >> addrShift) == lineAddr && (base[w] & stateMask) != 0)
            break;
    }
    return w;
}

void
SetAssocCache::touch(std::uint32_t set, std::uint32_t way)
{
    const std::uint64_t order = order_[set] ^ identity_;
    // Find the way's nibble: the lowest zero nibble of order ^ way.
    // Nibbles at and above assoc are zero in order, so they cannot
    // match before the way's own position does.
    const std::uint64_t x = order ^ (way * nibbleOnes);
    const std::uint64_t zeros =
        (x - nibbleOnes) & ~x & (nibbleOnes << 3);
    const unsigned pos =
        static_cast<unsigned>(std::countr_zero(zeros)) & ~3u;
    // Close the gap, then append the way as the MRU nibble.
    const std::uint64_t below = (std::uint64_t(1) << pos) - 1;
    const std::uint64_t next =
        (order & below) | ((order >> 4) & ~below)
        | (std::uint64_t(way) << (4 * (params_.assoc - 1)));
    order_[set] = next ^ identity_;
}

SetAssocCache::LineRef
SetAssocCache::find(std::uint64_t lineAddr)
{
    const std::uint32_t set = setOf(lineAddr);
    const std::uint32_t way = wayOf(set, lineAddr);
    if (way == params_.assoc)
        return LineRef(nullptr);
    touch(set, way);
    return LineRef(
        &tags_[static_cast<std::size_t>(set) * params_.assoc + way]);
}

bool
SetAssocCache::peek(std::uint64_t lineAddr) const
{
    return wayOf(setOf(lineAddr), lineAddr) != params_.assoc;
}

std::optional<SetAssocCache::Victim>
SetAssocCache::insert(std::uint64_t lineAddr, LineState state,
                      std::uint16_t owner, bool prefetched)
{
    CXLMEMO_ASSERT(state != LineState::Invalid, "inserting invalid line");
    CXLMEMO_ASSERT(lineAddr >> lineAddrBits == 0,
                   "line address %#llx wider than a %u-bit tag",
                   static_cast<unsigned long long>(lineAddr),
                   lineAddrBits);
    const std::uint32_t set = setOf(lineAddr);
    std::uint64_t *base =
        &tags_[static_cast<std::size_t>(set) * params_.assoc];
    const std::uint64_t packed = lineAddr << addrShift
                                 | std::uint64_t(owner) << ownerShift
                                 | static_cast<std::uint64_t>(state);

    // The scan stops at the first invalid way: a copy of the line
    // beyond it is not seen, and the new one goes into that hole.
    std::uint32_t way = 0;
    for (; way < params_.assoc; ++way) {
        const std::uint64_t tag = base[way];
        if ((tag & stateMask) == 0)
            break;
        if ((tag >> addrShift) == lineAddr) {
            // Re-insert of a present line: just merge the state.
            base[way] = packed | (tag & prefetchedBit);
            touch(set, way);
            return std::nullopt;
        }
    }

    std::optional<Victim> victim;
    if (way == params_.assoc) {
        way = static_cast<std::uint32_t>((order_[set] ^ identity_) & 0xf);
        const std::uint64_t tag = base[way];
        victim = Victim{tag >> addrShift,
                        static_cast<LineState>(tag & stateMask),
                        static_cast<std::uint16_t>(tag >> ownerShift)};
        stats_.evictions++;
        if (victim->state == LineState::Modified)
            stats_.dirtyEvictions++;
    }

    base[way] = packed | (prefetched ? prefetchedBit : 0);
    touch(set, way);
    return victim;
}

LineState
SetAssocCache::invalidate(std::uint64_t lineAddr)
{
    const std::uint32_t set = setOf(lineAddr);
    const std::uint32_t way = wayOf(set, lineAddr);
    if (way == params_.assoc)
        return LineState::Invalid;
    std::uint64_t &tag =
        tags_[static_cast<std::size_t>(set) * params_.assoc + way];
    const auto prior = static_cast<LineState>(tag & stateMask);
    tag = 0;
    return prior;
}

void
SetAssocCache::flushAll()
{
    std::fill_n(tags_.get(), std::size_t(numSets_) * params_.assoc, 0);
    std::fill_n(order_, numSets_, 0);
}

} // namespace cxlmemo
