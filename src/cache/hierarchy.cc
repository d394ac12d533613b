#include "cache/hierarchy.hh"

#include <utility>

#include "sim/trace.hh"

namespace cxlmemo
{

namespace
{

constexpr std::uint64_t
lineOf(Addr paddr)
{
    return paddr >> 6;
}

constexpr Addr
paddrOfLine(std::uint64_t la)
{
    return la << 6;
}

} // namespace

CacheHierarchy::CacheHierarchy(EventQueue &eq, NumaSpace &numa,
                               HierarchyParams params)
    : eq_(eq), numa_(numa), params_(std::move(params))
{
    CXLMEMO_ASSERT(params_.numCores > 0, "hierarchy with no cores");
    l1_.reserve(params_.numCores);
    l2_.reserve(params_.numCores);
    for (std::uint32_t c = 0; c < params_.numCores; ++c) {
        CacheParams p1 = params_.l1;
        p1.name = "core" + std::to_string(c) + "." + p1.name;
        l1_.emplace_back(std::move(p1));
        CacheParams p2 = params_.l2;
        p2.name = "core" + std::to_string(c) + "." + p2.name;
        l2_.emplace_back(std::move(p2));
    }
    llc_ = std::make_unique<SetAssocCache>(params_.llc);
    if (params_.tlbEnabled) {
        // Entry count is encoded as sizeBytes / 64 in the tag array.
        const CacheParams l1tlb{"dtlb", params_.l1TlbEntries * 64ull, 4,
                                0};
        const CacheParams l2tlb{"stlb", params_.l2TlbEntries * 64ull, 12,
                                0};
        for (std::uint32_t c = 0; c < params_.numCores; ++c) {
            l1Tlb_.emplace_back(l1tlb);
            l2Tlb_.emplace_back(l2tlb);
        }
    }
    streams_.assign(params_.numCores,
                    std::vector<Stream>(params_.prefetchStreams));
}

const CacheStats &
CacheHierarchy::l1Stats(std::uint16_t core) const
{
    return l1_.at(core).stats();
}

void
CacheHierarchy::writebackLine(std::uint64_t la, std::uint16_t source,
                              Tick at, Done cb)
{
    at = std::max(at, eq_.curTick());
    // Writebacks carry a full data flit toward the device; the QoS
    // throttle paces them together with the NT-store stream.
    at += qosIssueDelay(source, paddrOfLine(la), at);
    eq_.schedule(at,
                 [this, la, source, cb = std::move(cb)]() mutable {
        Addr local = 0;
        MemoryDevice &dev = numa_.route(paddrOfLine(la), local);
        MemRequest req;
        req.addr = local;
        req.size = cachelineBytes;
        req.cmd = MemCmd::Write;
        req.source = source;
        if (cb)
            req.onComplete = std::move(cb);
        dev.access(std::move(req));
    });
}

void
CacheHierarchy::fillL1(std::uint16_t core, std::uint64_t la, LineState st,
                       Tick at)
{
    auto victim = l1_[core].insert(la, st, core);
    if (victim && victim->state == LineState::Modified) {
        // Merge dirty data down into L2 (inclusive: normally present).
        if (auto l2line = l2_[core].find(victim->lineAddr)) {
            l2line.setState(LineState::Modified);
        } else {
            writebackLine(victim->lineAddr, core, at);
        }
    }
}

void
CacheHierarchy::fillL2(std::uint16_t core, std::uint64_t la, LineState st,
                       Tick at, bool prefetched)
{
    auto victim = l2_[core].insert(la, st, core, prefetched);
    if (!victim)
        return;
    // L1 is a subset of L2: displace the line upstairs as well.
    const LineState l1st = l1_[core].invalidate(victim->lineAddr);
    const bool dirty = victim->state == LineState::Modified
                       || l1st == LineState::Modified;
    if (auto llcline = llc_->find(victim->lineAddr)) {
        if (dirty)
            llcline.setState(LineState::Modified);
    } else if (dirty) {
        writebackLine(victim->lineAddr, core, at);
    }
}

void
CacheHierarchy::fillLlc(std::uint16_t core, std::uint64_t la, LineState st,
                        Tick at)
{
    auto victim = llc_->insert(la, st, core);
    if (!victim)
        return;
    // Inclusive LLC: evicting here removes the line machine-wide --
    // including any poison the line carried.
    clearPoison(victim->lineAddr);
    const std::uint16_t owner = victim->owner;
    const LineState l1st = l1_[owner].invalidate(victim->lineAddr);
    const LineState l2st = l2_[owner].invalidate(victim->lineAddr);
    const bool dirty = victim->state == LineState::Modified
                       || l1st == LineState::Modified
                       || l2st == LineState::Modified;
    if (dirty)
        writebackLine(victim->lineAddr, core, at);
}

void
CacheHierarchy::missToMemory(std::uint16_t core, std::uint64_t la,
                             Tick dispatch, bool rfo, Done cb,
                             TraceSpan *span, bool attrib, Tick issued)
{
    if (!recentlyFlushed_.empty() && recentlyFlushed_.erase(la) > 0
        && numa_.node(nodeOfPaddr(paddrOfLine(la))).flushHandshake) {
        dispatch += params_.flushHandshakePenalty;
    }
    // Lookup latency plus the uncore hop: all of it is pipeline delay
    // (service), none of it contention.
    if (station_)
        station_->passThrough(0, dispatch - issued,
                              dispatch - issued, attrib, dispatch);
    eq_.schedule(dispatch, [this, core, la, rfo, span, attrib,
                            cb = std::move(cb)]() mutable {
        Addr local = 0;
        MemoryDevice &dev = numa_.route(paddrOfLine(la), local);
        MemRequest req;
        req.addr = local;
        req.size = cachelineBytes;
        req.cmd = MemCmd::Read;
        req.source = core;
        req.span = span;
        req.attrib = attrib;
        req.onComplete = [this, core, la, rfo,
                          cb = std::move(cb)](Tick t) {
            // A poisoned fill is also a poisoned delivery for the
            // requesting thread.
            const bool poisoned = absorbPoison(la, t);
            fillLlc(core, la, LineState::Exclusive, t);
            fillL2(core, la, LineState::Exclusive, t);
            fillL1(core, la,
                   rfo ? LineState::Modified : LineState::Exclusive, t);
            if (poisoned)
                deliveryPoisoned_ = true;
            if (cb)
                cb(t);
        };
        dev.access(std::move(req));
    });
}

bool
CacheHierarchy::absorbPoison(std::uint64_t la, Tick t)
{
    if (!faults_ || !faults_->consumePoison())
        return false;
    poisonedLines_.insert(la);
    rasStats_.poisonedFills++;
    faults_->stats().poisonConsumed++;
    if (poisonSink_)
        poisonSink_(paddrOfLine(la), t);
    return true;
}

std::optional<Tick>
CacheHierarchy::writebackIfDirty(std::uint16_t core, std::uint64_t la,
                                 Tick at, bool dirty, Done cb)
{
    const Tick lookup = at + params_.l1.latency + params_.l2.latency
                        + params_.llc.latency;
    if (!dirty)
        return lookup;
    writebackLine(la, core, lookup + params_.uncoreLatency,
                  std::move(cb));
    return std::nullopt;
}

Tick
CacheHierarchy::tlbCharge(std::uint16_t core, Addr paddr)
{
    if (!params_.tlbEnabled)
        return 0;
    const std::uint64_t page = paddr / pageBytes;
    if (l1Tlb_[core].find(page))
        return 0;
    if (l2Tlb_[core].find(page)) {
        ++stlbHits_;
        l1Tlb_[core].insert(page, LineState::Exclusive, core);
        return params_.l2TlbLatency;
    }
    ++tlbWalks_;
    l2Tlb_[core].insert(page, LineState::Exclusive, core);
    l1Tlb_[core].insert(page, LineState::Exclusive, core);
    return params_.pageWalkLatency;
}

void
CacheHierarchy::observeForPrefetch(std::uint16_t core, std::uint64_t la,
                                   Tick at)
{
    auto &table = streams_[core];
    Stream *match = nullptr;
    Stream *lru = &table[0];
    for (Stream &s : table) {
        if (s.valid && s.nextLine == la) {
            match = &s;
            break;
        }
        if (!s.valid || s.lastUse < lru->lastUse)
            lru = &s;
    }
    if (!match) {
        // New potential stream: arm it, fetch nothing yet.
        lru->valid = true;
        lru->nextLine = la + 1;
        lru->lastUse = ++streamClock_;
        return;
    }
    match->nextLine = la + 1;
    match->lastUse = ++streamClock_;

    for (std::uint32_t d = 1; d <= params_.prefetchDegree; ++d) {
        const std::uint64_t target = la + d;
        if (l2_[core].peek(target) || llc_->peek(target))
            continue;
        if (!prefetchInFlight_.insert(target).second)
            continue;
        pfStats_.issued++;
        eq_.schedule(at + params_.uncoreLatency,
                     [this, core, target] {
            Addr local = 0;
            MemoryDevice &dev = numa_.route(paddrOfLine(target), local);
            MemRequest req;
            req.addr = local;
            req.size = cachelineBytes;
            req.cmd = MemCmd::Prefetch;
            req.source = core;
            req.onComplete = [this, core, target](Tick t) {
                prefetchInFlight_.erase(target);
                // A prefetch fill absorbs poison like a demand fill;
                // a later demand hit surfaces it to the consumer.
                absorbPoison(target, t);
                fillLlc(core, target, LineState::Exclusive, t);
                fillL2(core, target, LineState::Exclusive, t, true);
            };
            dev.access(std::move(req));
        });
    }
}

std::optional<Tick>
CacheHierarchy::load(std::uint16_t core, Addr paddr, Tick at, Done cb,
                     TraceSpan *span)
{
    const Tick issued = at;
    at += tlbCharge(core, paddr);
    RequestTracer::mark(span, TraceStage::Cache, at);
    const std::uint64_t la = lineOf(paddr);
    SetAssocCache &l1 = l1_[core];
    SetAssocCache &l2 = l2_[core];

    Tick lat = params_.l1.latency;
    if (l1.find(la)) {
        l1.stats().hits++;
        notePoisonHit(la);
        return hit(issued, at + lat, true);
    }
    l1.stats().misses++;

    lat += params_.l2.latency;
    if (auto line = l2.find(la)) {
        l2.stats().hits++;
        if (params_.prefetchEnabled && line.prefetched()) {
            line.clearPrefetched();
            pfStats_.usefulHits++;
            observeForPrefetch(core, la, at + lat);
        }
        fillL1(core, la,
               line.state() == LineState::Modified ? LineState::Modified
                                                   : LineState::Exclusive,
               at + lat);
        notePoisonHit(la);
        return hit(issued, at + lat, true);
    }
    l2.stats().misses++;
    if (params_.prefetchEnabled)
        observeForPrefetch(core, la, at + lat);

    lat += params_.llc.latency;
    if (auto line = llc_->find(la)) {
        llc_->stats().hits++;
        const LineState st = line.state() == LineState::Modified
                                 ? LineState::Modified
                                 : LineState::Exclusive;
        fillL2(core, la, st, at + lat);
        fillL1(core, la, st, at + lat);
        notePoisonHit(la);
        return hit(issued, at + lat, true);
    }
    llc_->stats().misses++;

    missToMemory(core, la, at + lat + params_.uncoreLatency, false,
                 std::move(cb), span, /*attrib=*/station_ != nullptr,
                 issued);
    return std::nullopt;
}

std::optional<Tick>
CacheHierarchy::store(std::uint16_t core, Addr paddr, Tick at, Done cb,
                      TraceSpan *span)
{
    const Tick issued = at;
    at += tlbCharge(core, paddr);
    RequestTracer::mark(span, TraceStage::Cache, at);
    const std::uint64_t la = lineOf(paddr);
    SetAssocCache &l1 = l1_[core];
    SetAssocCache &l2 = l2_[core];

    Tick lat = params_.l1.latency;
    if (auto line = l1.find(la)) {
        l1.stats().hits++;
        line.setState(LineState::Modified);
        return hit(issued, at + lat, false);
    }
    l1.stats().misses++;

    lat += params_.l2.latency;
    if (auto line = l2.find(la)) {
        l2.stats().hits++;
        const bool was_dirty = line.state() == LineState::Modified;
        fillL1(core, la, LineState::Modified, at + lat);
        if (was_dirty)
            line.setState(LineState::Exclusive); // dirtiness moved to L1
        return hit(issued, at + lat, false);
    }
    l2.stats().misses++;
    if (params_.prefetchEnabled)
        observeForPrefetch(core, la, at + lat);

    lat += params_.llc.latency;
    if (llc_->find(la)) {
        llc_->stats().hits++;
        fillL2(core, la, LineState::Exclusive, at + lat);
        fillL1(core, la, LineState::Modified, at + lat);
        return hit(issued, at + lat, false);
    }
    llc_->stats().misses++;

    // Read-for-ownership: the line is fetched from memory before the
    // store can retire -- the behaviour the paper highlights as the
    // cause of poor temporal-store throughput on CXL.
    missToMemory(core, la, at + lat + params_.uncoreLatency, true,
                 std::move(cb), span, /*attrib=*/false, issued);
    return std::nullopt;
}

void
CacheHierarchy::ntStore(std::uint16_t core, Addr paddr, Tick at,
                        Done onAccept, Done onDrained, TraceSpan *span)
{
    const Tick issued = at;
    at += tlbCharge(core, paddr);
    const std::uint64_t la = lineOf(paddr);
    // A full-line NT store overwrites the line: cached copies are
    // dropped without writeback, and fresh data scrubs any poison.
    l1_[core].invalidate(la);
    l2_[core].invalidate(la);
    llc_->invalidate(la);
    clearPoison(la);

    const Tick dispatch =
        at + params_.ntDispatchLatency + params_.uncoreLatency;
    if (station_)
        station_->passThrough(0, dispatch - issued,
                              dispatch - issued, false, dispatch);
    eq_.schedule(dispatch,
                 [this, core, la, span, onAccept = std::move(onAccept),
                  onDrained = std::move(onDrained)]() mutable {
        Addr local = 0;
        MemoryDevice &dev = numa_.route(paddrOfLine(la), local);
        MemRequest req;
        req.addr = local;
        req.size = cachelineBytes;
        req.cmd = MemCmd::NtWrite;
        req.source = core;
        req.span = span;
        req.onAccept = std::move(onAccept);
        req.onComplete = std::move(onDrained);
        dev.access(std::move(req));
    });
}

void
CacheHierarchy::uncachedRead(std::uint16_t core, Addr paddr,
                             std::uint32_t size, Tick at, Done cb)
{
    const Tick issued = at;
    at += tlbCharge(core, paddr);
    const Tick dispatch =
        at + params_.l1.latency + params_.uncoreLatency;
    const bool attrib = station_ != nullptr;
    if (station_)
        station_->passThrough(0, dispatch - issued,
                              dispatch - issued, attrib, dispatch);
    eq_.schedule(dispatch, [this, core, paddr, size, attrib,
                            cb = std::move(cb)]() mutable {
        Addr local = 0;
        MemoryDevice &dev = numa_.route(paddr, local);
        MemRequest req;
        req.addr = local;
        req.size = size;
        req.cmd = MemCmd::Read;
        req.source = core;
        req.attrib = attrib;
        if (cb)
            req.onComplete = std::move(cb);
        dev.access(std::move(req));
    });
}

std::optional<Tick>
CacheHierarchy::flush(std::uint16_t core, Addr paddr, Tick at, Done cb)
{
    const std::uint64_t la = lineOf(paddr);
    recentlyFlushed_.insert(la);
    clearPoison(la);
    const LineState s1 = l1_[core].invalidate(la);
    const LineState s2 = l2_[core].invalidate(la);
    const LineState sl = llc_->invalidate(la);
    const bool dirty = s1 == LineState::Modified
                       || s2 == LineState::Modified
                       || sl == LineState::Modified;
    return writebackIfDirty(core, la, at, dirty, std::move(cb));
}

std::optional<Tick>
CacheHierarchy::clwb(std::uint16_t core, Addr paddr, Tick at, Done cb)
{
    const std::uint64_t la = lineOf(paddr);
    bool dirty = false;
    for (SetAssocCache *c : {&l1_[core], &l2_[core], llc_.get()}) {
        if (auto l = c->find(la); l && l.state() == LineState::Modified) {
            l.setState(LineState::Exclusive);
            dirty = true;
        }
    }
    return writebackIfDirty(core, la, at, dirty, std::move(cb));
}

void
CacheHierarchy::primeLlcDirty(const NumaBuffer &buf, std::uint16_t owner)
{
    const std::uint64_t lines = buf.size() / cachelineBytes;
    for (std::uint64_t i = 0; i < lines; ++i) {
        const Addr paddr = buf.translate(i * cachelineBytes);
        // Displaced victims are dropped: priming models pre-existing
        // dirty occupancy, not traffic.
        (void)llc_->insert(lineOf(paddr), LineState::Modified, owner);
    }
}

void
CacheHierarchy::flushAllCaches()
{
    for (auto &c : l1_)
        c.flushAll();
    for (auto &c : l2_)
        c.flushAll();
    llc_->flushAll();
    for (auto &c : l1Tlb_)
        c.flushAll();
    for (auto &c : l2Tlb_)
        c.flushAll();
    for (auto &table : streams_)
        for (Stream &s : table)
            s.valid = false;
    prefetchInFlight_.clear();
    recentlyFlushed_.clear();
    poisonedLines_.clear();
    deliveryPoisoned_ = false;
}

} // namespace cxlmemo
