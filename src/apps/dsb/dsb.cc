#include "apps/dsb/dsb.hh"

#include <utility>

#include "cpu/streams.hh"
#include "sim/logging.hh"

namespace cxlmemo
{
namespace dsb
{

Stage::Stage(Machine &machine, std::uint16_t firstCore,
             std::uint32_t workers)
    : machine_(machine)
{
    CXLMEMO_ASSERT(workers > 0, "stage with no workers");
    for (std::uint32_t w = 0; w < workers; ++w) {
        workers_.push_back(machine.makeThread(
            static_cast<std::uint16_t>(firstCore + w)));
        busy_.push_back(false);
    }
}

void
Stage::submit(std::vector<MemOp> ops, Done onDone)
{
    queue_.emplace_back(std::move(ops), std::move(onDone));
    trySchedule();
}

void
Stage::trySchedule()
{
    while (!queue_.empty()) {
        std::size_t idx = workers_.size();
        for (std::size_t w = 0; w < workers_.size(); ++w) {
            if (!busy_[w]) {
                idx = w;
                break;
            }
        }
        if (idx == workers_.size())
            return; // all workers occupied; retried on completion
        auto [ops, done] = std::move(queue_.front());
        queue_.pop_front();
        busy_[idx] = true;
        workers_[idx]->start(
            std::make_unique<ListStream>(std::move(ops)),
            machine_.eq().curTick(),
            [this, idx, done = std::move(done)](Tick, Tick end) mutable {
                ++completed_;
                // The worker is occupied until its logical end (which
                // may be ahead of global time after trailing compute).
                machine_.eq().schedule(end, [this, idx,
                                             done = std::move(done), end] {
                    busy_[idx] = false;
                    if (done)
                        done(end);
                    trySchedule();
                });
            });
    }
}

SocialNetwork::SocialNetwork(Machine &machine, DsbParams params,
                             const MemPolicy &dbPlacement)
    : machine_(machine), params_(params), rng_(0xd5b)
{
    postStore_ = machine.numa().alloc(
        std::uint64_t(params_.numPosts) * params_.postBytes, dbPlacement);
    timelineCache_ = machine.numa().alloc(
        std::uint64_t(params_.numUsers) * params_.timelineBytes,
        dbPlacement);
    homeCache_ = machine.numa().alloc(
        std::uint64_t(params_.numUsers) * params_.timelineBytes,
        dbPlacement);

    std::uint16_t core = 0;
    auto make = [&](std::uint32_t n) {
        auto s = std::make_unique<Stage>(machine, core, n);
        core = static_cast<std::uint16_t>(core + n);
        return s;
    };
    nginx_ = make(params_.nginxWorkers);
    logic_ = make(params_.logicWorkers);
    uniqueId_ = make(params_.uniqueIdWorkers);
    storage_ = make(params_.storageWorkers);
    cache_ = make(params_.cacheWorkers);
    CXLMEMO_ASSERT(core <= machine.numCores(),
                   "stage workers exceed core count");
}

const LatencyHistogram &
SocialNetwork::latency(RequestType type) const
{
    switch (type) {
      case RequestType::ComposePost:
        return composeLat_;
      case RequestType::ReadUserTimeline:
        return readUserLat_;
      case RequestType::ReadHomeTimeline:
        return readHomeLat_;
    }
    CXLMEMO_PANIC("bad request type");
}

std::vector<std::pair<std::string, std::uint64_t>>
SocialNetwork::memoryBreakdown() const
{
    return {
        {"post-storage (db)", postStore_.size()},
        {"user-timeline cache", timelineCache_.size()},
        {"home-timeline cache", homeCache_.size()},
        // Compute components hold code + session state, always local.
        {"nginx (local)", 512 * miB},
        {"application logic (local)", 384 * miB},
    };
}

namespace
{

void
appendCompute(std::vector<MemOp> &ops, Tick t)
{
    ops.push_back({MemOp::Kind::Compute, 0, 0, t});
}

/** Dependent document walk + streaming payload reads. */
void
appendDocRead(std::vector<MemOp> &ops, const NumaBuffer &buf,
              std::uint64_t off, std::uint32_t bytes,
              std::uint32_t depLines)
{
    const std::uint32_t lines = bytes / cachelineBytes;
    for (std::uint32_t l = 0; l < lines; ++l) {
        ops.push_back({l < depLines ? MemOp::Kind::DependentLoad
                                    : MemOp::Kind::Load,
                       buf.translate(off + std::uint64_t(l)
                                           * cachelineBytes),
                       0, 0});
    }
}

/** Lookup walk + document write. */
void
appendDocWrite(std::vector<MemOp> &ops, const NumaBuffer &buf,
               std::uint64_t off, std::uint32_t bytes)
{
    // Index/lookup hops before the write.
    ops.push_back({MemOp::Kind::DependentLoad, buf.translate(off), 0, 0});
    ops.push_back({MemOp::Kind::DependentLoad,
                   buf.translate(off + cachelineBytes), 0, 0});
    const std::uint32_t lines = bytes / cachelineBytes;
    for (std::uint32_t l = 0; l < lines; ++l) {
        ops.push_back({MemOp::Kind::Store,
                       buf.translate(off + std::uint64_t(l)
                                           * cachelineBytes),
                       0, 0});
    }
}

} // namespace

std::vector<MemOp>
SocialNetwork::postReadOps(std::uint64_t post) const
{
    std::vector<MemOp> ops;
    appendDocRead(ops, postStore_, post * params_.postBytes,
                  params_.postBytes, /*depLines=*/4);
    return ops;
}

std::vector<MemOp>
SocialNetwork::postWriteOps(std::uint64_t post) const
{
    std::vector<MemOp> ops;
    // MongoDB-like insert: index traversal + document + index update.
    for (int hop = 0; hop < 6; ++hop) {
        ops.push_back({MemOp::Kind::DependentLoad,
                       postStore_.translate(
                           rng_.below(params_.numPosts)
                           * params_.postBytes),
                       0, 0});
    }
    appendDocWrite(ops, postStore_, post * params_.postBytes,
                   params_.postBytes);
    return ops;
}

std::vector<MemOp>
SocialNetwork::timelineReadOps(std::uint64_t user) const
{
    std::vector<MemOp> ops;
    appendDocRead(ops, timelineCache_, user * params_.timelineBytes,
                  params_.timelineBytes, /*depLines=*/3);
    return ops;
}

std::vector<MemOp>
SocialNetwork::timelineUpdateOps(std::uint64_t user) const
{
    std::vector<MemOp> ops;
    // ZADD into the follower's timeline sorted set: a skiplist
    // descent (dependent hops over the cache's working set) before
    // the entry write.
    for (std::uint32_t hop = 0; hop < params_.skiplistDepth; ++hop) {
        ops.push_back({MemOp::Kind::DependentLoad,
                       timelineCache_.translate(
                           rng_.below(params_.numUsers)
                           * params_.timelineBytes),
                       0, 0});
    }
    appendDocWrite(ops, timelineCache_, user * params_.timelineBytes,
                   params_.timelineBytes);
    return ops;
}

void
SocialNetwork::submit(RequestType type)
{
    const Tick arrival = machine_.eq().curTick();
    switch (type) {
      case RequestType::ComposePost:
        composePost(arrival);
        break;
      case RequestType::ReadUserTimeline:
        readUserTimeline(arrival);
        break;
      case RequestType::ReadHomeTimeline:
        readHomeTimeline(arrival);
        break;
    }
}

void
SocialNetwork::composePost(Tick arrival)
{
    std::vector<MemOp> nginx_ops;
    appendCompute(nginx_ops, params_.nginxCompute);
    nginx_->submit(std::move(nginx_ops), [this, arrival](Tick) {
        std::vector<MemOp> logic_ops;
        appendCompute(logic_ops, params_.logicCompute);
        logic_->submit(std::move(logic_ops), [this, arrival](Tick) {
            std::vector<MemOp> uid_ops;
            appendCompute(uid_ops, params_.uniqueIdCompute);
            uniqueId_->submit(std::move(uid_ops), [this, arrival](Tick) {
                // Store the post document.
                const std::uint64_t post = rng_.below(params_.numPosts);
                std::vector<MemOp> st = postWriteOps(post);
                appendCompute(st, params_.storageCompute);
                storage_->submit(std::move(st), [this, arrival](Tick) {
                    // Fan the post out to followers' timelines.
                    std::vector<MemOp> ca;
                    for (std::uint32_t f = 0;
                         f < params_.followersPerPost; ++f) {
                        auto upd = timelineUpdateOps(
                            rng_.below(params_.numUsers));
                        ca.insert(ca.end(), upd.begin(), upd.end());
                    }
                    appendCompute(ca, params_.cacheCompute);
                    cache_->submit(std::move(ca),
                                   [this, arrival](Tick end) {
                        composeLat_.record((end - arrival)
                                           / tickPerNs);
                    });
                });
            });
        });
    });
}

void
SocialNetwork::readUserTimeline(Tick arrival)
{
    std::vector<MemOp> nginx_ops;
    appendCompute(nginx_ops, params_.nginxCompute);
    nginx_->submit(std::move(nginx_ops), [this, arrival](Tick) {
        std::vector<MemOp> logic_ops;
        appendCompute(logic_ops, params_.logicCompute);
        logic_->submit(std::move(logic_ops), [this, arrival](Tick) {
            // Timeline lookup in the cache...
            const std::uint64_t user = rng_.below(params_.numUsers);
            std::vector<MemOp> ca = timelineReadOps(user);
            appendCompute(ca, params_.cacheCompute);
            cache_->submit(std::move(ca), [this, arrival](Tick) {
                // ...then fetch the referenced posts from storage.
                std::vector<MemOp> st;
                for (std::uint32_t p = 0; p < params_.postsPerTimeline;
                     ++p) {
                    auto rd = postReadOps(rng_.below(params_.numPosts));
                    st.insert(st.end(), rd.begin(), rd.end());
                }
                appendCompute(st, params_.storageCompute);
                storage_->submit(std::move(st),
                                 [this, arrival](Tick end) {
                    readUserLat_.record((end - arrival) / tickPerNs);
                });
            });
        });
    });
}

void
SocialNetwork::readHomeTimeline(Tick arrival)
{
    // Served entirely from the home-timeline cache; it never touches
    // the databases (which is why the paper omits its figure).
    std::vector<MemOp> nginx_ops;
    appendCompute(nginx_ops, params_.nginxCompute);
    nginx_->submit(std::move(nginx_ops), [this, arrival](Tick) {
        const std::uint64_t user = rng_.below(params_.numUsers);
        std::vector<MemOp> ca;
        appendDocRead(ca, homeCache_, user * params_.timelineBytes,
                      params_.timelineBytes, /*depLines=*/3);
        appendCompute(ca, params_.cacheCompute);
        cache_->submit(std::move(ca), [this, arrival](Tick end) {
            readHomeLat_.record((end - arrival) / tickPerNs);
        });
    });
}

DsbRunResult
runDsb(double composeFrac, double readUserFrac, double readHomeFrac,
       bool dbOnCxl, double qps, double durationSec,
       const DsbParams &params, std::uint64_t seed)
{
    CXLMEMO_ASSERT(
        std::abs(composeFrac + readUserFrac + readHomeFrac - 1.0) < 1e-9,
        "workload mix must sum to 1");
    Machine m(Testbed::SingleSocketCxl);
    const MemPolicy placement =
        dbOnCxl ? MemPolicy::membind(m.cxlNode())
                : MemPolicy::membind(m.localNode());
    SocialNetwork app(m, params, placement);

    Rng rng(seed);
    const double mean_gap_ns = 1e9 / qps;
    const Tick horizon = ticksFromSec(durationSec);
    std::uint64_t injected = 0;

    struct Client
    {
        Machine *m;
        SocialNetwork *app;
        Rng *rng;
        double composeFrac;
        double readUserFrac;
        double meanGapNs;
        Tick horizon;
        std::uint64_t *injected;

        void
        arrive()
        {
            const double p = rng->uniform();
            RequestType t = RequestType::ReadHomeTimeline;
            if (p < composeFrac)
                t = RequestType::ComposePost;
            else if (p < composeFrac + readUserFrac)
                t = RequestType::ReadUserTimeline;
            app->submit(t);
            ++(*injected);
            const Tick next =
                m->eq().curTick()
                + ticksFromNs(rng->exponential(meanGapNs));
            if (next < horizon)
                m->eq().schedule(next, [this] { arrive(); });
        }
    };
    Client client{&m,   &app,          &rng,    composeFrac,
                  readUserFrac, mean_gap_ns, horizon, &injected};
    m.eq().schedule(ticksFromNs(rng.exponential(mean_gap_ns)),
                    [&client] { client.arrive(); });
    m.eq().run();

    DsbRunResult res;
    res.offeredQps = qps;
    res.achievedQps =
        static_cast<double>(injected) / secFromTicks(m.eq().curTick());
    if (app.latency(RequestType::ComposePost).count() > 0)
        res.p99ComposeMs =
            app.latency(RequestType::ComposePost).p99() / 1e6;
    if (app.latency(RequestType::ReadUserTimeline).count() > 0)
        res.p99ReadUserMs =
            app.latency(RequestType::ReadUserTimeline).p99() / 1e6;
    if (app.latency(RequestType::ReadHomeTimeline).count() > 0)
        res.p99ReadHomeMs =
            app.latency(RequestType::ReadHomeTimeline).p99() / 1e6;
    return res;
}

} // namespace dsb
} // namespace cxlmemo
