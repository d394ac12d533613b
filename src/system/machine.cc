#include "system/machine.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "sim/logging.hh"
#include "sim/pool.hh"

namespace cxlmemo
{

namespace testbed_params
{

/*
 * Calibration provenance
 * ----------------------
 * The absolute constants below come from public datasheets (DDR5-4800
 * / DDR4-2666 timings, PCIe Gen5 x16 and UPI rates) and are then
 * jointly calibrated so the end-to-end *idle latencies* and *peak
 * bandwidths* land on the figures the paper reports:
 *
 *   local DDR5 load-to-use        ~ 105-115 ns
 *   remote-socket (1 hop) load    ~ 1.5-1.7x local
 *   CXL (Agilex-I) load           ~ 3.5-3.9x local for pointer chase
 *                                   (paper Fig. 2: 3.7x), dominated by
 *                                   the FPGA controller pipeline
 *   local 8-channel load peak     ~ 221 GB/s at ~26 threads
 *   local 8-channel nt-store peak ~ 170 GB/s
 *   CXL sequential load peak      ~ 21 GB/s (DDR4-2666 = 21.3 GB/s
 *                                   theoretical), degrading to ~17 at
 *                                   high thread counts
 */

DramChannelParams
localDdr5Channel()
{
    DramChannelParams p;
    p.name = "ddr5-local";
    p.peakGBps = 38.4;       // DDR5-4800, 8 B bus
    p.busEfficiency = 0.72;  // sustained/peak of SPR iMC under load
    p.tRowHit = ticksFromNs(15.0);
    p.tRowMiss = ticksFromNs(46.0); // tRP+tRCD+tCL at 4800 MT/s
    p.tBankCycle = ticksFromNs(48.0); // tRC
    p.tWriteRecovery = ticksFromNs(15.0);
    p.tTurnaround = ticksFromNs(7.5);
    p.tFrontend = ticksFromNs(10.0);
    p.numBanks = 32;         // bank groups x banks visible to the iMC
    p.rowBytes = 8 * kiB;
    p.scanDepth = 16;        // deep OoO scheduler in the iMC
    p.maxHitRun = 16;
    p.ntPostedEntries = 32;  // iMC write-pending queue share
    p.writeEfficiency = 0.77; // tWTR/turnaround derating of writes
    return p;
}

DramChannelParams
remoteDdr5Channel()
{
    DramChannelParams p = localDdr5Channel();
    p.name = "ddr5-remote";
    p.busEfficiency = 0.80;  // single channel, no cross-channel mixing
    return p;
}

DramChannelParams
cxlDdr4Channel()
{
    DramChannelParams p;
    p.name = "ddr4-cxl";
    p.peakGBps = 21.3;       // DDR4-2666
    p.busEfficiency = 0.97;  // paper: nt-store reaches theoretical max
    p.tRowHit = ticksFromNs(14.0);
    // The Agilex EMIF runs at a quarter-rate user clock; the bank
    // cycle (precharge+activate plus controller bookkeeping) costs
    // far more than an ASIC controller's, which is what pulls the
    // channel below its bus peak once interleaved streams defeat the
    // open rows (Fig. 3b's decline beyond ~12 threads).
    p.tRowMiss = ticksFromNs(70.0);
    p.tBankCycle = ticksFromNs(56.0); // EMIF bank machine @ user clock
    p.tWriteRecovery = ticksFromNs(22.0);
    p.tTurnaround = ticksFromNs(10.0);
    p.tFrontend = ticksFromNs(25.0);
    p.numBanks = 16;
    p.rowBytes = 8 * kiB;
    p.bankStripeBytes = 2 * kiB;
    p.scanDepth = 6;         // FPGA-grade shallow scheduler
    p.maxHitRun = 8;
    p.maxDirectionRun = 8;
    // EMIF writes pipeline slightly worse than reads; this gives the
    // C2D > D2C asymmetry the paper attributes to "lower write
    // latency on DRAM" (Fig. 4b).
    p.writeEfficiency = 0.90;
    return p;
}

CxlDeviceParams
agilexCxlDevice()
{
    CxlDeviceParams p;
    p.name = "cxl0";
    p.link.rawGBps = 63.0;             // PCIe Gen5 x16
    p.link.flitEfficiency = 64.0 / 68.0;
    p.link.propagation = ticksFromNs(12.0);
    p.link.headerBytes = 17;
    p.link.dataBytes = 85;
    // R-tile hard IP + SIP bridge + EMIF clock-domain crossings; this
    // pair dominates the 3.7x pointer-chase ratio of Fig. 2.
    p.controllerIngress = ticksFromNs(85.0);
    p.controllerEgress = ticksFromNs(108.0);
    p.readQueueEntries = 48;
    p.writeBufferEntries = 40;
    p.backend = cxlDdr4Channel();
    return p;
}

UpiParams
uiPathToRemote()
{
    UpiParams p;
    p.name = "remote0";
    p.linkGBps = 48.0;
    p.hopLatency = ticksFromNs(32.0);
    p.headerBytes = 16;
    p.numChannels = 1; // the paper's DDR5-R1 comparison point
    p.channel = remoteDdr5Channel();
    return p;
}

HierarchyParams
sprHierarchy(std::uint32_t numCores)
{
    HierarchyParams h;
    h.numCores = numCores;
    h.l1 = CacheParams{"l1d", 48 * kiB, 12, ticksFromNs(2.5)};
    h.l2 = CacheParams{"l2", 2 * miB, 16, ticksFromNs(8.0)};
    h.llc = CacheParams{"llc", 60 * miB, 15, ticksFromNs(22.0)};
    h.uncoreLatency = ticksFromNs(12.0);
    h.ntDispatchLatency = ticksFromNs(6.0);
    h.prefetchEnabled = false;
    h.prefetchDegree = 8;
    h.prefetchStreams = 16;
    // Calibrated so the flush+load probe lands ~1.25x above the
    // pointer-chase latency on direct DRAM (paper Fig. 2 and [31]).
    h.flushHandshakePenalty = ticksFromNs(110.0);
    return h;
}

CoreParams
sprCore()
{
    CoreParams c;
    c.issueCost = ticksFromNs(0.4);
    c.loadFillBuffers = 16;
    c.wcBuffers = 8;
    // The architectural store buffer is deeper, but RFO fills go
    // through the same fill buffers as loads; this is the effective
    // store MLP, not the store-buffer capacity.
    c.storeBufferEntries = 14;
    return c;
}

} // namespace testbed_params

namespace
{

/*
 * Parallel domain decomposition
 * -----------------------------
 * When MachineOptions::simThreads > 0 the machine is partitioned into
 * simulation domains, each with a private EventQueue driven by the
 * conservative window engine (sim/parallel.hh):
 *
 *   rank 0              host socket: cores, caches, DSA, throttle,
 *                       metrics, watchdog, host-side fault injector
 *   ranks 1..C          one per local DDR5 channel
 *   next rank           the remote socket (UPI + its DDR5), if any
 *   last rank           the CXL device (links, controller, DDR4)
 *
 * The lookahead is 5 ns, and the genuine cross-domain latencies are
 * *re-partitioned* so the end-to-end uncontended path is tick-exact
 * despite the two lookahead crossings a round trip pays:
 *
 *   local DDR5   tFrontend 10 ns -> 0    (absorbs both crossings)
 *   CXL link     propagation 12 ns -> 7  (absorbs one per direction)
 *   UPI hop      32 ns -> 27             (absorbs one per direction)
 *
 * Every cross-domain post therefore carries >= L of genuine latency
 * and the executor's window floor never engages (clampedPosts == 0).
 */
constexpr Tick kDomainLookahead = ticksFromNs(5.0);

/** splitmix-style decorrelation of the device-domain fault stream
 *  from the host-side injector's seed. */
constexpr std::uint64_t kDevFaultSeedSalt = 0x9e3779b97f4a7c15ULL;

/**
 * Host-side stand-in for a device that lives in another simulation
 * domain: a local DRAM channel (routed by InterleavedMemory), the
 * remote socket or the CXL device (registered in the NUMA space).
 * Relays the access into the device's domain (one lookahead
 * crossing), relays acceptance and completion back (another
 * crossing), and replays the device-side poison verdict into the
 * host-side injector so the cache hierarchy's consumption protocol is
 * unchanged.
 */
class DomainProxy final : public MemoryDevice
{
  public:
    DomainProxy(ParallelExecutor &exec, EventQueue &hostEq,
                std::uint32_t rank, MemoryDevice &target, Tick lookahead,
                FaultInjector *hostFaults, FaultInjector *devFaults)
        : exec_(exec), hostEq_(hostEq), rank_(rank), target_(target),
          la_(lookahead), hostFaults_(hostFaults), devFaults_(devFaults)
    {
    }

    const std::string &name() const override { return target_.name(); }

    void
    access(MemRequest req) override
    {
        // Wrap even a null onComplete when the device can poison: the
        // verdict must travel back to arm the host-side injector.
        if (req.onComplete || devFaults_) {
            req.onComplete = [this, cb = std::move(req.onComplete)](
                                 Tick t) mutable {
                // Device side. The device arms poison immediately
                // before invoking the completion, so consuming here
                // captures the verdict (and keeps the device's own
                // delivered-unconsumed check quiet).
                const bool poisoned =
                    devFaults_ && devFaults_->consumePoison();
                exec_.post(rank_, 0, t + la_,
                           [this, poisoned,
                            cb = std::move(cb)](Tick at) mutable {
                               deliver(poisoned, std::move(cb), at);
                           });
            };
        }
        if (req.onAccept) {
            req.onAccept = [this, ac = std::move(req.onAccept)](
                               Tick t) mutable {
                exec_.post(rank_, 0, t + la_,
                           [ac = std::move(ac)](Tick at) mutable {
                               ac(at);
                           });
            };
        }
        exec_.post(0, rank_, hostEq_.curTick() + la_,
                   [this, r = std::move(req)](Tick) mutable {
                       target_.access(std::move(r));
                   });
    }

  private:
    void
    deliver(bool poisoned, MemRequest::Callback cb, Tick at)
    {
        if (poisoned)
            hostFaults_->armPoison();
        if (cb)
            cb(at);
        // Anything not absorbed by the cache hierarchy reached a
        // non-caching consumer (mirrors the device-side check).
        if (poisoned && hostFaults_->consumePoison()) {
            hostFaults_->stats().poisonDelivered++;
            CXLMEMO_WARN_RATELIMITED(8,
                "%s: poisoned line delivered to non-caching consumer",
                target_.name().c_str());
        }
    }

    ParallelExecutor &exec_;
    EventQueue &hostEq_;
    std::uint32_t rank_;
    MemoryDevice &target_;
    Tick la_;
    FaultInjector *hostFaults_;
    FaultInjector *devFaults_;
};

} // namespace

std::uint32_t
testbedCores(Testbed testbed)
{
    return testbed == Testbed::DualSocket ? 40 : 32;
}

Machine::Machine(Testbed testbed, MachineOptions opts)
{
    using namespace testbed_params;

    const std::uint32_t cores = testbedCores(testbed);
    std::uint32_t local_channels = 8;
    std::uint64_t local_capacity = 128 * giB;
    std::uint64_t llc_bytes = 60 * miB;
    bool with_remote = false;
    bool with_cxl = true;

    switch (testbed) {
      case Testbed::SingleSocketCxl:
        name_ = "spr-6414u+agilex";
        break;
      case Testbed::DualSocket:
        name_ = "2x-spr-8460h+agilex";
        local_capacity = 128 * giB;
        llc_bytes = 105 * miB;
        with_remote = true;
        break;
      case Testbed::SncQuadrantCxl:
        name_ = "spr-6414u-snc+agilex";
        local_channels = 2;  // one SNC quadrant's iMCs
        local_capacity = 32 * giB;
        llc_bytes = 15 * miB; // one LLC slice
        break;
    }

    // The fault model covers the CXL path only (the paper's device
    // under test); local/remote DDR5 stays healthy. No injector is
    // created when every rate is zero, so the disabled configuration
    // is byte-identical to a machine without the RAS layer. A chaos
    // schedule needs the injector's poison hand-off protocol even at
    // all-zero rates (containment accounting rides it); a zero-rate
    // injector never draws from its RNG, so it stays deterministic.
    if (opts.faults.enabled() || opts.chaos.enabled())
        faults_ = std::make_unique<FaultInjector>(opts.faults);

    const bool par = opts.simThreads > 0;
    if (par) {
        // Sampled tracing exports spans in completion order, which is
        // executor-timing dependent, so it stays classic-only. Tail
        // capture (obs.tailK) is fine here: a span is touched by one
        // domain at a time (marks follow the request's causal chain,
        // handoffs synchronize through the executor posts) and the
        // retained worst-K set is completion-order independent by
        // construction.
        if (opts.obs.traceSampleEvery > 0)
            throw std::invalid_argument(
                "Machine: request-lifecycle tracing requires the "
                "single-queue engine (simThreads = 0)");
        lookahead_ = kDomainLookahead;
        // The device domain draws fault decisions from its own
        // decorrelated stream; the host injector keeps serving the
        // hierarchy's consumption protocol. The fault *pattern* thus
        // differs from the single-queue engine, but is a pure
        // function of the spec -- identical at every thread count.
        if (faults_) {
            FaultSpec ds = opts.faults;
            ds.seed = opts.faults.seed ^ kDevFaultSeedSalt;
            devFaults_ = std::make_unique<FaultInjector>(ds);
        }
        // All domain queues and the executor exist before any device,
        // so devices can be built directly on their domain's queue.
        const std::uint32_t numDomains = 1 + local_channels
                                         + (with_remote ? 1u : 0u)
                                         + (with_cxl ? 1u : 0u);
        std::vector<EventQueue *> ranks;
        ranks.reserve(numDomains);
        ranks.push_back(&eq_);
        for (std::uint32_t d = 1; d < numDomains; ++d) {
            domainQueues_.push_back(std::make_unique<EventQueue>());
            ranks.push_back(domainQueues_.back().get());
        }
        std::uint32_t nextRank = 1 + local_channels;
        if (with_remote)
            remoteRank_ = nextRank++;
        if (with_cxl)
            cxlRank_ = nextRank++;
        exec_ = std::make_unique<ParallelExecutor>(
            std::move(ranks), lookahead_, opts.simThreads);
    }

    DramChannelParams lp = localDdr5Channel();
    std::vector<EventQueue *> chQueues;
    if (par) {
        // The channel front-end absorbs both lookahead crossings of a
        // round trip, keeping end-to-end latency tick-exact.
        lp.tFrontend -= std::min(lp.tFrontend, 2 * lookahead_);
        for (std::uint32_t ch = 0; ch < local_channels; ++ch)
            chQueues.push_back(domainQueues_[ch].get());
    }
    local_ = std::make_unique<InterleavedMemory>(
        eq_, "ddr5-l" + std::to_string(local_channels), lp,
        local_channels, 256, nullptr, chQueues);
    localNode_ = numa_.addNode("local-ddr5", local_.get(), local_capacity);
    if (par) {
        // Each channel is its own domain, reached through a proxy
        // like the remote socket and the CXL device below.
        for (std::uint32_t ch = 0; ch < local_channels; ++ch) {
            proxies_.push_back(std::make_unique<DomainProxy>(
                *exec_, eq_, 1 + ch, local_->channel(ch), lookahead_,
                nullptr, nullptr));
            local_->routeChannel(ch, *proxies_.back());
        }
    }

    if (with_remote) {
        UpiParams up = uiPathToRemote();
        EventQueue *remoteEq = &eq_;
        if (par) {
            // Each direction's hop absorbs one lookahead crossing.
            up.hopLatency -= std::min(up.hopLatency, lookahead_);
            remoteEq = domainQueues_[remoteRank_ - 1].get();
        }
        remote_ = std::make_unique<UpiRemoteMemory>(*remoteEq, up);
        MemoryDevice *remoteFace = remote_.get();
        if (par) {
            proxies_.push_back(std::make_unique<DomainProxy>(
                *exec_, eq_, remoteRank_, *remote_, lookahead_,
                nullptr, nullptr));
            remoteFace = proxies_.back().get();
        }
        remoteNode_ = numa_.addNode("remote-ddr5", remoteFace, 128 * giB);
    }
    if (with_cxl) {
        CxlDeviceParams cp =
            opts.cxlDevice ? *opts.cxlDevice : agilexCxlDevice();
        EventQueue *cxlEq = &eq_;
        FaultInjector *cxlFaults = faults_.get();
        if (par) {
            // Each direction's propagation absorbs one crossing.
            cp.link.propagation =
                cp.link.propagation
                - std::min(cp.link.propagation, lookahead_);
            cxlEq = domainQueues_[cxlRank_ - 1].get();
            cxlFaults = devFaults_.get();
        }
        cxl_ = std::make_unique<CxlMemDevice>(*cxlEq, cp, cxlFaults,
                                              opts.qos);
        qosSpec_ = opts.qos;
        MemoryDevice *cxlFace = cxl_.get();
        if (par) {
            proxies_.push_back(std::make_unique<DomainProxy>(
                *exec_, eq_, cxlRank_, *cxl_, lookahead_,
                faults_.get(), devFaults_.get()));
            cxlFace = proxies_.back().get();
        }
        cxlNode_ = numa_.addNode("cxl-dram", cxlFace, 16 * giB,
                                 /*hasCpu=*/false);
        // The flushed-line handshake happens at the host home agent
        // and applies to HDM-backed lines as well (NumaNode default).
    }

    HierarchyParams h = sprHierarchy(cores);
    h.llc.sizeBytes = llc_bytes;
    h.prefetchEnabled = opts.prefetchEnabled;
    h.tlbEnabled = opts.tlbEnabled;
    caches_ = std::make_unique<CacheHierarchy>(eq_, numa_, h);
    if (faults_)
        caches_->setFaultInjector(faults_.get());
    if (cxl_ && qosSpec_.policy != QosPolicy::None) {
        throttle_ = std::make_unique<HostThrottle>(qosSpec_, cores);
        // The throttle lives host-side (cores consult it when
        // issuing); on the parallel engine DevLoad samples piggybacked
        // on S2M responses cross the domain boundary like any other
        // event.
        cxl_->setLoadSink([this](DevLoad level, Tick at) {
            if (!exec_) {
                throttle_->observe(level, at);
                return;
            }
            exec_->post(cxlRank_, 0, at + lookahead_,
                        [this, level](Tick t) {
                            throttle_->observe(level, t);
                        });
        });
        caches_->setQosThrottle(throttle_.get(), cxlNode_);
    }
    // The watchdog and the metrics sampler share one observer clock:
    // snapshots on the host queue, fenced on the parallel engine.
    const ObserverClock clock(eq_, exec_.get());
    if (opts.watchdogInterval > 0) {
        WatchdogParams wp;
        wp.interval = opts.watchdogInterval;
        watchdog_ = std::make_unique<Watchdog>(clock, wp);
        if (cxl_) {
            cxl_->enableProgressTracking();
            watchdog_->watch(cxl_.get());
        }
        watchdog_->arm();
    }

    // Failure lifecycle. The device owns the link/removal FSMs (they
    // run on its own domain queue, so the schedule is identical at
    // every thread count); the host owns the page ledger and the NUMA
    // offline/online reaction, which it schedules at the same absolute
    // ticks as the device-side transitions.
    if (opts.chaos.enabled() && cxl_) {
        chaosSpec_ = opts.chaos;
        cxl_->armChaos(opts.chaos);
        if (watchdog_) {
            if (par) {
                // Announcements originate in the device domain; relay
                // them to the host like any other cross-domain event.
                cxl_->setChaosAnnounce(
                    [this](Tick at, const std::string &text) {
                        exec_->post(cxlRank_, 0, at + lookahead_,
                                    [this, at, text](Tick) {
                                        watchdog_->noteEvent(at, text);
                                    });
                    });
            } else {
                cxl_->setChaosAnnounce(
                    [this](Tick at, const std::string &text) {
                        watchdog_->noteEvent(at, text);
                    });
            }
        }
        if (opts.chaos.removeAtNs > 0) {
            const Tick off = ticksFromNs(
                static_cast<double>(opts.chaos.removeAtNs));
            eq_.schedule(off + (par ? lookahead_ : 0), [this] {
                numa_.setNodeOnline(cxlNode_, false);
                if (cxlHotplugHook_)
                    cxlHotplugHook_(eq_.curTick(), false);
            });
        }
        if (opts.chaos.readdAtNs > 0) {
            const Tick on = ticksFromNs(
                static_cast<double>(opts.chaos.readdAtNs));
            eq_.schedule(on + (par ? lookahead_ : 0), [this] {
                numa_.setNodeOnline(cxlNode_, true);
                if (cxlHotplugHook_)
                    cxlHotplugHook_(eq_.curTick(), true);
            });
        }
        if (opts.chaos.offlineThreshold > 0) {
            failureHandler_ = std::make_unique<MemoryFailureHandler>(
                opts.chaos.offlineThreshold, opts.chaos.maxOfflinePages);
            // The ledger tracks the device under test only; healthy
            // DDR5 poison (never injected today) would stay on the
            // kernel's classic hard-offline path.
            caches_->setPoisonSink([this](Addr paddr, Tick t) {
                if (nodeOfPaddr(paddr) == cxlNode_)
                    failureHandler_->notePoison(paddr, t);
            });
            if (watchdog_) {
                failureHandler_->addOfflineHook(
                    [this](Addr page, Tick at) -> std::uint64_t {
                        char buf[64];
                        std::snprintf(buf, sizeof(buf),
                                      "page 0x%llx offlined",
                                      static_cast<unsigned long long>(
                                          page));
                        watchdog_->noteEvent(at, buf);
                        return 0;
                    });
            }
        }
    }

    // Flight recorder. Everything below is opt-in: the default
    // ObservabilityOptions builds none of it, cores see a null tracer
    // and the devices' histogram pointers stay null, so the disabled
    // configuration is bit-identical to a build without this layer.
    tracer_ = RequestTracer::fromOptions(opts.obs);
    if (tracer_) {
        caches_->setTracer(tracer_.get());
        if (watchdog_) {
            watchdog_->addPostMortem(
                [this] { return tracer_->postMortem(eq_.curTick()); });
        }
    }
    if (opts.obs.latencyHistograms) {
        local_->enableLatencyHistogram();
        if (remote_)
            remote_->enableLatencyHistogram();
        if (cxl_)
            cxl_->enableLatencyHistogram();
    }
    if (opts.obs.metricsInterval > 0) {
        metrics_ = std::make_unique<MetricsRegistry>();
        registerMetrics();
        sampler_ = std::make_unique<MetricsSampler>(
            clock, *metrics_, opts.obs.metricsInterval);
        sampler_->arm();
    }

    dsa_ = std::make_unique<Dsa>(eq_, numa_, DsaParams{});
    coreParams_ = sprCore();

    // Exhaustive latency accounting. Off by default: no board, every
    // instrumentation site is a null-pointer test, and enabling it
    // never schedules events -- so simulated timing is bit-identical
    // either way.
    if (opts.obs.attribution) {
        attrib_ = std::make_unique<AttributionBoard>(eq_.curTick());
        attrib_->setServers(StationId::CoreLfb, cores, /*buffer=*/true);
        // The lookup pipeline serves up to one access per outstanding
        // miss buffer per core; utilization is relative to the
        // machine's full memory-level parallelism.
        attrib_->setServers(StationId::Cache,
                            cores * coreParams_.loadFillBuffers);
        std::uint32_t dram_channels = local_->numChannels();
        if (remote_)
            dram_channels += remote_->params().numChannels;
        attrib_->setServers(StationId::Dram, dram_channels);
        attrib_->setServers(StationId::Dsa, dsa_->params().numEngines);
        caches_->setStation(&attrib_->station(StationId::Cache));
        dsa_->setStation(&attrib_->station(StationId::Dsa));
        if (!par) {
            local_->setStation(&attrib_->station(StationId::Dram));
            if (remote_) {
                remote_->setStation(&attrib_->station(StationId::Upi));
                remote_->setDramStation(
                    &attrib_->station(StationId::Dram));
            }
            if (cxl_)
                cxl_->setAttribution(attrib_.get());
        } else {
            // Stations owned by other domains go on per-domain shard
            // boards (accounting is single-threaded within a domain);
            // attribSnapshot() merges them back. The host board keeps
            // the request bracket (cores) and the Cache/Dsa stations.
            shardBoards_.resize(exec_->numDomains());
            for (std::uint32_t ch = 0; ch < local_->numChannels();
                 ++ch) {
                auto &b = shardBoards_[1 + ch];
                b = std::make_unique<AttributionBoard>(0);
                local_->channel(ch).setStation(
                    &b->station(StationId::Dram));
            }
            if (remote_) {
                auto &b = shardBoards_[remoteRank_];
                b = std::make_unique<AttributionBoard>(0);
                remote_->setStation(&b->station(StationId::Upi));
                remote_->setDramStation(&b->station(StationId::Dram));
            }
            if (cxl_) {
                auto &b = shardBoards_[cxlRank_];
                b = std::make_unique<AttributionBoard>(0);
                cxl_->setAttribution(b.get());
            }
        }
        if (watchdog_) {
            watchdog_->addPostMortem(
                [this] { return attribSnapshot().postMortem(); });
        }
    }
}

void
Machine::run()
{
    if (exec_)
        exec_->run();
    else
        eq_.run();
}

bool
Machine::runUntil(Tick limit)
{
    return exec_ ? exec_->run(limit) : eq_.runUntil(limit);
}

const RasStats *
Machine::rasStats() const
{
    if (!faults_)
        return nullptr;
    if (!devFaults_)
        return &faults_->stats();
    rasMerged_ = faults_->stats();
    rasMerged_.merge(devFaults_->stats());
    return &rasMerged_;
}

ChaosStats
Machine::chaosStats() const
{
    ChaosStats s;
    if (cxl_)
        s = cxl_->chaosStats();
    if (failureHandler_)
        s.merge(failureHandler_->stats());
    return s;
}

AttribSnapshot
Machine::attribSnapshot() const
{
    CXLMEMO_ASSERT(attrib_ != nullptr,
                   "attribSnapshot without obs.attribution");
    AttribSnapshot snap = attrib_->snapshot(eq_.curTick());
    for (const auto &b : shardBoards_) {
        if (!b)
            continue;
        AttribSnapshot s = b->snapshot(eq_.curTick());
        // The shards cover the *same* window as the host board, not a
        // disjoint one; merging must not double the elapsed time.
        s.elapsed = 0;
        snap.merge(s);
    }
    return snap;
}

void
Machine::registerMetrics()
{
    MetricsRegistry &m = *metrics_;
    m.addCounter("eq.events", [this] { return eq_.eventsExecuted(); });

    m.addCounter("local.reads",
                 [this] { return local_->stats().reads; });
    m.addCounter("local.writes",
                 [this] { return local_->stats().writes; });
    m.addCounter("local.bytes_read",
                 [this] { return local_->stats().bytesRead; });
    m.addCounter("local.bytes_written",
                 [this] { return local_->stats().bytesWritten; });
    m.addCounter("local.row_hits",
                 [this] { return local_->stats().rowHits; });
    m.addCounter("local.row_misses",
                 [this] { return local_->stats().rowMisses; });

    m.addCounter("llc.hits",
                 [this] { return caches_->llcStats().hits; });
    m.addCounter("llc.misses",
                 [this] { return caches_->llcStats().misses; });
    m.addCounter("llc.dirty_evictions",
                 [this] { return caches_->llcStats().dirtyEvictions; });

    if (remote_) {
        m.addCounter("remote.reads",
                     [this] { return remote_->stats().reads; });
        m.addCounter("remote.writes",
                     [this] { return remote_->stats().writes; });
        m.addCounter("upi.bytes_down",
                     [this] { return remote_->bytesDown(); });
        m.addCounter("upi.bytes_up",
                     [this] { return remote_->bytesUp(); });
    }
    if (cxl_) {
        m.addCounter("cxl.reads",
                     [this] { return cxl_->backendStats().reads; });
        m.addCounter("cxl.writes",
                     [this] { return cxl_->backendStats().writes; });
        m.addCounter("cxl.row_hits",
                     [this] { return cxl_->backendStats().rowHits; });
        m.addCounter("cxl.row_misses",
                     [this] { return cxl_->backendStats().rowMisses; });
        m.addCounter("cxl.bytes_m2s", [this] { return cxl_->bytesDown(); });
        m.addCounter("cxl.bytes_s2m", [this] { return cxl_->bytesUp(); });
        m.addCounter("cxl.reads_stalled", [this] {
            return cxl_->controllerStats().readsStalled;
        });
        m.addCounter("cxl.writes_stalled", [this] {
            return cxl_->controllerStats().writesStalled;
        });
        m.addGauge("cxl.reads_in_flight", [this] {
            return static_cast<double>(cxl_->readsInFlight());
        });
        m.addGauge("cxl.writes_buffered", [this] {
            return static_cast<double>(cxl_->writesBuffered());
        });
        m.addGauge("cxl.read_wait_depth", [this] {
            return static_cast<double>(cxl_->readWaitDepth());
        });
        m.addGauge("cxl.write_wait_depth", [this] {
            return static_cast<double>(cxl_->writeWaitDepth());
        });
        if (qosSpec_.enabled()) {
            m.addGauge("cxl.dev_load", [this] { return cxl_->devLoad(); });
            m.addGauge("cxl.credit_wait_depth", [this] {
                return static_cast<double>(cxl_->creditWaitDepth());
            });
        }
    }
    // Windowed percentile timelines ride the device histograms, which
    // exist only when obs.latencyHistograms is also set (histograms
    // are enabled before this runs). Values are ticks; scale to ns.
    if (local_->latencyHistogram()) {
        m.addHistogram("lat.local",
                       [this] { return local_->latencyHistogram(); },
                       1.0 / tickPerNs);
    }
    if (remote_ && remote_->latencyHistogram()) {
        m.addHistogram("lat.remote",
                       [this] { return remote_->latencyHistogram(); },
                       1.0 / tickPerNs);
    }
    if (cxl_ && cxl_->latencyHistogram()) {
        m.addHistogram("lat.cxl",
                       [this] { return cxl_->latencyHistogram(); },
                       1.0 / tickPerNs);
    }
    if (faults_) {
        m.addCounter("ras.crc_errors",
                     [this] { return rasStats()->crcErrors; });
        m.addCounter("ras.link_retries",
                     [this] { return rasStats()->linkRetries; });
        m.addCounter("ras.timeouts",
                     [this] { return rasStats()->timeouts; });
        m.addCounter("ras.host_retries",
                     [this] { return rasStats()->hostRetries; });
    }
    if (chaosSpec_.enabled() && cxl_) {
        m.addCounter("chaos.link_downs",
                     [this] { return chaosStats().linkDowns; });
        m.addCounter("chaos.retrains",
                     [this] { return chaosStats().retrains; });
        m.addCounter("chaos.blocked_msgs",
                     [this] { return chaosStats().blockedMsgs; });
        m.addCounter("chaos.removals",
                     [this] { return chaosStats().removals; });
        m.addCounter("chaos.aborted_reads",
                     [this] { return chaosStats().abortedReads; });
        m.addCounter("chaos.pages_offlined",
                     [this] { return chaosStats().pagesOfflined; });
        m.addCounter("chaos.offlined_bytes",
                     [this] { return chaosStats().offlinedBytes; });
    }
    // Event/callback allocation rate of the simulator itself (the
    // slab allocator in sim/pool.hh), counted from construction. The
    // classic engine runs a Machine on one thread, so that thread's
    // count is this Machine's alone, whatever other sweep points run
    // beside it under --jobs. The executor spreads a Machine over its
    // workers and reads the process-wide count. Only the allocation
    // count is registered -- free-list reuse vs. fallback splits
    // depend on which *worker* frees a cell, which is not
    // thread-count invariant and would break the determinism
    // contract.
    const auto allocs = exec_ ? poolAllocCount : poolThreadAllocCount;
    m.addCounter("alloc.pool_allocs", [allocs, base = allocs()] {
        return allocs() - base;
    });
    if (exec_) {
        m.addCounter("sim.windows", [this] { return exec_->windows(); });
        m.addCounter("sim.cross_posts",
                     [this] { return exec_->crossPosts(); });
        m.addCounter("sim.clamped_posts",
                     [this] { return exec_->clampedPosts(); });
    }
}

NodeId
Machine::remoteNode() const
{
    CXLMEMO_ASSERT(remote_ != nullptr, "testbed has no remote socket");
    return remoteNode_;
}

NodeId
Machine::cxlNode() const
{
    CXLMEMO_ASSERT(cxl_ != nullptr, "testbed has no CXL device");
    return cxlNode_;
}

UpiRemoteMemory &
Machine::remoteMem()
{
    CXLMEMO_ASSERT(remote_ != nullptr, "testbed has no remote socket");
    return *remote_;
}

CxlMemDevice &
Machine::cxlDev()
{
    CXLMEMO_ASSERT(cxl_ != nullptr, "testbed has no CXL device");
    return *cxl_;
}

std::unique_ptr<HwThread>
Machine::makeThread(std::uint16_t core)
{
    CXLMEMO_ASSERT(core < numCores(), "core %u beyond testbed", core);
    auto t = std::make_unique<HwThread>(*caches_, core, coreParams_);
    if (attrib_)
        t->setAttribution(attrib_.get());
    return t;
}

void
Machine::resetStats()
{
    local_->resetStats();
    if (remote_)
        remote_->resetStats();
    if (cxl_)
        cxl_->resetStats();
    if (faults_)
        faults_->stats().reset();
    if (devFaults_)
        devFaults_->stats().reset();
    if (throttle_)
        throttle_->resetStats();
    if (attrib_)
        attrib_->beginWindow(eq_.curTick());
    for (auto &b : shardBoards_)
        if (b)
            b->beginWindow(eq_.curTick());
}

std::optional<QosStats>
Machine::qosStats() const
{
    if (!cxl_ || !qosSpec_.enabled())
        return std::nullopt;
    QosStats qs;
    cxl_->fillQosStats(qs);
    if (throttle_)
        throttle_->fillStats(qs);
    return qs;
}

std::string
Machine::statsString() const
{
    std::ostringstream os;
    os << "Stats for " << name_ << "\n";
    auto dev_line = [&os](const std::string &label,
                          const DeviceStats &s) {
        const auto row_total = s.rowHits + s.rowMisses;
        os << "  " << label << ": reads " << s.reads << " (" 
           << s.bytesRead / kiB << " KiB), writes " << s.writes << " ("
           << s.bytesWritten / kiB << " KiB), row-hit "
           << (row_total
                   ? 100.0 * static_cast<double>(s.rowHits)
                         / static_cast<double>(row_total)
                   : 0.0)
           << "%\n";
    };
    // Per-component access-latency histograms (only when enabled by
    // ObservabilityOptions::latencyHistograms and non-empty).
    auto hist_line = [&os](const std::string &label,
                           const LatencyHistogram *h) {
        if (!h || h->empty())
            return;
        os << "    lat " << label << ": n=" << h->count() << ", avg "
           << h->mean() / tickPerNs << " ns, p50 "
           << h->p50() / tickPerNs << " ns, p99 "
           << h->p99() / tickPerNs << " ns, max "
           << static_cast<double>(h->max()) / tickPerNs << " ns\n";
    };
    dev_line("local-ddr5 ", local_->stats());
    hist_line("local-ddr5", local_->latencyHistogram());
    if (remote_) {
        dev_line("remote-ddr5", remote_->stats());
        hist_line("remote-ddr5", remote_->latencyHistogram());
        os << "    upi bytes: down " << remote_->bytesDown() / kiB
           << " KiB, up " << remote_->bytesUp() / kiB << " KiB\n";
    }
    if (cxl_) {
        dev_line("cxl-dram   ", cxl_->backendStats());
        hist_line("cxl-dram", cxl_->latencyHistogram());
        os << "    link bytes: M2S " << cxl_->bytesDown() / kiB
           << " KiB, S2M " << cxl_->bytesUp() / kiB << " KiB\n";
        const CxlControllerStats &cs = cxl_->controllerStats();
        os << "    controller: reads stalled " << cs.readsStalled
           << ", writes stalled " << cs.writesStalled
           << ", write-buffer high-water " << cs.writeBufferHighWater
           << "\n";
        if (faults_) {
            os << "    link degrade level: M2S "
               << cxl_->downDegradeLevel() << ", S2M "
               << cxl_->upDegradeLevel() << "\n";
        }
    }
    if (auto qs = qosStats()) {
        os << "  qos: " << qs->summary() << "\n";
        bool any = false;
        for (std::uint32_t c = 0; c < numCores(); ++c) {
            const std::uint64_t t = cxl_->creditStallTicks(
                static_cast<std::uint16_t>(c));
            if (t == 0)
                continue;
            if (!any)
                os << "    credit-stall ns by core:";
            os << " c" << c << "=" << t / tickPerNs;
            any = true;
        }
        if (any)
            os << "\n";
    }
    if (watchdog_) {
        os << "  watchdog: snapshots " << watchdog_->snapshots()
           << ", tripped " << (watchdog_->tripped() ? "yes" : "no")
           << "\n";
    }
    if (faults_)
        os << "  ras: " << rasStats()->summary() << "\n";
    if (chaosSpec_.enabled() && cxl_)
        os << "  chaos: " << chaosStats().summary() << "\n";
    if (exec_) {
        os << "  engine: domains " << exec_->numDomains()
           << ", windows " << exec_->windows() << ", cross-posts "
           << exec_->crossPosts() << ", clamped "
           << exec_->clampedPosts() << "\n";
    }
    const CacheStats &llc = caches_->llcStats();
    os << "  llc: hits " << llc.hits << ", misses " << llc.misses
       << " (hit rate " << 100.0 * llc.hitRate() << "%), dirty evictions "
       << llc.dirtyEvictions << "\n";
    const PrefetchStats &pf = caches_->prefetchStats();
    if (pf.issued)
        os << "  prefetch: issued " << pf.issued << ", useful "
           << pf.usefulHits << "\n";
    if (caches_->params().tlbEnabled)
        os << "  tlb: walks " << caches_->tlbWalks() << ", stlb hits "
           << caches_->stlbHits() << "\n";
    os << "  dsa: bytes copied " << dsa_->bytesCopied() / kiB
       << " KiB\n";
    if (attrib_)
        os << attribSnapshot().statLines();
    return os.str();
}

std::string
Machine::configString() const
{
    std::ostringstream os;
    os << "Testbed: " << name_ << "\n";
    os << "  cores: " << numCores()
       << " (issue " << nsFromTicks(coreParams_.issueCost)
       << " ns/op, " << coreParams_.loadFillBuffers << " LFBs, "
       << coreParams_.wcBuffers << " WC buffers)\n";
    os << "  L1D " << caches_->l1Bytes() / kiB << " KiB, L2 "
       << caches_->l2Bytes() / miB << " MiB, LLC "
       << caches_->llcBytes() / miB << " MiB shared\n";
    os << "  node0 local-ddr5: " << local_->numChannels()
       << "x DDR5-4800 channels, "
       << numa_.node(localNode_).capacityBytes / giB << " GiB\n";
    if (remote_) {
        os << "  node1 remote-ddr5 (UPI): "
           << remote_->params().numChannels << "x DDR5-4800, "
           << numa_.node(remoteNode_).capacityBytes / giB << " GiB\n";
    }
    if (cxl_) {
        os << "  node" << cxlNode_
           << " cxl-dram (CXL 1.1 x16, Agilex-I): 1x DDR4-2666, "
           << numa_.node(cxlNode_).capacityBytes / giB
           << " GiB, CPU-less\n";
    }
    return os.str();
}

} // namespace cxlmemo
