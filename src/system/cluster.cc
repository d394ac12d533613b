/**
 * @file
 * Cluster implementation: PoolSpec grammar, host generators, fencing
 * FSM, and the fabric glue between hosts, switch and pool manager.
 */

#include "system/cluster.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "cxl/device.hh"
#include "sim/logging.hh"
#include "sim/spec.hh"
#include "system/machine.hh"

namespace cxlmemo
{

namespace
{

constexpr std::uint64_t fnvBasis = 1469598103934665603ULL;
constexpr std::uint64_t fnvPrime = 1099511628211ULL;

std::uint64_t
fnv(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= fnvPrime;
    }
    return h;
}

bool
parseHost(const std::string &v, std::int32_t &out)
{
    if (v == "-1") { // disabled: what toString() prints for "off"
        out = -1;
        return true;
    }
    std::uint16_t n = 0;
    if (!parseSpecValue(v, n))
        return false;
    out = n;
    return true;
}

} // namespace

/* ------------------------------ PoolSpec ------------------------- */

bool
PoolSpec::disturbed() const
{
    return aggressor >= 0 || crashHost >= 0 || poisonHost >= 0
           || portDownHost >= 0;
}

std::int32_t
PoolSpec::victimHost() const
{
    for (std::uint32_t h = 0; h < hosts; ++h) {
        if (static_cast<std::int32_t>(h) != aggressor
            && static_cast<std::int32_t>(h) != crashHost
            && static_cast<std::int32_t>(h) != poisonHost
            && static_cast<std::int32_t>(h) != portDownHost) {
            return static_cast<std::int32_t>(h);
        }
    }
    return -1;
}

PoolSpec
PoolSpec::isolationBaseline() const
{
    PoolSpec b = *this;
    b.aggressor = -1;
    b.crashHost = -1;
    b.crashAtNs = 0.0;
    b.poisonHost = -1;
    b.poisonEvery = 0;
    b.portDownHost = -1;
    b.portDownAtNs = 0.0;
    return b;
}

void
PoolSpec::validate() const
{
    if (hosts == 0 || hosts > 16)
        throw std::invalid_argument("PoolSpec: hosts must be in [1,16]");
    if (devices == 0 || devices > 8)
        throw std::invalid_argument(
            "PoolSpec: devices must be in [1,8]");
    if (capacityMb == 0 || capacityMb > 64 * 1024)
        throw std::invalid_argument(
            "PoolSpec: capacity-mb must be in [1,65536]");
    const std::uint64_t total = capacityMb * devices;
    if (windowMb > total / hosts)
        throw std::invalid_argument(
            "PoolSpec: window-mb * hosts exceeds the pool");
    if (windowMb == 0 && hosts > total)
        throw std::invalid_argument(
            "PoolSpec: more hosts than grantable segments");
    if (readFrac < 0.0 || readFrac > 1.0)
        throw std::invalid_argument(
            "PoolSpec: read-frac must be in [0,1]");
    if (mlp == 0 || mlp > 64)
        throw std::invalid_argument("PoolSpec: mlp must be in [1,64]");
    // Slot-partitioned addressing needs at least one line per slot.
    const std::uint64_t winBytes =
        (windowMb > 0 ? windowMb : total / hosts) * miB;
    if (winBytes / cachelineBytes < mlp)
        throw std::invalid_argument(
            "PoolSpec: per-host window smaller than mlp lines");
    if (!(fenceCheckNs > 0.0))
        throw std::invalid_argument(
            "PoolSpec: fence-check-ns must be positive");
    if (missThreshold == 0)
        throw std::invalid_argument(
            "PoolSpec: miss-threshold must be >= 1");
    if (scrubNsPerMb < 0.0)
        throw std::invalid_argument(
            "PoolSpec: scrub-ns-per-mb must be >= 0");
    if (!(retrainNs > 0.0))
        throw std::invalid_argument(
            "PoolSpec: retrain-ns must be positive");
    const auto inRange = [this](std::int32_t h) {
        return h < 0 || static_cast<std::uint32_t>(h) < hosts;
    };
    if (!inRange(aggressor) || !inRange(crashHost)
        || !inRange(poisonHost) || !inRange(portDownHost)) {
        throw std::invalid_argument(
            "PoolSpec: host index out of range");
    }
    if (crashHost >= 0 && !(crashAtNs > 0.0))
        throw std::invalid_argument(
            "PoolSpec: crash-host needs crash-at-ns");
    if (portDownHost >= 0 && !(portDownAtNs > 0.0))
        throw std::invalid_argument(
            "PoolSpec: port-down-host needs port-down-at-ns");
    if ((poisonHost >= 0) != (poisonEvery > 0))
        throw std::invalid_argument(
            "PoolSpec: poison-host and poison-every go together");
    if (ops > 100'000'000ULL)
        throw std::invalid_argument("PoolSpec: ops too large");
    requireTicks("PoolSpec", "crash-at-ns", crashAtNs);
    requireTicks("PoolSpec", "fence-check-ns", fenceCheckNs);
    // The longest scrub quarantines the whole pool.
    requireTicks("PoolSpec", "scrub-ns-per-mb",
                 scrubNsPerMb * static_cast<double>(total));
    requireTicks("PoolSpec", "port-down-at-ns", portDownAtNs);
    requireTicks("PoolSpec", "retrain-ns", retrainNs);
}

std::string
PoolSpec::toString() const
{
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "hosts=%u,devices=%u,capacity-mb=%llu,window-mb=%llu,"
        "credits=%u,arb=%s,ops=%llu,read-frac=%g,mlp=%u,aggressor=%d,"
        "crash-host=%d,crash-at-ns=%g,fence-check-ns=%g,"
        "miss-threshold=%u,scrub-ns-per-mb=%g,contain=%s,"
        "poison-host=%d,poison-every=%llu,port-down-host=%d,"
        "port-down-at-ns=%g,retrain-ns=%g,seed=%llu",
        hosts, devices, static_cast<unsigned long long>(capacityMb),
        static_cast<unsigned long long>(windowMb), credits,
        arb == CxlSwitchParams::Arb::RoundRobin ? "rr" : "fixed",
        static_cast<unsigned long long>(ops), readFrac, mlp, aggressor,
        crashHost, crashAtNs, fenceCheckNs, missThreshold, scrubNsPerMb,
        containPolicyName(contain), poisonHost,
        static_cast<unsigned long long>(poisonEvery), portDownHost,
        portDownAtNs, retrainNs,
        static_cast<unsigned long long>(seed));
    return buf;
}

std::optional<PoolSpec>
PoolSpec::parse(const std::string &text, std::string &error)
{
    return parseSpec<PoolSpec>(
        text, "pool-spec", error,
        [&error](PoolSpec &spec, const std::string &key,
                 const std::string &value) {
            if (key == "hosts")
                return parseSpecValue(value, spec.hosts);
            if (key == "devices")
                return parseSpecValue(value, spec.devices);
            if (key == "capacity-mb")
                return parseSpecValue(value, spec.capacityMb);
            if (key == "window-mb")
                return parseSpecValue(value, spec.windowMb);
            if (key == "credits")
                return parseSpecValue(value, spec.credits);
            if (key == "arb") {
                if (value == "rr") {
                    spec.arb = CxlSwitchParams::Arb::RoundRobin;
                } else if (value == "fixed") {
                    spec.arb = CxlSwitchParams::Arb::Fixed;
                } else {
                    error = "bad arb (rr|fixed): " + value;
                    return false;
                }
                return true;
            }
            if (key == "ops")
                return parseSpecValue(value, spec.ops);
            if (key == "read-frac")
                return parseSpecValue(value, spec.readFrac);
            if (key == "mlp")
                return parseSpecValue(value, spec.mlp);
            if (key == "aggressor")
                return parseHost(value, spec.aggressor);
            if (key == "crash-host")
                return parseHost(value, spec.crashHost);
            if (key == "crash-at-ns")
                return parseSpecValue(value, spec.crashAtNs);
            if (key == "fence-check-ns")
                return parseSpecValue(value, spec.fenceCheckNs);
            if (key == "miss-threshold")
                return parseSpecValue(value, spec.missThreshold);
            if (key == "scrub-ns-per-mb")
                return parseSpecValue(value, spec.scrubNsPerMb);
            if (key == "contain") {
                if (value == "poison") {
                    spec.contain = ContainPolicy::Poison;
                } else if (value == "abort") {
                    spec.contain = ContainPolicy::Abort;
                } else {
                    error = "bad contain policy (poison|abort): " + value;
                    return false;
                }
                return true;
            }
            if (key == "poison-host")
                return parseHost(value, spec.poisonHost);
            if (key == "poison-every")
                return parseSpecValue(value, spec.poisonEvery);
            if (key == "port-down-host")
                return parseHost(value, spec.portDownHost);
            if (key == "port-down-at-ns")
                return parseSpecValue(value, spec.portDownAtNs);
            if (key == "retrain-ns")
                return parseSpecValue(value, spec.retrainNs);
            if (key == "seed")
                return parseSpecValue(value, spec.seed);
            return false;
        });
}

/* ----------------------------- HostDigest ------------------------ */

bool
HostDigest::operator==(const HostDigest &o) const
{
    return ops == o.ops && reads == o.reads && writes == o.writes
           && bytes == o.bytes && poisoned == o.poisoned
           && aborted == o.aborted && valueHash == o.valueHash
           && ledgerHash == o.ledgerHash;
}

/* ------------------------------ Cluster -------------------------- */

Cluster::Cluster(const PoolSpec &spec, Options opts)
    : spec_(spec), opts_(opts)
{
    spec_.validate();

    CxlSwitchParams sp;
    sp.name = "xsw0";
    sp.ports = spec_.hosts;
    sp.rdCredits = spec_.credits;
    sp.wrCredits = spec_.credits;
    sp.arb = spec_.arb;

    const bool par = opts_.simThreads > 0;
    if (par) {
        std::vector<EventQueue *> ranks;
        ranks.push_back(&eq_);
        for (std::uint32_t h = 0; h < spec_.hosts; ++h) {
            hostQueues_.push_back(std::make_unique<EventQueue>());
            ranks.push_back(hostQueues_.back().get());
        }
        // Every cross-domain message crosses a switch port, so the
        // one-way port latency is an exact conservative lookahead.
        exec_ = std::make_unique<ParallelExecutor>(
            std::move(ranks), sp.portLatency, opts_.simThreads);
    }

    std::vector<MemoryDevice *> downstream;
    for (std::uint32_t d = 0; d < spec_.devices; ++d) {
        CxlDeviceParams dp = testbed_params::agilexCxlDevice();
        dp.name = "pd" + std::to_string(d);
        devices_.push_back(std::make_unique<CxlMemDevice>(eq_, dp));
        if (opts_.watchdogInterval > 0)
            devices_.back()->enableProgressTracking();
        downstream.push_back(devices_.back().get());
    }
    sw_ = std::make_unique<CxlSwitch>(eq_, sp, std::move(downstream));
    store_.resize(spec_.devices);
    sw_->setDataHook([this](std::uint32_t dev, MemCmd cmd, Addr addr,
                            std::uint64_t wval) {
        if (isWrite(cmd)) {
            store_[dev][addr] = wval;
            return wval;
        }
        const auto it = store_[dev].find(addr);
        return it != store_[dev].end() ? it->second
                                       : missValue(dev, addr);
    });

    pool_ = std::make_unique<PoolManager>(spec_.devices,
                                          spec_.capacityMb * miB);
    const std::uint64_t total = pool_->totalBytes();
    const std::uint64_t winBytes =
        spec_.windowMb > 0
            ? spec_.windowMb * miB
            : (total / spec_.hosts) / pool_->segmentBytes()
                  * pool_->segmentBytes();

    hosts_.resize(spec_.hosts);
    for (std::uint32_t h = 0; h < spec_.hosts; ++h) {
        const std::uint64_t got = pool_->grant(h, winBytes);
        CXLMEMO_ASSERT(got == winBytes,
                       "setup grant failed for host %u", (unsigned)h);
        Host &H = hosts_[h];
        H.id = h;
        if (static_cast<std::int32_t>(h) == spec_.crashHost)
            H.role = "crashed";
        else if (static_cast<std::int32_t>(h) == spec_.aggressor)
            H.role = "aggressor";
        else if (spec_.disturbed()
                 && static_cast<std::int32_t>(h) == spec_.victimHost())
            H.role = "victim";
        H.target = (opts_.soloHost >= 0
                    && static_cast<std::int32_t>(h) != opts_.soloHost)
                       ? 0
                       : spec_.ops;
        H.windowLines = winBytes / cachelineBytes;
        H.slots.resize(spec_.mlp);
        for (std::uint32_t s = 0; s < spec_.mlp; ++s) {
            Slot &S = H.slots[s];
            // Per-slot stream: a pure function of (seed, host, slot),
            // independent of every other host's existence.
            S.rng.reseed(splitMix64(spec_.seed
                                    ^ (std::uint64_t(h) << 32) ^ s));
            S.target = H.target / spec_.mlp
                       + (s < H.target % spec_.mlp ? 1 : 0);
        }
    }

    lastBeat_.assign(spec_.hosts, 0);
    beatDone_.assign(spec_.hosts, false);
    fenced_.assign(spec_.hosts, false);
    poisonCtr_.assign(spec_.hosts, 0);
    if (spec_.crashHost >= 0)
        crashTick_ = ticksFromNs(spec_.crashAtNs);

    // The watchdog and the metrics sampler share one observer clock:
    // snapshots on the fabric queue, fenced on the parallel engine.
    const ObserverClock clock(eq_, exec_.get());
    if (opts_.watchdogInterval > 0) {
        WatchdogParams wp;
        wp.interval = opts_.watchdogInterval;
        watchdog_ = std::make_unique<Watchdog>(clock, wp);
        watchdog_->watch(sw_.get());
        for (auto &d : devices_)
            watchdog_->watch(d.get());
        watchdog_->setOnTrip([this](const std::string &report) {
            watchdogTripped_ = true;
            watchdogReport_ = report;
        });
    }

    setupObservability(clock);
}

void
Cluster::setupObservability(const ObserverClock &clock)
{
    const ObservabilityOptions &obs = opts_.obs;
    // Tracing marks spans on both the host and fabric domains, so it
    // needs the classic engine. Same restriction (and message shape)
    // as the Machine.
    if (obs.traceSampleEvery > 0 && opts_.simThreads > 0)
        throw std::invalid_argument(
            "Cluster: request-lifecycle tracing requires the "
            "single-queue engine (simThreads = 0)");
    if (obs.attribution) {
        board_ = std::make_unique<FabricBoard>(spec_.hosts,
                                               spec_.devices, 0);
        sw_->setFabricBoard(board_.get());
    }
    // Tail capture rides the tracer plumbing but is parallel-safe: a
    // span is touched by one domain at a time (host issues/finishes,
    // fabric marks in between with causal handoffs through the
    // executor) and the worst-K set is completion-order independent.
    for (auto &H : hosts_)
        H.tracer = RequestTracer::fromOptions(obs);
    if (obs.metricsInterval > 0) {
        metrics_ = std::make_unique<MetricsRegistry>();
        registerMetrics();
        sampler_ = std::make_unique<MetricsSampler>(clock, *metrics_,
                                                    obs.metricsInterval);
    }
    if (watchdog_) {
        for (auto &H : hosts_) {
            if (!H.tracer)
                continue;
            RequestTracer *tr = H.tracer.get();
            const std::uint32_t h = H.id;
            watchdog_->addPostMortem([this, tr, h] {
                return "  host" + std::to_string(h) + " (port"
                       + std::to_string(h) + "):\n"
                       + tr->postMortem(eq_.curTick());
            });
        }
        if (board_) {
            watchdog_->addPostMortem([this] {
                return board_->snapshot(eq_.curTick()).postMortem();
            });
        }
    }
}

void
Cluster::registerMetrics()
{
    MetricsRegistry &m = *metrics_;
    CxlSwitch *sw = sw_.get();
    for (std::uint32_t h = 0; h < spec_.hosts; ++h) {
        const std::string p = "sw.p" + std::to_string(h) + ".";
        const SwitchPortStats *st = &sw->portStats(h);
        m.addCounter(p + "reqs", [st] { return st->reqs; });
        m.addCounter(p + "responses", [st] { return st->responses; });
        m.addCounter(p + "req_bytes", [st] { return st->reqBytes; });
        m.addCounter(p + "credit_stall_ticks",
                     [st] { return st->creditStallTicks; });
        m.addCounter(p + "aborted", [st] {
            return st->aborted + st->abortedInFlight;
        });
        m.addCounter(p + "poisoned", [st] { return st->poisoned; });
        m.addGauge(p + "voq_depth", [sw, h] {
            return static_cast<double>(sw->voqDepth(h));
        });
        m.addGauge(p + "credit_wait_depth", [sw, h] {
            return static_cast<double>(sw->creditWaitDepth(h));
        });
        m.addGauge(p + "in_flight", [sw, h] {
            return static_cast<double>(sw->portInFlight(h));
        });
        m.addGauge(p + "credit_occupancy", [sw, h] {
            const LinkCredits *c = sw->portCredits(h);
            return c ? static_cast<double>(c->rd.inFlight()
                                           + c->wr.inFlight())
                     : 0.0;
        });
        m.addGauge("pool.h" + std::to_string(h) + ".granted_bytes",
                   [this, h] {
                       return static_cast<double>(
                           pool_->grantedBytes(h));
                   });
        if (opts_.obs.latencyHistograms) {
            // Per-host windowed read-latency percentiles. The host
            // histogram is always recorded (ns units), so this adds
            // no hot-path cost, only snapshot rows.
            const LatencyHistogram *rh = &hosts_[h].readHist;
            m.addHistogram("host" + std::to_string(h) + ".read_lat",
                           [rh] { return rh; }, 1.0);
        }
    }
    PoolManager *pm = pool_.get();
    m.addCounter("pool.granted_bytes_total",
                 [pm] { return pm->stats().grantedBytes; });
    m.addCounter("pool.quarantined_bytes_total",
                 [pm] { return pm->stats().quarantinedBytes; });
    m.addCounter("pool.scrubbed_bytes_total",
                 [pm] { return pm->stats().scrubbedBytes; });
    m.addGauge("pool.free_bytes",
               [pm] { return static_cast<double>(pm->freeBytes()); });
    m.addGauge("pool.quarantined_bytes", [pm] {
        return static_cast<double>(pm->quarantinedBytes());
    });
    m.addGauge("pool.scrubbing_bytes", [pm] {
        return static_cast<double>(pm->scrubbingBytes());
    });
    m.addGauge("pool.time_to_fence_ns", [this] {
        if (fencedAt_ == 0)
            return 0.0;
        return crashTick_ > 0 ? nsFromTicks(fencedAt_ - crashTick_)
                              : nsFromTicks(fencedAt_);
    });
}

Cluster::~Cluster() = default;

EventQueue &
Cluster::hostQueue(std::uint32_t host)
{
    return exec_ ? *hostQueues_[host] : eq_;
}

void
Cluster::postToFabric(std::uint32_t host, Tick when,
                      EventQueue::Callback cb)
{
    if (exec_) {
        exec_->post(1 + host, 0, when,
                    [cb = std::move(cb)](Tick) mutable { cb(); });
    } else {
        eq_.schedule(when, std::move(cb));
    }
}

void
Cluster::postToHost(std::uint32_t host, Tick when,
                    EventQueue::Callback cb)
{
    if (exec_) {
        exec_->post(0, 1 + host, when,
                    [cb = std::move(cb)](Tick) mutable { cb(); });
    } else {
        eq_.schedule(when, std::move(cb));
    }
}

std::uint64_t
Cluster::missValue(std::uint32_t dev, Addr addr) const
{
    // Unwritten lines read as a pure function of their location, so
    // read values are deterministic without pre-touching the pool.
    return splitMix64((std::uint64_t(dev) << 56) ^ addr
                      ^ 0x9e3779b97f4a7c15ULL);
}

CxlSwitch::Status
Cluster::shapeStatus(std::uint32_t host, MemCmd cmd,
                     CxlSwitch::Status st)
{
    if (static_cast<std::int32_t>(host) == spec_.poisonHost
        && spec_.poisonEvery > 0 && cmd == MemCmd::Read
        && st == CxlSwitch::Status::Ok) {
        if (++poisonCtr_[host] % spec_.poisonEvery == 0)
            return CxlSwitch::Status::Poisoned;
    }
    return st;
}

void
Cluster::submitFromHost(std::uint32_t host, MemCmd cmd, Addr hostAddr,
                        std::uint64_t value, Tick issued,
                        TraceSpan *span, CxlSwitch::Done done)
{
    // A fenced host's window is already quarantined; skip translation
    // and let the switch abort at the (fenced) port.
    PoolManager::Loc loc{};
    if (!fenced_[host])
        loc = pool_->translate(host, hostAddr);
    CxlSwitch::Op op;
    op.addr = loc.addr;
    op.cmd = cmd;
    op.value = value;
    op.issued = issued;
    op.span = span;
    op.done = [this, host, cmd, done = std::move(done)](
                  Tick d, CxlSwitch::Status st,
                  std::uint64_t v) mutable {
        done(d, shapeStatus(host, cmd, st), v);
    };
    sw_->submit(host, loc.dev, std::move(op));
}

void
Cluster::issueSlot(std::uint32_t host, std::uint32_t slot)
{
    Host &H = hosts_[host];
    Slot &S = H.slots[slot];
    const std::uint64_t opIdx = S.issued++;
    const bool agg =
        static_cast<std::int32_t>(host) == spec_.aggressor;
    MemCmd cmd;
    if (agg) {
        cmd = MemCmd::NtWrite;
        S.rng.uniform(); // keep the stream aligned with mixed mode
    } else {
        cmd = S.rng.uniform() < spec_.readFrac ? MemCmd::Read
                                               : MemCmd::Write;
    }
    const std::uint64_t linesPerSlot = H.windowLines / spec_.mlp;
    const std::uint64_t line =
        S.rng.below(linesPerSlot) * spec_.mlp + slot;
    const Addr hostAddr = line * cachelineBytes;
    const std::uint64_t value =
        splitMix64(spec_.seed ^ (std::uint64_t(host) << 40)
                   ^ (std::uint64_t(slot) << 32) ^ opIdx);
    const Tick issued = hostQueue(host).curTick();
    S.issueTick = issued;
    TraceSpan *span = nullptr;
    if (H.tracer) {
        span = H.tracer->maybeStart(static_cast<std::uint16_t>(host),
                                    cmd, hostAddr, issued);
        // The span starts in the host->switch ingress flit; closed-
        // loop slots carry one op at a time, so the slot anchors it.
        RequestTracer::mark(span, TraceStage::SwM2s, issued);
        S.span = span;
    }

    CxlSwitch::Done done =
        [this, host, slot, opIdx, hostAddr, cmd, issued](
            Tick d, CxlSwitch::Status st, std::uint64_t v) {
            postToHost(host, d,
                       [this, host, slot, opIdx, hostAddr, cmd, issued,
                        st, v] {
                           slotDone(host, slot, opIdx, hostAddr, cmd,
                                    issued, hostQueue(host).curTick(),
                                    st, v);
                       });
        };
    postToFabric(host, issued + sw_->params().portLatency,
                 [this, host, cmd, hostAddr, value, issued, span,
                  done = std::move(done)]() mutable {
                     submitFromHost(host, cmd, hostAddr, value, issued,
                                    span, std::move(done));
                 });
}

void
Cluster::slotDone(std::uint32_t host, std::uint32_t slot,
                  std::uint64_t opIdx, Addr hostAddr, MemCmd cmd,
                  Tick issued, Tick at, CxlSwitch::Status status,
                  std::uint64_t value)
{
    Host &H = hosts_[host];
    Slot &S = H.slots[slot];
    if (S.span) {
        // Close the span even for a crashed host: the fenced-abort
        // completion is exactly what the blast-radius post-mortem
        // needs to see on the dead host's track.
        H.tracer->finish(S.span, at);
        S.span = nullptr;
    }
    if (H.crashed)
        return; // a dead host processes nothing

    ++H.digest.ops;
    if (isWrite(cmd))
        ++H.digest.writes;
    else
        ++H.digest.reads;
    H.digest.bytes += cachelineBytes;
    if (status == CxlSwitch::Status::Poisoned) {
        ++H.digest.poisoned;
        ++H.poisonLedger[hostAddr];
    } else if (status == CxlSwitch::Status::Aborted) {
        ++H.digest.aborted;
    }
    S.valueHash = fnv(S.valueHash, opIdx);
    S.valueHash = fnv(S.valueHash,
                      static_cast<std::uint64_t>(status));
    S.valueHash = fnv(S.valueHash, value);
    if (cmd == MemCmd::Read) {
        const double ns = nsFromTicks(at - issued);
        H.readHist.record(static_cast<std::uint64_t>(ns + 0.5));
        H.readLatSumNs += ns;
    }
    ++S.done;
    H.lastDoneTick = std::max(H.lastDoneTick, at);

    if (S.issued < S.target) {
        issueSlot(host, slot);
    } else if (S.done == S.target) {
        ++H.slotsDone;
        if (H.slotsDone == H.slots.size())
            hostComplete(host, at);
    }
}

void
Cluster::hostComplete(std::uint32_t host, Tick at)
{
    Host &H = hosts_[host];
    if (H.complete)
        return;
    H.complete = true;
    postToFabric(host, at + sw_->params().portLatency,
                 [this, host] { beatDone_[host] = true; });
}

void
Cluster::beat(std::uint32_t host)
{
    Host &H = hosts_[host];
    if (H.complete || H.crashed)
        return;
    const Tick now = hostQueue(host).curTick();
    postToFabric(host, now + sw_->params().portLatency, [this, host] {
        lastBeat_[host] = eq_.curTick();
    });
    hostQueue(host).schedule(now + ticksFromNs(spec_.fenceCheckNs),
                             [this, host] { beat(host); });
}

void
Cluster::fenceHost(std::uint32_t host, Tick now)
{
    fenced_[host] = true;
    fencedAt_ = now;
    sw_->fencePort(host, spec_.contain);
    const std::uint64_t qb = pool_->quarantine(host);
    quarantinedBytes_ += qb;
    pool_->beginScrub();
    const Tick scrub = std::max<Tick>(
        1, ticksFromNs(spec_.scrubNsPerMb
                       * static_cast<double>(qb / miB)));
    eq_.schedule(now + scrub, [this] {
        const std::uint64_t released = pool_->releaseQuarantined();
        std::uint32_t live = 0;
        for (std::uint32_t h = 0; h < spec_.hosts; ++h)
            if (!fenced_[h])
                ++live;
        if (live > 0) {
            const std::uint64_t share =
                released / live / pool_->segmentBytes()
                * pool_->segmentBytes();
            for (std::uint32_t h = 0; h < spec_.hosts && share > 0;
                 ++h) {
                if (!fenced_[h])
                    recoveredBytes_ += pool_->grant(h, share);
            }
        }
        // releaseQuarantined() ended the scrub pass in the ledger.
        ledgerAllOk_ = ledgerAllOk_ && pool_->ledgerOk()
                       && sw_->creditLedgerOk();
    });
}

void
Cluster::fenceCheck()
{
    const Tick now = eq_.curTick();
    ledgerAllOk_ = ledgerAllOk_ && pool_->ledgerOk()
                   && sw_->creditLedgerOk();
    const Tick deadline = static_cast<Tick>(spec_.missThreshold)
                          * ticksFromNs(spec_.fenceCheckNs);
    bool anyWork = false;
    for (std::uint32_t h = 0; h < spec_.hosts; ++h) {
        if (beatDone_[h] || fenced_[h])
            continue;
        if (now - lastBeat_[h] > deadline) {
            fenceHost(h, now);
            continue;
        }
        anyWork = true;
    }
    if (anyWork || pool_->scrubbing()) {
        eq_.schedule(now + ticksFromNs(spec_.fenceCheckNs),
                     [this] { fenceCheck(); });
    }
}

ClusterResult
Cluster::run()
{
    // Host-domain kickoff: crash schedule, heartbeats, initial window
    // of closed-loop slots.
    for (std::uint32_t h = 0; h < spec_.hosts; ++h) {
        hostQueue(h).schedule(0, [this, h] {
            Host &H = hosts_[h];
            if (static_cast<std::int32_t>(h) == spec_.crashHost) {
                hostQueue(h).schedule(
                    ticksFromNs(spec_.crashAtNs),
                    [this, h] { hosts_[h].crashed = true; });
            }
            beat(h);
            if (H.target == 0) {
                hostComplete(h, 0);
                return;
            }
            for (std::uint32_t s = 0; s < H.slots.size(); ++s) {
                if (H.slots[s].target > 0)
                    issueSlot(h, s);
                else if (++H.slotsDone == H.slots.size())
                    hostComplete(h, 0);
            }
        });
    }
    // Fabric-domain kickoff: fence checker and the port-outage drill.
    eq_.schedule(ticksFromNs(spec_.fenceCheckNs),
                 [this] { fenceCheck(); });
    if (spec_.portDownHost >= 0) {
        eq_.schedule(ticksFromNs(spec_.portDownAtNs), [this] {
            sw_->portDown(
                static_cast<std::uint32_t>(spec_.portDownHost),
                ticksFromNs(spec_.retrainNs));
        });
    }
    if (watchdog_)
        watchdog_->arm();
    if (sampler_)
        sampler_->arm();

    const Tick limit =
        opts_.limitUs > 0.0 ? ticksFromUs(opts_.limitUs) : maxTick;
    if (exec_)
        exec_->run(limit);
    else
        eq_.runUntil(limit);

    ClusterResult res;
    res.endTick = exec_ ? exec_->curTick() : eq_.curTick();
    ledgerAllOk_ = ledgerAllOk_ && pool_->ledgerOk()
                   && sw_->creditLedgerOk();
    res.ledgerOk = ledgerAllOk_;
    res.quarantinedBytes = quarantinedBytes_;
    res.recoveredBytes = recoveredBytes_;
    if (fencedAt_ > 0 && crashTick_ > 0)
        res.timeToFenceNs = nsFromTicks(fencedAt_ - crashTick_);
    else if (fencedAt_ > 0)
        res.timeToFenceNs = nsFromTicks(fencedAt_);
    res.watchdogTripped = watchdogTripped_;
    res.watchdogReport = watchdogReport_;

    for (std::uint32_t h = 0; h < spec_.hosts; ++h) {
        Host &H = hosts_[h];
        HostReport r;
        r.host = h;
        r.role = H.role;
        // Fold the per-slot hashes in slot order: the digest is a
        // pure function of each slot's program order, never of the
        // cross-slot completion interleaving.
        H.digest.valueHash = fnvBasis;
        for (const Slot &s : H.slots)
            H.digest.valueHash = fnv(H.digest.valueHash, s.valueHash);
        H.digest.ledgerHash = fnvBasis;
        for (const auto &kv : H.poisonLedger) {
            H.digest.ledgerHash = fnv(H.digest.ledgerHash, kv.first);
            H.digest.ledgerHash = fnv(H.digest.ledgerHash, kv.second);
        }
        r.digest = H.digest;
        r.grantedBytes = H.windowLines * cachelineBytes;
        r.fenced = fenced_[h];
        r.durationNs = nsFromTicks(H.lastDoneTick);
        r.gbps = gbPerSec(H.digest.bytes, H.lastDoneTick);
        r.readAvgNs = H.readHist.empty()
                          ? 0.0
                          : H.readLatSumNs
                                / static_cast<double>(
                                    H.readHist.count());
        r.readP99Ns = H.readHist.percentile(99.0);
        r.readHist = H.readHist;
        if (H.tracer && H.tracer->tailCapture())
            r.tail = H.tracer->tailCapture()->summary();
        res.hosts.push_back(std::move(r));
    }
    res.verdict = attributionVerdict();
    if (board_)
        res.fabric = board_->snapshot(res.endTick);
    if (metrics_) {
        metrics_->flush(res.endTick);
        res.metricsRows = metrics_->rows();
    }
    // res.traceJson stays empty here: serializing a large trace is a
    // consumer cost, paid via traceJson() by whoever actually writes
    // the file (runPool), not by every armed run.
    return res;
}

std::string
Cluster::exportTraceJson() const
{
    bool any = false;
    std::size_t spans = 0;
    for (const Host &H : hosts_) {
        if (H.tracer) {
            any = true;
            spans += H.tracer->completedCount();
        }
    }
    if (!any)
        return "";

    std::string out;
    out.reserve(spans * 9 * 140); // span + ~8 marks, ~140 B/event
    bool first = true;
    const auto meta = [&out, &first](int pid, const std::string &name) {
        if (!first)
            out += ",\n";
        first = false;
        out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":"
               + std::to_string(pid) + ",\"args\":{\"name\":\"" + name
               + "\"}}";
    };

    // One track (pid) per host plus the shared fabric track: host-side
    // stages land on the issuing host's track, switch-path stages on
    // the fabric track with the port as the thread row. Host-scoped
    // span ids stay unique in the merged file.
    meta(0, "fabric");
    for (const Host &H : hosts_)
        meta(1 + static_cast<int>(H.id),
             "host" + std::to_string(H.id));
    const auto idBase = [](const Host &H) {
        return static_cast<std::uint64_t>(H.id + 1) << 32;
    };
    for (const Host &H : hosts_)
        if (H.tracer)
            H.tracer->appendTraceEvents(out, 1 + static_cast<int>(H.id),
                                        first, idBase(H), 0);
    // The worst-K outliers land on a dedicated tail track per host --
    // the p99 request as a clickable stack, next to the sampled spans.
    for (const Host &H : hosts_)
        if (H.tracer && H.tracer->tailCapture())
            H.tracer->tailCapture()->appendTraceEvents(
                out, 1 + static_cast<int>(H.id), first, idBase(H));
    return out;
}

std::string
Cluster::attributionVerdict() const
{
    // The fabric regime rides behind the host-level verdict, so the
    // leading "aggressor=..."/"no-aggressor..." forms are unchanged
    // whether or not attribution is enabled.
    std::string fabricSuffix;
    if (board_) {
        const Tick now = exec_ ? exec_->curTick() : eq_.curTick();
        fabricSuffix = " " + board_->snapshot(now).verdict();
    }
    std::uint64_t total = 0;
    for (std::uint32_t h = 0; h < spec_.hosts; ++h)
        total += sw_->portStats(h).reqBytes;
    if (total == 0)
        return "no-traffic" + fabricSuffix;
    std::uint32_t top = 0;
    for (std::uint32_t h = 1; h < spec_.hosts; ++h)
        if (sw_->portStats(h).reqBytes
            > sw_->portStats(top).reqBytes)
            top = h;
    const double share =
        static_cast<double>(sw_->portStats(top).reqBytes)
        / static_cast<double>(total);
    char buf[128];
    // Name an aggressor only when the top port clearly exceeds its
    // fair share of fabric bytes *among hosts still active* -- a
    // symmetric workload hovers at 1/hosts and must stay
    // "no-aggressor", and the lone survivor of a fenced peer is not
    // an aggressor against anyone.
    std::uint32_t active = 0;
    for (std::uint32_t h = 0; h < spec_.hosts; ++h)
        if (!fenced_[h])
            ++active;
    const bool dominant = share * active > 1.4;
    // Victim: the surviving host (other than the top talker) with
    // the worst read tail.
    std::int32_t victim = -1;
    double worst = -1.0;
    for (std::uint32_t h = 0; h < spec_.hosts; ++h) {
        if (h == top || fenced_[h])
            continue;
        const double p99 = hosts_[h].readHist.percentile(99.0);
        if (p99 > worst) {
            worst = p99;
            victim = static_cast<std::int32_t>(h);
        }
    }
    if (dominant && active > 1 && victim >= 0) {
        std::snprintf(buf, sizeof(buf),
                      "aggressor=host%u share=%.2f victim=host%d "
                      "port=%d",
                      top, share, victim, victim);
    } else {
        std::snprintf(buf, sizeof(buf), "no-aggressor max_share=%.2f",
                      share);
    }
    return buf + fabricSuffix;
}

void
Cluster::inject(std::uint32_t host, MemCmd cmd, Addr hostAddr,
                std::uint64_t value, InjectDone done)
{
    CXLMEMO_ASSERT(!exec_, "inject() drives the classic engine only");
    const PoolManager::Loc loc = fenced_[host]
                                     ? PoolManager::Loc{}
                                     : pool_->translate(host, hostAddr);
    CxlSwitch::Op op;
    op.addr = loc.addr;
    op.cmd = cmd;
    op.value = value;
    // Injected ops enter the switch directly; date the issue one port
    // hop back so the fabric attribution bracket (which charges both
    // port crossings to sw.wire) stays exact for them too.
    const Tick pl = sw_->params().portLatency;
    const Tick now = eq_.curTick();
    op.issued = now >= pl ? now - pl : 0;
    // Injected ops are traceable like workload traffic: litmus tests
    // rely on the span timeline to audit fence containment.
    TraceSpan *span = nullptr;
    if (hosts_[host].tracer) {
        span = hosts_[host].tracer->maybeStart(
            static_cast<std::uint16_t>(host), cmd, hostAddr,
            op.issued);
        RequestTracer::mark(span, TraceStage::SwM2s, op.issued);
    }
    op.span = span;
    op.done = [this, host, cmd, span, done = std::move(done)](
                  Tick d, CxlSwitch::Status st, std::uint64_t v) {
        if (span)
            hosts_[host].tracer->finish(span, d);
        const CxlSwitch::Status shaped = shapeStatus(host, cmd, st);
        if (done)
            done(d, shaped, v);
    };
    sw_->submit(host, loc.dev, std::move(op));
}

} // namespace cxlmemo
