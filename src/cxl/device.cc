#include "cxl/device.hh"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "sim/logging.hh"
#include "sim/trace.hh"

namespace cxlmemo
{

void
CxlDeviceParams::validate() const
{
    link.validate();
    backend.validate();
    if (readQueueEntries == 0)
        throw std::invalid_argument("CxlDeviceParams: no read trackers");
    if (writeBufferEntries == 0)
        throw std::invalid_argument("CxlDeviceParams: no write buffer");
    if (hostPostedEntries == 0)
        throw std::invalid_argument(
            "CxlDeviceParams: no host posted entries");
    if (backendChannels == 0)
        throw std::invalid_argument(
            "CxlDeviceParams: no backend channels");
}

CxlMemDevice::CxlMemDevice(EventQueue &eq, CxlDeviceParams params,
                           FaultInjector *faults, const QosSpec &qos)
    : eq_(eq),
      params_(std::move(params)),
      faults_(faults),
      down_(eq, params_.link, faults),
      up_(eq, params_.link, faults)
{
    params_.validate();
    qos.validate();
    if (qos.creditsEnabled()) {
        down_.enableCredits(qos.rdCredits, qos.wrCredits);
        creditRunLimit_ = qos.burstLines;
    }
    if (qos.enabled()) {
        meter_ = std::make_unique<DevLoadMeter>(qos);
        instrumented_ = true;
    }
    backend_ = std::make_unique<InterleavedMemory>(
        eq, params_.name + ".mem", params_.backend,
        params_.backendChannels, /*interleaveBytes=*/256, faults_);
}

void
CxlMemDevice::setAttribution(AttributionBoard *board)
{
    board_ = board;
    stCredit_ = &board->station(StationId::CxlCredit);
    stIngress_ = &board->station(StationId::CxlIngress);
    stEgress_ = &board->station(StationId::CxlEgress);
    down_.setStation(&board->station(StationId::CxlM2s));
    up_.setStation(&board->station(StationId::CxlS2m));
    backend_->setStation(&board->station(StationId::CxlBackend));
    board->setServers(StationId::CxlCredit, params_.hostPostedEntries,
                      /*buffer=*/true);
    // The read tracker and the write buffer gate independent message
    // classes; the binding class fills its own capacity, so the
    // utilization denominator is the larger of the two.
    board->setServers(StationId::CxlIngress,
                      std::max(params_.readQueueEntries,
                               params_.writeBufferEntries),
                      /*buffer=*/true);
    board->setServers(StationId::CxlBackend, params_.backendChannels);
}

void
CxlMemDevice::access(MemRequest req)
{
    if (instrumented_)
        ++hostInFlight_;
    if (latHist_) {
        req.onComplete = [this, t0 = eq_.curTick(),
                          cb = std::move(req.onComplete)](Tick t) mutable {
            latHist_->record(t - t0);
            if (cb)
                cb(t);
        };
    }
    const std::uint32_t slot = slots_.alloc(std::move(req));
    if (chaos_ && !chaos_->present) {
        abortRequest(slot, eq_.curTick());
        return;
    }
    MemRequest &r = slots_[slot];
    if (r.cmd == MemCmd::NtWrite) {
        if (ntPosted_ < params_.hostPostedEntries) {
            admitPosted(slot);
        } else {
            if (stCredit_) {
                // Posted-window exhaustion is device backpressure felt
                // at the host, like a credit stall.
                stCredit_->enter(eq_.curTick());
                r.attribMark = eq_.curTick();
            }
            postedGate_.push_back(slot);
        }
        return;
    }
    dispatch(slot);
}

void
CxlMemDevice::admitPosted(std::uint32_t slot)
{
    // The posted entry frees at the global-observability point (the
    // S2M NDR, i.e. controller acceptance): writeAcked releases it
    // just before the store's onComplete fires.
    ++ntPosted_;
    if (slots_[slot].onAccept) {
        const Tick now = eq_.curTick();
        eq_.schedule(now, [this, slot, now] {
            const MemRequest::Callback accept =
                std::move(slots_[slot].onAccept);
            accept(now);
        });
    }
    dispatch(slot);
}

void
CxlMemDevice::releasePosted()
{
    CXLMEMO_ASSERT(ntPosted_ > 0, "posted underflow");
    --ntPosted_;
    if (postedGate_.empty())
        return;
    const std::uint32_t waiting = postedGate_.front();
    postedGate_.pop_front();
    if (stCredit_) {
        const MemRequest &w = slots_[waiting];
        const Tick now = eq_.curTick();
        stCredit_->exitNow(now);
        stCredit_->account(now - w.attribMark, 0, /*busy=*/0, w.attrib,
                           now);
    }
    admitPosted(waiting);
}

void
CxlMemDevice::dispatch(std::uint32_t slot)
{
    if (LinkCredits *lc = down_.credits()) {
        const MemRequest &req = slots_[slot];
        CreditPool &pool = isWrite(req.cmd) ? lc->wr : lc->rd;
        if (pool.capacity() > 0 && !pool.tryAcquire()) {
            // Out of credits for this message class: the sender stalls
            // locally. tryAcquire() counted the stall; the waited time
            // is accounted when the freeing response wakes us.
            RequestTracer::mark(req.span, TraceStage::CxlCredit,
                                eq_.curTick());
            if (stCredit_)
                stCredit_->enter(eq_.curTick());
            auto &wait = isWrite(req.cmd) ? wrCreditWait_ : rdCreditWait_;
            wait.emplace_back(slot, eq_.curTick());
            qosSample();
            return;
        }
    }
    dispatchAttempt(slot, 0);
}

CxlMemDevice::CreditWaiter
CxlMemDevice::popCreditWaiter(std::deque<CreditWaiter> &wait,
                              std::uint16_t &serveSource,
                              std::uint32_t &serveRun)
{
    // Continue the current source's stint if it still has a waiter and
    // the run bound is not exhausted; otherwise start a new stint at
    // the overall-oldest waiter. Stints are bounded, so every source
    // is reached in at most (sources - 1) * creditRunLimit_ grants:
    // batching, not starvation.
    if (serveRun < creditRunLimit_) {
        for (auto it = wait.begin(); it != wait.end(); ++it) {
            if (slots_[it->first].source == serveSource) {
                const CreditWaiter entry = *it;
                wait.erase(it);
                ++serveRun;
                return entry;
            }
        }
    }
    const CreditWaiter entry = wait.front();
    wait.pop_front();
    serveSource = slots_[entry.first].source;
    serveRun = 1;
    return entry;
}

void
CxlMemDevice::releaseCredit(bool write, Tick now)
{
    LinkCredits *lc = down_.credits();
    if (!lc)
        return;
    CreditPool &pool = write ? lc->wr : lc->rd;
    if (pool.capacity() == 0)
        return;
    pool.release();
    auto &wait = write ? wrCreditWait_ : rdCreditWait_;
    if (!wait.empty()) {
        const auto [slot, since] =
            write ? popCreditWaiter(wait, wrServeSource_, wrServeRun_)
                  : popCreditWaiter(wait, rdServeSource_, rdServeRun_);
        pool.noteStallEnd(now - since);
        const MemRequest &req = slots_[slot];
        if (stCredit_) {
            stCredit_->exitNow(now);
            stCredit_->account(now - since, 0, /*busy=*/0, req.attrib,
                               now);
        }
        if (req.source >= sourceCreditStall_.size())
            sourceCreditStall_.resize(req.source + 1);
        sourceCreditStall_[req.source] += now - since;
        const bool got = pool.tryAcquire();
        CXLMEMO_ASSERT(got, "credit vanished between release and acquire");
        dispatchAttempt(slot, 0);
    }
    qosSample();
}

void
CxlMemDevice::noteResponse(bool write, Tick at)
{
    if (instrumented_) {
        ++retired_;
        CXLMEMO_ASSERT(hostInFlight_ > 0, "host in-flight underflow");
        --hostInFlight_;
    }
    releaseCredit(write, at);
    if (meter_ && loadSink_)
        loadSink_(meter_->level(), at);
}

void
CxlMemDevice::qosSample()
{
    if (!meter_)
        return;
    double wr =
        static_cast<double>(writesBuffered_ + writeWaitQueue_.size())
        / params_.writeBufferEntries;
    double rd =
        static_cast<double>(readsInFlight_ + readWaitQueue_.size())
        / params_.readQueueEntries;
    // Deliberately excludes the credit-wait queues: DevLoad is the
    // device reporting its *internal* queue state, and sender-side
    // credit stalls are not visible to it.
    meter_->sample(std::max(wr, rd), eq_.curTick());
}

void
CxlMemDevice::dispatchAttempt(std::uint32_t slot, std::uint32_t attempt)
{
    const MemRequest &req = slots_[slot];
    const bool write = isWrite(req.cmd);
    const std::uint32_t cost =
        write ? params_.link.dataBytes : params_.link.headerBytes;

    if (faults_) {
        const FaultSpec &fs = faults_->spec();
        // Note: when the budget is exhausted, requestTimedOut() is
        // *not* consulted (short-circuit), so the RNG stream -- and
        // with it every injected-fault sequence -- is unchanged.
        if (attempt >= fs.maxHostRetries) {
            CXLMEMO_WARN_ONCE(
                "%s: host retry budget (%u) exhausted; delivering "
                "without timeout protection", params_.name.c_str(),
                fs.maxHostRetries);
        }
        if (attempt < fs.maxHostRetries && faults_->requestTimedOut()) {
            // The attempt goes out on the wire but the controller never
            // answers: the host burns the link capacity, waits out its
            // completion timer, backs off exponentially and reissues.
            down_.transmit(cost, req.attrib);
            RasStats &rs = faults_->stats();
            rs.timeouts++;
            rs.hostRetries++;
            const Tick backoff =
                std::min<Tick>(fs.backoffBase << attempt,
                               fs.backoffBase * 16);
            const Tick delay = fs.requestTimeout + backoff;
            rs.backoffTicks += delay;
            eq_.scheduleIn(delay, [this, slot, attempt] {
                dispatchAttempt(slot, attempt + 1);
            });
            return;
        }
    }

    RequestTracer::mark(req.span, TraceStage::CxlM2s, eq_.curTick());
    const Tick delivered = down_.transmit(cost, req.attrib);
    const Tick at_controller = delivered + params_.controllerIngress;
    eq_.schedule(at_controller, [this, slot, write] {
        if (write)
            writeArrived(slot);
        else
            readArrived(slot);
    });
}

void
CxlMemDevice::readArrived(std::uint32_t slot)
{
    const MemRequest &req = slots_[slot];
    RequestTracer::mark(req.span, TraceStage::CxlIngress, eq_.curTick());
    if (board_)
        board_->noteDeviceOp(/*write=*/false);
    if (stIngress_) {
        // Two station visits: the fixed ingress pipeline, then
        // residency in the read tracker (begins now, even if the
        // request first sits in the overflow wait queue).
        stIngress_->passThrough(0, params_.controllerIngress, /*busy=*/0,
                                req.attrib, eq_.curTick());
        stIngress_->enter(eq_.curTick());
    }
    if (readsInFlight_ < params_.readQueueEntries) {
        admitRead(slot);
    } else {
        ctrlStats_.readsStalled++;
        readWaitQueue_.push(slot, req.source, eq_.curTick());
    }
    qosSample();
}

void
CxlMemDevice::writeArrived(std::uint32_t slot)
{
    const MemRequest &req = slots_[slot];
    RequestTracer::mark(req.span, TraceStage::CxlIngress, eq_.curTick());
    if (board_)
        board_->noteDeviceOp(/*write=*/true);
    if (stIngress_) {
        stIngress_->passThrough(0, params_.controllerIngress, /*busy=*/0,
                                req.attrib, eq_.curTick());
        stIngress_->enter(eq_.curTick());
    }
    if (writesBuffered_ < params_.writeBufferEntries) {
        admitWrite(slot);
    } else {
        ctrlStats_.writesStalled++;
        writeWaitQueue_.push(slot, req.source, eq_.curTick());
    }
    qosSample();
}

void
CxlMemDevice::admitRead(std::uint32_t slot)
{
    ++readsInFlight_;
    MemRequest &req = slots_[slot];
    if (stIngress_)
        req.attribMark = eq_.curTick();
    MemRequest backend_req;
    backend_req.addr = req.addr;
    backend_req.size = req.size;
    backend_req.cmd = req.cmd;
    backend_req.span = req.span;
    backend_req.attrib = req.attrib;
    backend_req.onComplete = [this, slot](Tick) { readBackendDone(slot); };
    backend_->access(std::move(backend_req));
}

void
CxlMemDevice::readBackendDone(std::uint32_t slot)
{
    // Data is back from DDR4: free the tracker, then pipe the response
    // through the egress pipeline and the S2M link.
    CXLMEMO_ASSERT(readsInFlight_ > 0, "read tracker underflow");
    --readsInFlight_;
    const Tick now = eq_.curTick();
    if (stIngress_) {
        // Tracker residency overlaps the back-end service, so it is
        // all-traffic occupancy/service, never part of the bracketed
        // latency stack (no double counting).
        stIngress_->exitNow(now);
        stIngress_->account(0, now - slots_[slot].attribMark, /*busy=*/0,
                            false, now);
    }
    if (!readWaitQueue_.empty()) {
        const auto [waiting, since] = readWaitQueue_.pop();
        ctrlStats_.readStallTicks += now - since;
        if (stIngress_)
            stIngress_->account(now - since, 0, /*busy=*/0,
                                slots_[waiting].attrib, now);
        admitRead(waiting);
    }
    // The DRAM array may hand back a poisoned line; the DRS flit
    // carries the poison bit to the consumer (no timing change, but
    // the delivery must never be silent).
    const bool poisoned = faults_ && faults_->poisonRead();
    if (poisoned)
        faults_->stats().poisonInjected++;
    qosSample();
    const MemRequest &req = slots_[slot];
    RequestTracer::mark(req.span, TraceStage::CxlEgress, now);
    if (stEgress_)
        stEgress_->passThrough(0, params_.controllerEgress, /*busy=*/0,
                               req.attrib, now + params_.controllerEgress);
    eq_.scheduleIn(params_.controllerEgress, [this, slot, poisoned] {
        readEgress(slot, poisoned);
    });
}

void
CxlMemDevice::readEgress(std::uint32_t slot, bool poisoned)
{
    const MemRequest &req = slots_[slot];
    RequestTracer::mark(req.span, TraceStage::CxlS2m, eq_.curTick());
    const Tick arrive = up_.transmit(params_.link.dataBytes, req.attrib);
    // The S2M DRS delivery also carries the read-class credit and the
    // DevLoad field back to the host, so instrumented devices need the
    // event even for fire-and-forget reads.
    if (!req.onComplete && !poisoned && !instrumented_) {
        slots_.free(slot);
        return;
    }
    eq_.schedule(arrive, [this, slot, poisoned, arrive] {
        readDelivered(slot, poisoned, arrive);
    });
}

void
CxlMemDevice::readDelivered(std::uint32_t slot, bool poisoned, Tick arrive)
{
    noteResponse(/*write=*/false, arrive);
    bool armed = poisoned;
    // An in-flight read caught by a hot-remove is contained like a
    // fresh arrival: its data is suspect the moment the device
    // vanished.
    const bool removed = chaos_ && !chaos_->present;
    if (removed && faults_) {
        if (chaos_->stats.removeDetectAt == 0)
            chaos_->stats.removeDetectAt = arrive;
        if (!armed) {
            faults_->stats().poisonInjected++;
            armed = true;
        }
        if (chaos_->spec.contain == ContainPolicy::Abort) {
            faults_->stats().poisonContained++;
            armed = false;
        }
    }
    MemRequest &req = slots_[slot];
    const Addr addr = req.addr;
    const MemRequest::Callback cb = std::move(req.onComplete);
    // Free the slot first: the callback may re-enter access().
    slots_.free(slot);
    if (armed)
        faults_->armPoison();
    if (cb)
        cb(arrive);
    // Anything not absorbed by the cache hierarchy reached a
    // non-caching consumer.
    if (armed && faults_->consumePoison()) {
        faults_->stats().poisonDelivered++;
        CXLMEMO_WARN_RATELIMITED(8,
            "%s: poisoned line delivered to non-caching consumer "
            "(addr 0x%llx)",
            params_.name.c_str(), static_cast<unsigned long long>(addr));
    }
}

void
CxlMemDevice::admitWrite(std::uint32_t slot)
{
    ++writesBuffered_;
    ctrlStats_.writeBufferHighWater =
        std::max(ctrlStats_.writeBufferHighWater, writesBuffered_);
    MemRequest &req = slots_[slot];
    if (stIngress_)
        req.attribMark = eq_.curTick();

    // CXL.mem acknowledges a write (S2M NDR) once the controller has
    // accepted the data; draining to DDR4 happens in the background.
    // The NDR also carries the write-class credit and DevLoad field,
    // and frees an NT store's posted entry.
    // (The background drain is a fresh request with no span: the
    // traced lifecycle ends at the acknowledgement the host observes.)
    RequestTracer::mark(req.span, TraceStage::CxlS2m, eq_.curTick());
    const Tick arrive = up_.transmit(params_.link.headerBytes, req.attrib);
    const Addr addr = req.addr;
    const std::uint32_t size = req.size;
    const MemCmd cmd = req.cmd;
    const Tick mark = req.attribMark;
    if (cmd == MemCmd::NtWrite || req.onComplete || instrumented_) {
        eq_.schedule(arrive,
                     [this, slot, arrive] { writeAcked(slot, arrive); });
    } else {
        slots_.free(slot);
    }

    if (faults_ && faults_->drainStall()) {
        // Stuck/slow-drain episode: the buffered line sits in the
        // controller before draining, holding its entry (and thus
        // backpressure) for the episode length.
        faults_->stats().drainStalls++;
        eq_.scheduleIn(faults_->spec().drainStallTicks,
                       [this, addr, size, cmd, mark] {
            drainWrite(addr, size, cmd, mark);
        });
    } else {
        drainWrite(addr, size, cmd, mark);
    }
}

void
CxlMemDevice::writeAcked(std::uint32_t slot, Tick arrive)
{
    noteResponse(/*write=*/true, arrive);
    MemRequest &req = slots_[slot];
    const bool posted = req.cmd == MemCmd::NtWrite;
    const MemRequest::Callback cb = std::move(req.onComplete);
    // Free the slot first: the callback may re-enter access().
    slots_.free(slot);
    if (posted)
        releasePosted();
    if (cb)
        cb(arrive);
}

void
CxlMemDevice::drainWrite(Addr addr, std::uint32_t size, MemCmd cmd,
                         Tick mark)
{
    MemRequest drain;
    drain.addr = addr;
    drain.size = size;
    drain.cmd = cmd;
    drain.onComplete = [this, mark](Tick) {
        CXLMEMO_ASSERT(writesBuffered_ > 0, "write buffer underflow");
        --writesBuffered_;
        const Tick now = eq_.curTick();
        if (stIngress_) {
            stIngress_->exitNow(now);
            stIngress_->account(0, now - mark, /*busy=*/0, false, now);
        }
        if (instrumented_)
            ++retired_; // a drained line is forward progress too
        if (!writeWaitQueue_.empty()) {
            const auto [waiting, since] = writeWaitQueue_.pop();
            ctrlStats_.writeStallTicks += now - since;
            if (stIngress_)
                stIngress_->account(now - since, 0, /*busy=*/0,
                                    slots_[waiting].attrib, now);
            admitWrite(waiting);
        }
        qosSample();
    };
    backend_->access(std::move(drain));
}

/* ------------------- failure lifecycle (chaos) ------------------- */

void
CxlMemDevice::armChaos(const ChaosSpec &spec)
{
    spec.validate();
    CXLMEMO_ASSERT(!chaos_, "%s: chaos already armed",
                   params_.name.c_str());
    chaos_ = std::make_unique<DeviceChaos>();
    chaos_->spec = spec;
    down_.setLifecycle(&chaos_->link);
    up_.setLifecycle(&chaos_->link);
    chaos_->link.ceilingBurst = spec.crcBurstTrigger;
    chaos_->link.onCeilingBurst = [this](Tick at) {
        announce(at, "CRC burst at degradation ceiling");
        beginLinkOutage(at);
    };
    // Containment accounting rides the response-delivery event, so
    // every response needs one.
    instrumented_ = true;
    if (spec.linkDownAtNs > 0) {
        eq_.schedule(
            ticksFromNs(static_cast<double>(spec.linkDownAtNs)),
            [this] { beginLinkOutage(eq_.curTick()); });
    }
    if (spec.removeAtNs > 0) {
        eq_.schedule(ticksFromNs(static_cast<double>(spec.removeAtNs)),
                     [this] { hotRemove(eq_.curTick()); });
    }
    if (spec.readdAtNs > 0) {
        eq_.schedule(ticksFromNs(static_cast<double>(spec.readdAtNs)),
                     [this] { hotReadd(eq_.curTick()); });
    }
}

void
CxlMemDevice::announce(Tick at, const std::string &text)
{
    if (chaosAnnounce_)
        chaosAnnounce_(at, text);
}

void
CxlMemDevice::beginLinkOutage(Tick now)
{
    DeviceChaos &c = *chaos_;
    if (c.link.downUntil > now)
        return; // already down / retraining
    const Tick retrain = ticksFromNs(c.spec.retrainNs);
    c.link.downUntil = now + retrain;
    c.link.detectAt = 0;
    c.link.ceilingBurst = 0; // re-armed once back at full width
    ++c.stats.linkDowns;
    c.stats.linkDownAt = now;
    announce(now, "link DOWN, retraining");
    eq_.schedule(c.link.downUntil,
                 [this] { retrainComplete(eq_.curTick()); });
}

void
CxlMemDevice::retrainComplete(Tick at)
{
    DeviceChaos &c = *chaos_;
    ++c.stats.retrains;
    c.stats.linkUpAt = at;
    // Real links re-enter at reduced width/speed and renegotiate up.
    down_.setDegradeLevel(2);
    up_.setDegradeLevel(2);
    announce(at, "link retrained at degraded width (level 2)");
    eq_.schedule(at + ticksFromNs(c.spec.stepUpNs),
                 [this] { stepUpWidth(eq_.curTick()); });
}

void
CxlMemDevice::stepUpWidth(Tick at)
{
    DeviceChaos &c = *chaos_;
    const std::uint32_t lvl = down_.degradeLevel();
    if (lvl == 0)
        return;
    down_.setDegradeLevel(lvl - 1);
    up_.setDegradeLevel(lvl - 1);
    ++c.stats.widthStepUps;
    if (lvl - 1 == 0) {
        c.stats.linkFullWidthAt = at;
        c.link.ceilingBurst = c.spec.crcBurstTrigger;
        announce(at, "link back at full width");
    } else {
        announce(at, "link width step-up (level "
                         + std::to_string(lvl - 1) + ")");
        eq_.schedule(at + ticksFromNs(c.spec.stepUpNs),
                     [this] { stepUpWidth(eq_.curTick()); });
    }
}

void
CxlMemDevice::hotRemove(Tick at)
{
    DeviceChaos &c = *chaos_;
    if (!c.present)
        return;
    c.present = false;
    ++c.stats.removals;
    c.stats.removeAt = at;
    announce(at, std::string("device hot-removed (contain=")
                     + containPolicyName(c.spec.contain) + ")");
}

void
CxlMemDevice::hotReadd(Tick at)
{
    DeviceChaos &c = *chaos_;
    if (c.present)
        return;
    c.present = true;
    ++c.stats.readds;
    c.stats.readdAt = at;
    announce(at, "device re-added (capacity restored empty)");
}

void
CxlMemDevice::abortRequest(std::uint32_t slot, Tick now)
{
    DeviceChaos &c = *chaos_;
    if (c.stats.removeDetectAt == 0)
        c.stats.removeDetectAt = now;
    const MemRequest &req = slots_[slot];
    const bool write = isWrite(req.cmd);
    if (write)
        ++c.stats.abortedWrites;
    else
        ++c.stats.abortedReads;
    c.stats.abortedBytes += req.size;
    const Tick done = now + ticksFromNs(c.spec.abortNs);
    // NT stores wait for acceptance before releasing their WC buffer;
    // an aborted store is "accepted" by the error response.
    if (req.onAccept) {
        eq_.schedule(done, [this, slot, done] {
            const MemRequest::Callback accept =
                std::move(slots_[slot].onAccept);
            accept(done);
        });
    }
    const bool poison = !write && faults_ != nullptr;
    eq_.schedule(done, [this, slot, poison, done] {
        if (poison) {
            RasStats &rs = faults_->stats();
            rs.poisonInjected++;
            if (chaos_->spec.contain == ContainPolicy::Poison)
                faults_->armPoison();
            else
                rs.poisonContained++;
        }
        if (instrumented_) {
            ++retired_;
            CXLMEMO_ASSERT(hostInFlight_ > 0, "host in-flight underflow");
            --hostInFlight_;
        }
        const MemRequest::Callback cb = std::move(slots_[slot].onComplete);
        // Free the slot first: the callback may re-enter access().
        slots_.free(slot);
        if (cb)
            cb(done);
        if (poison && chaos_->spec.contain == ContainPolicy::Poison
            && faults_->consumePoison())
            faults_->stats().poisonDelivered++;
    });
}

ChaosStats
CxlMemDevice::chaosStats() const
{
    if (!chaos_)
        return {};
    ChaosStats s = chaos_->stats;
    s.blockedMsgs = chaos_->link.blockedMsgs;
    s.linkDetectAt = chaos_->link.detectAt;
    return s;
}

void
CxlMemDevice::fillQosStats(QosStats &qs) const
{
    if (const LinkCredits *lc = down_.credits()) {
        qs.rdCreditStalls = lc->rd.stalls();
        qs.wrCreditStalls = lc->wr.stalls();
        qs.creditStallTicks = lc->rd.stallTicks() + lc->wr.stallTicks();
        qs.rdIssued = lc->rd.issued();
        qs.rdReturned = lc->rd.returned();
        qs.rdInFlight = lc->rd.inFlight();
        qs.wrIssued = lc->wr.issued();
        qs.wrReturned = lc->wr.returned();
        qs.wrInFlight = lc->wr.inFlight();
        qs.ledgerOk = lc->ledgerOk();
    }
    qs.devLoad = devLoad();
}

namespace
{

void
queueLine(std::ostream &os, const char *label, std::size_t depth,
          std::optional<Tick> oldest, Tick now)
{
    os << "    " << label << ": depth " << depth;
    if (oldest)
        os << ", oldest waiting " << nsFromTicks(now - *oldest) << " ns";
    os << "\n";
}

std::optional<Tick>
frontSince(const std::deque<std::pair<std::uint32_t, Tick>> &q)
{
    if (q.empty())
        return std::nullopt;
    return q.front().second;
}

} // namespace

std::string
CxlMemDevice::progressDiagnosis() const
{
    const Tick now = eq_.curTick();
    std::ostringstream os;
    os << "    trackers: reads-in-flight " << readsInFlight_ << "/"
       << params_.readQueueEntries << ", writes-buffered "
       << writesBuffered_ << "/" << params_.writeBufferEntries
       << ", nt-posted " << ntPosted_ << "/" << params_.hostPostedEntries
       << "\n";
    queueLine(os, "read-wait", readWaitQueue_.size(),
              readWaitQueue_.oldestSince(), now);
    queueLine(os, "write-wait", writeWaitQueue_.size(),
              writeWaitQueue_.oldestSince(), now);
    os << "    posted-gate: depth " << postedGate_.size() << "\n";
    queueLine(os, "rd-credit-wait", rdCreditWait_.size(),
              frontSince(rdCreditWait_), now);
    queueLine(os, "wr-credit-wait", wrCreditWait_.size(),
              frontSince(wrCreditWait_), now);
    if (const LinkCredits *lc = down_.credits()) {
        os << "    credit ledger: rd " << lc->rd.issued() << "/"
           << lc->rd.returned() << "/" << lc->rd.inFlight() << " of "
           << lc->rd.capacity() << ", wr " << lc->wr.issued() << "/"
           << lc->wr.returned() << "/" << lc->wr.inFlight() << " of "
           << lc->wr.capacity() << " (issued/returned/in-flight), "
           << (lc->ledgerOk() ? "ok" : "LEAK") << "\n";
    }

    // Name the stuck queue: the one holding the oldest waiter.
    const char *stuck = nullptr;
    Tick stuckSince = 0;
    auto consider = [&](const char *name, std::optional<Tick> since) {
        if (since && (!stuck || *since < stuckSince)) {
            stuck = name;
            stuckSince = *since;
        }
    };
    consider("read-wait", readWaitQueue_.oldestSince());
    consider("write-wait", writeWaitQueue_.oldestSince());
    consider("rd-credit-wait", frontSince(rdCreditWait_));
    consider("wr-credit-wait", frontSince(wrCreditWait_));
    if (stuck) {
        os << "    stuck queue: " << stuck << " (oldest request waiting "
           << nsFromTicks(now - stuckSince) << " ns)\n";
    }
    return os.str();
}

std::string
CxlMemDevice::progressInvariant() const
{
    const LinkCredits *lc = down_.credits();
    if (!lc)
        return {};
    std::ostringstream os;
    if (!lc->rd.ledgerOk()) {
        os << "rd credit ledger broken: issued " << lc->rd.issued()
           << " != returned " << lc->rd.returned() << " + in-flight "
           << lc->rd.inFlight();
        return os.str();
    }
    if (!lc->wr.ledgerOk()) {
        os << "wr credit ledger broken: issued " << lc->wr.issued()
           << " != returned " << lc->wr.returned() << " + in-flight "
           << lc->wr.inFlight();
        return os.str();
    }
    return {};
}

void
CxlMemDevice::resetStats()
{
    backend_->resetStats();
    down_.resetStats();
    up_.resetStats();
    ctrlStats_.reset();
    std::fill(sourceCreditStall_.begin(), sourceCreditStall_.end(), 0);
    if (latHist_)
        latHist_->reset();
}

} // namespace cxlmemo
