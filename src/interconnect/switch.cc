#include "interconnect/switch.hh"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "sim/fabric_attrib.hh"
#include "sim/logging.hh"
#include "sim/statmerge.hh"
#include "sim/trace.hh"

namespace cxlmemo
{

void
CxlSwitchParams::validate() const
{
    if (ports == 0 || ports > 64)
        throw std::invalid_argument(
            "CxlSwitchParams: ports must be in [1, 64]");
    if (portLatency == 0)
        throw std::invalid_argument(
            "CxlSwitchParams: zero port latency breaks the "
            "parallel-engine lookahead");
    if (portGBps <= 0.0)
        throw std::invalid_argument(
            "CxlSwitchParams: port bandwidth must be positive");
    if (headerBytes == 0)
        throw std::invalid_argument(
            "CxlSwitchParams: header bytes must be nonzero");
}

void
SwitchPortStats::merge(const SwitchPortStats &o)
{
    mergeCounters(*this, o, &SwitchPortStats::reqs,
                  &SwitchPortStats::reads, &SwitchPortStats::writes,
                  &SwitchPortStats::reqBytes,
                  &SwitchPortStats::responses,
                  &SwitchPortStats::poisoned, &SwitchPortStats::aborted,
                  &SwitchPortStats::abortedInFlight,
                  &SwitchPortStats::droppedResponses,
                  &SwitchPortStats::creditStalls,
                  &SwitchPortStats::creditStallTicks,
                  &SwitchPortStats::heldWhileDown,
                  &SwitchPortStats::downs, &SwitchPortStats::retrains);
    mergeTimestamps(*this, o, &SwitchPortStats::downAt,
                    &SwitchPortStats::upAt, &SwitchPortStats::fencedAt);
}

const char *
portStateName(PortState s)
{
    switch (s) {
      case PortState::Up:
        return "up";
      case PortState::Down:
        return "down";
      case PortState::Fenced:
        return "fenced";
    }
    return "?";
}

CxlSwitch::CxlSwitch(EventQueue &eq, CxlSwitchParams params,
                     std::vector<MemoryDevice *> downstream)
    : eq_(eq), params_(std::move(params)), devices_(std::move(downstream))
{
    params_.validate();
    if (devices_.empty())
        throw std::invalid_argument("CxlSwitch: no downstream devices");
    for (MemoryDevice *d : devices_)
        if (!d)
            throw std::invalid_argument("CxlSwitch: null device");
    ports_.resize(params_.ports);
    for (Port &p : ports_) {
        p.voq.resize(devices_.size());
        if (params_.rdCredits > 0 || params_.wrCredits > 0) {
            p.credits = std::make_unique<LinkCredits>(
                params_.rdCredits, params_.wrCredits);
        }
    }
    xbar_.resize(devices_.size());
}

std::uint32_t
CxlSwitch::wireBytes(MemCmd cmd, std::uint32_t size, bool response) const
{
    const bool data = response ? !isWrite(cmd) : isWrite(cmd);
    return data ? size : params_.headerBytes;
}

void
CxlSwitch::submit(std::uint32_t port, std::uint32_t dev, Op op)
{
    CXLMEMO_ASSERT(port < ports_.size(), "submit on unknown port %u",
                   (unsigned)port);
    CXLMEMO_ASSERT(dev < devices_.size(), "submit to unknown device %u",
                   (unsigned)dev);
    Port &p = ports_[port];
    ++p.stats.reqs;
    if (isWrite(op.cmd))
        ++p.stats.writes;
    else
        ++p.stats.reads;
    p.stats.reqBytes += wireBytes(op.cmd, op.size, false);

    const Tick now = eq_.curTick();
    if (board_)
        board_->beginRequest(port, op.issued);
    if (p.state == PortState::Fenced) {
        completeAborted(port, std::move(op), now);
        return;
    }
    Pending pend{std::move(op), dev, now};
    if (p.state == PortState::Down) {
        ++p.stats.heldWhileDown;
        p.held.push_back(std::move(pend));
        return;
    }
    admit(port, std::move(pend));
}

void
CxlSwitch::admit(std::uint32_t port, Pending pend)
{
    Port &p = ports_[port];
    RequestTracer::mark(pend.op.span, TraceStage::SwCredit,
                        eq_.curTick());
    if (p.credits) {
        CreditPool &pool = isWrite(pend.op.cmd) ? p.credits->wr
                                                : p.credits->rd;
        // A zero-capacity class is uncapped (mirrors QosSpec).
        if (pool.capacity() > 0 && !pool.tryAcquire()) {
            ++p.stats.creditStalls;
            if (board_)
                board_->station(port, FabricStation::CreditWait)
                    .enter(eq_.curTick());
            p.creditWait.push_back(std::move(pend));
            return;
        }
    }
    if (board_)
        board_->station(port, FabricStation::CreditWait)
            .passThrough(0, 0, 0, true, eq_.curTick());
    enqueueVoq(port, std::move(pend));
}

void
CxlSwitch::enqueueVoq(std::uint32_t port, Pending pend)
{
    const std::uint32_t dev = pend.dev;
    RequestTracer::mark(pend.op.span, TraceStage::SwVoq, eq_.curTick());
    if (board_)
        board_->station(port, FabricStation::VoqWait)
            .enter(eq_.curTick());
    ports_[port].voq[dev].push_back(std::move(pend));
    arbitrate(dev);
}

void
CxlSwitch::arbitrate(std::uint32_t dev)
{
    Xbar &x = xbar_[dev];
    const Tick now = eq_.curTick();
    if (x.busy > now) {
        if (!x.kickScheduled) {
            x.kickScheduled = true;
            eq_.schedule(x.busy, [this, dev] {
                xbar_[dev].kickScheduled = false;
                arbitrate(dev);
            });
        }
        return;
    }

    // Grant: rotating cursor (or fixed priority) over the ports with
    // a non-empty VOQ for this device, FIFO within a port -- a pure
    // function of (tick, port rank, sequence).
    const auto nPorts = static_cast<std::uint32_t>(ports_.size());
    std::uint32_t pick = nPorts;
    if (params_.arb == CxlSwitchParams::Arb::RoundRobin) {
        for (std::uint32_t i = 1; i <= nPorts; ++i) {
            const std::uint32_t c = (x.cursor + i) % nPorts;
            if (!ports_[c].voq[dev].empty()) {
                pick = c;
                break;
            }
        }
        if (pick < nPorts)
            x.cursor = pick;
    } else {
        for (std::uint32_t c = 0; c < nPorts; ++c) {
            if (!ports_[c].voq[dev].empty()) {
                pick = c;
                break;
            }
        }
    }
    if (pick >= nPorts)
        return;

    Port &p = ports_[pick];
    Pending pend = std::move(p.voq[dev].front());
    p.voq[dev].pop_front();

    const Tick ser = serializationTicks(
        wireBytes(pend.op.cmd, pend.op.size, false), params_.portGBps);
    x.busy = now + ser;
    const Tick dispatch = x.busy + params_.forwardLatency;
    if (board_) {
        auto &voqSt = board_->station(pick, FabricStation::VoqWait);
        voqSt.exitNow(now);
        voqSt.account(now - pend.enq, 0, 0, true, now);
        // Arb service = crossbar serialization + forward pipeline;
        // only the serialization occupies the crossbar server.
        board_->station(pick, FabricStation::Arb)
            .passThrough(0, dispatch - now, ser, true, dispatch);
    }
    RequestTracer::mark(pend.op.span, TraceStage::SwXbar, now);
    RequestTracer::mark(pend.op.span, TraceStage::SwDev, dispatch);
    ++p.inFlight;
    const std::uint32_t slot =
        slots_.alloc(InFlight{std::move(pend.op), pick, dev, dispatch});

    eq_.schedule(dispatch, [this, slot, dev] {
        InFlight &f = slots_[slot];
        MemRequest req;
        req.addr = f.op.addr;
        req.size = f.op.size;
        req.cmd = f.op.cmd;
        req.source = static_cast<std::uint16_t>(f.port);
        req.onComplete = [this, slot](Tick t) { deviceDone(slot, t); };
        devices_[dev]->access(std::move(req));
    });

    // More work waiting? Re-arbitrate when the crossbar server frees.
    bool more = false;
    for (const Port &q : ports_)
        if (!q.voq[dev].empty())
            more = true;
    if (more && !x.kickScheduled) {
        x.kickScheduled = true;
        eq_.schedule(std::max(x.busy, now + 1), [this, dev] {
            xbar_[dev].kickScheduled = false;
            arbitrate(dev);
        });
    }
}

void
CxlSwitch::deviceDone(std::uint32_t slot, Tick now)
{
    InFlight &f = slots_[slot];
    Port &p = ports_[f.port];

    if (board_)
        board_->station(f.port, FabricStation::DevService)
            .passThrough(0, now - f.dispatch, now - f.dispatch, true,
                         now);

    // Functional commit/read at the deterministic device-completion
    // point. A fenced host's in-flight write still commits (the data
    // reached the device before the fence; quarantine + scrub wipes
    // the window anyway), but nothing is read back for it.
    if (dataHook_ && p.state != PortState::Fenced)
        f.op.value = dataHook_(f.dev, f.op.cmd, f.op.addr, f.op.value);

    if (p.state == PortState::Fenced) {
        ++p.stats.abortedInFlight;
        ++p.stats.droppedResponses;
        releaseCredit(f.port, f.op.cmd, now);
        completeAborted(f.port, std::move(f.op), now);
        --p.inFlight;
        slots_.free(slot);
        return;
    }
    if (p.state == PortState::Down) {
        ++p.stats.heldWhileDown;
        p.downResp.push_back(slot);
        return;
    }
    egress(slot, now);
}

void
CxlSwitch::egress(std::uint32_t slot, Tick now)
{
    InFlight &f = slots_[slot];
    Port &p = ports_[f.port];
    const Tick grant = std::max(now, p.egressBusy);
    const Tick ser = serializationTicks(
        wireBytes(f.op.cmd, f.op.size, true), params_.portGBps);
    p.egressBusy = grant + ser;
    if (board_)
        // Wire service folds in both port-latency hops (host->switch
        // on the way down, switch->host on the way back): fixed wire
        // propagation, so it never counts as server-busy time.
        board_->station(f.port, FabricStation::Wire)
            .passThrough(grant - now, ser + 2 * params_.portLatency,
                         ser, true, p.egressBusy + params_.portLatency);
    RequestTracer::mark(f.op.span, TraceStage::SwEgress, now);
    RequestTracer::mark(f.op.span, TraceStage::SwS2m, p.egressBusy);

    // One event at wire-departure time: the credit rides back with
    // the response, and the upstream delivery lands a port latency
    // later.
    eq_.schedule(p.egressBusy, [this, slot] {
        InFlight &g = slots_[slot];
        Port &q = ports_[g.port];
        const Tick t = eq_.curTick();
        releaseCredit(g.port, g.op.cmd, t);
        if (q.state == PortState::Fenced) {
            // Fenced between completion and departure: the response
            // is dropped on the wire.
            ++q.stats.abortedInFlight;
            ++q.stats.droppedResponses;
            completeAborted(g.port, std::move(g.op), t);
        } else {
            ++q.stats.responses;
            ++retired_;
            const Tick delivery = t + params_.portLatency;
            if (board_)
                board_->completeRequest(g.port, g.op.issued, delivery);
            auto done = std::move(g.op.done);
            done(delivery, Status::Ok, g.op.value);
        }
        --q.inFlight;
        slots_.free(slot);
    });
}

void
CxlSwitch::completeAborted(std::uint32_t port, Op op, Tick now)
{
    Port &p = ports_[port];
    const Status st = (p.fencePolicy == ContainPolicy::Poison
                       && !isWrite(op.cmd))
                          ? Status::Poisoned
                          : Status::Aborted;
    ++p.stats.aborted;
    if (st == Status::Poisoned)
        ++p.stats.poisoned;
    RequestTracer::mark(op.span, TraceStage::SwFenceAbort, now);
    if (board_)
        // The abort's unaccounted tail lands in the port's residual.
        board_->completeRequest(
            port, op.issued,
            now + params_.abortLatency + params_.portLatency);
    // Delivery tick includes the port latency, like every completion:
    // the caller may rely on a >= portLatency gap between the fabric
    // tick and the delivery tick (parallel-engine lookahead).
    eq_.schedule(now + params_.abortLatency,
                 [this, done = std::move(op.done), st]() mutable {
                     ++retired_;
                     done(eq_.curTick() + params_.portLatency, st, 0);
                 });
}

void
CxlSwitch::releaseCredit(std::uint32_t port, MemCmd cmd, Tick now)
{
    Port &p = ports_[port];
    if (!p.credits)
        return;
    CreditPool &pool = isWrite(cmd) ? p.credits->wr : p.credits->rd;
    if (pool.capacity() == 0)
        return;
    pool.release();
    // Wake waiters in strict FIFO order; a blocked head blocks the
    // port (per-port ordering is part of the determinism contract).
    while (!p.creditWait.empty()) {
        Pending &head = p.creditWait.front();
        CreditPool &hp = isWrite(head.op.cmd) ? p.credits->wr
                                              : p.credits->rd;
        if (hp.capacity() > 0) {
            if (hp.available() == 0)
                break;
            hp.tryAcquire();
            const Tick waited = now - head.enq;
            hp.noteStallEnd(waited);
            p.stats.creditStallTicks += waited;
        }
        Pending pend = std::move(p.creditWait.front());
        p.creditWait.pop_front();
        if (board_) {
            auto &cs =
                board_->station(port, FabricStation::CreditWait);
            cs.exitNow(now);
            cs.account(now - pend.enq, 0, 0, true, now);
        }
        pend.enq = now;
        enqueueVoq(port, std::move(pend));
    }
}

void
CxlSwitch::portDown(std::uint32_t port, Tick retrain)
{
    Port &p = ports_[port];
    if (p.state != PortState::Up)
        return;
    p.state = PortState::Down;
    ++p.stats.downs;
    p.stats.downAt = eq_.curTick();
    eq_.schedule(eq_.curTick() + retrain, [this, port] {
        Port &q = ports_[port];
        if (q.state != PortState::Down)
            return; // fenced mid-retrain: fencing already drained
        q.state = PortState::Up;
        ++q.stats.retrains;
        const Tick t = eq_.curTick();
        q.stats.upAt = t;
        // Release held traffic in arrival order, then held responses.
        while (!q.held.empty()) {
            Pending pend = std::move(q.held.front());
            q.held.pop_front();
            pend.enq = t;
            admit(port, std::move(pend));
        }
        while (!q.downResp.empty()) {
            const std::uint32_t slot = q.downResp.front();
            q.downResp.pop_front();
            egress(slot, t);
        }
    });
}

void
CxlSwitch::fencePort(std::uint32_t port, ContainPolicy policy)
{
    Port &p = ports_[port];
    if (p.state == PortState::Fenced)
        return;
    p.state = PortState::Fenced;
    p.fencePolicy = policy;
    const Tick now = eq_.curTick();
    p.stats.fencedAt = now;

    // Credit waiters never acquired a credit; abort directly.
    while (!p.creditWait.empty()) {
        Pending pend = std::move(p.creditWait.front());
        p.creditWait.pop_front();
        if (board_) {
            auto &cs =
                board_->station(port, FabricStation::CreditWait);
            cs.exitNow(now);
            cs.account(now - pend.enq, 0, 0, true, now);
        }
        completeAborted(port, std::move(pend.op), now);
    }
    // VOQ entries hold a credit; return it on the abort path so the
    // ledger (issued == returned + in_flight) survives the fence.
    for (auto &q : p.voq) {
        while (!q.empty()) {
            Pending pend = std::move(q.front());
            q.pop_front();
            if (board_) {
                auto &vs =
                    board_->station(port, FabricStation::VoqWait);
                vs.exitNow(now);
                vs.account(now - pend.enq, 0, 0, true, now);
            }
            releaseCredit(port, pend.op.cmd, now);
            completeAborted(port, std::move(pend.op), now);
        }
    }
    // Traffic parked by an outage never passed the credit gate.
    while (!p.held.empty()) {
        Pending pend = std::move(p.held.front());
        p.held.pop_front();
        completeAborted(port, std::move(pend.op), now);
    }
    // Responses parked by an outage: drop on the wire.
    while (!p.downResp.empty()) {
        const std::uint32_t slot = p.downResp.front();
        p.downResp.pop_front();
        InFlight &f = slots_[slot];
        ++p.stats.abortedInFlight;
        ++p.stats.droppedResponses;
        releaseCredit(port, f.op.cmd, now);
        completeAborted(port, std::move(f.op), now);
        --p.inFlight;
        slots_.free(slot);
    }
    // Requests the downstream device still owns abort at completion
    // (deviceDone checks the port state).
}

bool
CxlSwitch::creditLedgerOk() const
{
    for (const Port &p : ports_)
        if (p.credits && !p.credits->ledgerOk())
            return false;
    return true;
}

SwitchGauges
CxlSwitch::gauges() const
{
    SwitchGauges g;
    for (const Port &p : ports_) {
        g.creditWait += p.creditWait.size();
        for (const auto &q : p.voq)
            g.voq += q.size();
        g.inFlight += p.inFlight;
        g.held += p.held.size() + p.downResp.size();
    }
    return g;
}

std::uint64_t
CxlSwitch::progressOutstanding() const
{
    const SwitchGauges g = gauges();
    return g.creditWait + g.voq + g.inFlight + g.held;
}

std::string
CxlSwitch::progressDiagnosis() const
{
    std::ostringstream os;
    os << params_.name << ": " << ports_.size() << " ports, "
       << devices_.size() << " pooled devices\n";
    Tick oldest = maxTick;
    std::uint32_t oldestPort = 0;
    for (std::uint32_t i = 0; i < ports_.size(); ++i) {
        const Port &p = ports_[i];
        std::size_t voq = 0;
        Tick first = maxTick;
        for (const auto &q : p.voq) {
            voq += q.size();
            if (!q.empty())
                first = std::min(first, q.front().enq);
        }
        if (!p.creditWait.empty())
            first = std::min(first, p.creditWait.front().enq);
        if (!p.held.empty())
            first = std::min(first, p.held.front().enq);
        os << "  port" << i << " (host" << i
           << "): state=" << portStateName(p.state)
           << " credit-wait=" << p.creditWait.size() << " voq=" << voq
           << " in-flight=" << p.inFlight
           << " held=" << p.held.size() + p.downResp.size();
        if (first != maxTick) {
            os << " oldest-waiting=" << nsFromTicks(first) << " ns";
            if (first < oldest) {
                oldest = first;
                oldestPort = i;
            }
        }
        os << "\n";
    }
    if (oldest != maxTick) {
        os << "  stuck: port" << oldestPort << " (host" << oldestPort
           << "), oldest waiting request from "
           << nsFromTicks(oldest) << " ns\n";
    }
    return os.str();
}

std::string
CxlSwitch::progressInvariant() const
{
    for (std::uint32_t i = 0; i < ports_.size(); ++i) {
        const Port &p = ports_[i];
        if (p.credits && !p.credits->ledgerOk()) {
            return params_.name + ": credit ledger violated on port"
                   + std::to_string(i) + " (host" + std::to_string(i)
                   + ")";
        }
    }
    return {};
}

} // namespace cxlmemo
