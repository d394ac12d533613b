#include "interconnect/upi.hh"

#include <utility>

#include "sim/logging.hh"
#include "sim/trace.hh"

namespace cxlmemo
{

UpiRemoteMemory::UpiRemoteMemory(EventQueue &eq, UpiParams params)
    : eq_(eq), params_(std::move(params))
{
    memory_ = std::make_unique<InterleavedMemory>(
        eq, params_.name + ".ddr5", params_.channel, params_.numChannels);
}

Tick
UpiRemoteMemory::transmit(Tick &freeAt, std::uint32_t bytes, bool attrib)
{
    const Tick start = std::max(eq_.curTick(), freeAt);
    const Tick done = start + serializationTicks(bytes, params_.linkGBps);
    freeAt = done;
    // Only serialization occupies the wire; the hop latency is a
    // pipeline delay shared by in-flight flits.
    if (station_)
        station_->passThrough(start - eq_.curTick(),
                              done - start + params_.hopLatency,
                              /*busy=*/done - start, attrib,
                              done + params_.hopLatency);
    return done + params_.hopLatency;
}

void
UpiRemoteMemory::access(MemRequest req)
{
    if (latHist_) {
        req.onComplete = [this, t0 = eq_.curTick(),
                          cb = std::move(req.onComplete)](Tick t) mutable {
            latHist_->record(t - t0);
            if (cb)
                cb(t);
        };
    }
    RequestTracer::mark(req.span, TraceStage::Upi, eq_.curTick());
    const std::uint32_t down_bytes =
        params_.headerBytes + (isWrite(req.cmd) ? req.size : 0);
    bytesDown_ += down_bytes;
    const Tick delivered = transmit(downFreeAt_, down_bytes, req.attrib);
    const std::uint32_t slot = slots_.alloc(std::move(req));
    eq_.schedule(delivered, [this, slot] { deliver(slot); });
}

void
UpiRemoteMemory::deliver(std::uint32_t slot)
{
    MemRequest &r = slots_[slot];
    MemRequest remote;
    remote.addr = r.addr;
    remote.size = r.size;
    remote.cmd = r.cmd;
    remote.span = r.span;
    remote.attrib = r.attrib;
    // Posted-acceptance (NT stores) is signalled by the remote
    // channel's gate once the write arrives there.
    remote.onAccept = std::move(r.onAccept);
    remote.onComplete = [this, slot](Tick) { returnHop(slot); };
    memory_->access(std::move(remote));
}

void
UpiRemoteMemory::returnHop(std::uint32_t slot)
{
    const MemRequest &r = slots_[slot];
    const std::uint32_t up_bytes =
        params_.headerBytes + (isWrite(r.cmd) ? 0 : r.size);
    bytesUp_ += up_bytes;
    const Tick arrive = transmit(upFreeAt_, up_bytes, r.attrib);
    if (!r.onComplete) {
        slots_.free(slot);
        return;
    }
    eq_.schedule(arrive, [this, slot, arrive] {
        const MemRequest::Callback cb = std::move(slots_[slot].onComplete);
        // Free the slot first: the callback may re-enter access().
        slots_.free(slot);
        cb(arrive);
    });
}

void
UpiRemoteMemory::resetStats()
{
    memory_->resetStats();
    bytesDown_ = 0;
    bytesUp_ = 0;
    if (latHist_)
        latHist_->reset();
}

} // namespace cxlmemo
