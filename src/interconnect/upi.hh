/**
 * @file
 * UPI (Ultra Path Interconnect) model for remote-socket NUMA memory.
 *
 * The dual-socket testbed accesses the second socket's DDR5 through
 * UPI. Compared to the CXL path this link is faster (both in
 * serialization rate and latency), has per-message overheads of a
 * coherent fabric rather than 68 B flits, and fronts a full iMC with
 * deep queues -- so it is modelled as a rate limiter + latency adder
 * with no finite-buffer effects.
 */

#ifndef CXLMEMO_INTERCONNECT_UPI_HH
#define CXLMEMO_INTERCONNECT_UPI_HH

#include <memory>
#include <string>

#include "mem/dram.hh"
#include "mem/request.hh"
#include "sim/event_queue.hh"
#include "sim/histogram.hh"
#include "sim/slot_pool.hh"

namespace cxlmemo
{

/** UPI link + remote home-agent parameters. */
struct UpiParams
{
    std::string name = "remote0";

    /** Effective bandwidth per direction, GB/s (UPI x24 @ 16 GT/s,
     *  3 links aggregated on 8460H would be higher; a single-link
     *  path is assumed for the 1-channel comparison). */
    double linkGBps = 48.0;

    /** One-way link + remote home agent latency. */
    Tick hopLatency = ticksFromNs(32.0);

    /** Per-message header overhead on the link, bytes. */
    std::uint32_t headerBytes = 16;

    /** Channels on the remote socket used in the experiment
     *  (the paper populates exactly one for DDR5-R1). */
    std::uint32_t numChannels = 1;

    DramChannelParams channel;
};

/** Remote-socket memory node reachable over UPI. */
class UpiRemoteMemory : public MemoryDevice
{
  public:
    UpiRemoteMemory(EventQueue &eq, UpiParams params);

    void access(MemRequest req) override;
    const std::string &name() const override { return params_.name; }

    const UpiParams &params() const { return params_; }
    DeviceStats stats() const { return memory_->stats(); }
    void resetStats();
    std::uint64_t bytesDown() const { return bytesDown_; }
    std::uint64_t bytesUp() const { return bytesUp_; }

    /** Record end-to-end access latency (ticks) into a log-bucket
     *  histogram; off by default (no wrapper on the hot path). */
    void
    enableLatencyHistogram()
    {
        if (!latHist_)
            latHist_ = std::make_unique<LatencyHistogram>();
    }

    /** The access-latency histogram (nullptr unless enabled). */
    const LatencyHistogram *latencyHistogram() const
    {
        return latHist_.get();
    }

    /** Attach a latency-accounting station to the UPI hop itself. */
    void setStation(AccountedStation *station) { station_ = station; }

    /** Attach a station shared with the host DRAM channels to the
     *  remote socket's channels. */
    void
    setDramStation(AccountedStation *station)
    {
        memory_->setStation(station);
    }

    /** Request slots taken and not yet retired. */
    std::size_t slotsInUse() const { return slots_.inUse(); }

  private:
    Tick transmit(Tick &freeAt, std::uint32_t bytes, bool attrib);
    /** The request crossed the link: hand the remote socket a copy. */
    void deliver(std::uint32_t slot);
    /** The remote access finished: send the response back. */
    void returnHop(std::uint32_t slot);

    EventQueue &eq_;
    UpiParams params_;
    std::unique_ptr<InterleavedMemory> memory_;
    SlotPool<MemRequest> slots_; //!< requests between the two hops
    Tick downFreeAt_ = 0;
    Tick upFreeAt_ = 0;
    std::uint64_t bytesDown_ = 0;
    std::uint64_t bytesUp_ = 0;
    std::unique_ptr<LatencyHistogram> latHist_;
    AccountedStation *station_ = nullptr;
};

} // namespace cxlmemo

#endif // CXLMEMO_INTERCONNECT_UPI_HH
