/**
 * @file
 * CXL Type-3 memory expander model: the Intel Agilex-I development
 * kit of the paper's testbed (hardened CXL 1.1 IP, one DDR4-2666
 * DIMM behind it).
 *
 * Transaction flow (paper Fig. 1):
 *
 *   host read:   M2S Req  --link-->  controller  -->  DDR4 channel
 *                host  <--link--  S2M DRS (data)
 *   host write:  M2S RwD (data) --link--> controller buffer
 *                host  <--link--  S2M NDR (completion on acceptance)
 *                buffer --drains--> DDR4 channel
 *
 * The controller tracks reads and buffered writes in *finite* queues.
 * When the write buffer is full, incoming writes wait at the link
 * egress -- this is the buffer-overflow behaviour the paper blames
 * for the non-temporal-store throughput collapse beyond a few
 * threads (Sec. 4.3.2).
 */

#ifndef CXLMEMO_CXL_DEVICE_HH
#define CXLMEMO_CXL_DEVICE_HH

#include <cstdlib>
#include <deque>
#include <functional>
#include <optional>
#include <vector>
#include <memory>
#include <string>

#include "cxl/link.hh"
#include "mem/dram.hh"
#include "mem/request.hh"
#include "sim/chaos.hh"
#include "sim/event_queue.hh"
#include "sim/histogram.hh"
#include "sim/qos.hh"
#include "sim/slot_pool.hh"
#include "sim/watchdog.hh"

namespace cxlmemo
{

/** Configuration of the CXL memory device. */
struct CxlDeviceParams
{
    std::string name = "cxl0";

    CxlLinkParams link;

    /** Controller pipeline latency, ingress direction (host->DRAM). */
    Tick controllerIngress = ticksFromNs(40.0);

    /** Controller pipeline latency, egress direction (DRAM->host). */
    Tick controllerEgress = ticksFromNs(40.0);

    /** Read tracker entries (caps device-side read MLP). */
    std::uint32_t readQueueEntries = 48;

    /** Write buffer entries (lines); writes are acknowledged on
     *  acceptance but occupy an entry until drained to DRAM. */
    std::uint32_t writeBufferEntries = 24;

    /** Host-side posted-write slots for NT stores: how many NT writes
     *  may be in flight (posted but not yet accepted by the device
     *  controller) before WC-buffer release backpressures. */
    std::uint32_t hostPostedEntries = 64;

    /** Memory channels behind the controller (the Agilex kit has a
     *  single DDR4-2666 DIMM; the paper anticipates future devices
     *  with more channels and DRAM-class bandwidth). */
    std::uint32_t backendChannels = 1;
    DramChannelParams backend;

    /** Throws std::invalid_argument on out-of-range values (link and
     *  backend params included). */
    void validate() const;
};

/** Occupancy / stall statistics of the CXL controller. */
struct CxlControllerStats
{
    std::uint64_t readStallTicks = 0;  //!< reads held waiting for a tracker
    std::uint64_t writeStallTicks = 0; //!< writes held waiting for buffer
    std::uint64_t readsStalled = 0;
    std::uint64_t writesStalled = 0;
    std::uint32_t writeBufferHighWater = 0;

    /** Clear all counters (between sweep points reusing a device). */
    void reset() { *this = CxlControllerStats{}; }
};

/**
 * Fair-share ingress queue: the FPGA controller arbitrates waiting
 * requests round-robin across requesting agents. This is what
 * interleaves many threads' streams at line granularity and destroys
 * the row locality the DDR4 back-end depends on -- the paper's
 * "requests with fewer patterns as the thread count increased"
 * (Sec. 4.3.1). Entries are the device's request slots.
 */
class FairWaitQueue
{
  public:
    /** Queue @p slot, a request from agent @p source, at @p when. */
    void
    push(std::uint32_t slot, std::uint16_t source, Tick when)
    {
        if (source >= bySource_.size())
            bySource_.resize(source + 1);
        bySource_[source].emplace_back(slot, when);
        ++count_;
    }

    bool empty() const { return count_ == 0; }
    std::size_t size() const { return count_; }

    /** Arrival tick of the oldest queued request (diagnosis). Each
     *  per-source deque is FIFO, so the oldest entry is some front. */
    std::optional<Tick>
    oldestSince() const
    {
        std::optional<Tick> oldest;
        for (const auto &q : bySource_) {
            if (!q.empty()
                && (!oldest || q.front().second < *oldest)) {
                oldest = q.front().second;
            }
        }
        return oldest;
    }

    /** Pop the next (slot, arrival tick), rotating across non-empty
     *  sources. */
    std::pair<std::uint32_t, Tick>
    pop()
    {
        for (std::size_t i = 0; i < bySource_.size(); ++i) {
            cursor_ = (cursor_ + 1) % bySource_.size();
            if (!bySource_[cursor_].empty()) {
                const auto out = bySource_[cursor_].front();
                bySource_[cursor_].pop_front();
                --count_;
                return out;
            }
        }
        // Callers check empty() first.
        std::abort();
    }

  private:
    std::vector<std::deque<std::pair<std::uint32_t, Tick>>> bySource_;
    std::size_t cursor_ = 0;
    std::size_t count_ = 0;
};

/**
 * The CXL Type-3 device as seen from the host home agent. Addresses
 * are device-local (host physical to HDM decoding happens in the NUMA
 * layer).
 */
class CxlMemDevice : public MemoryDevice, public ProgressSource
{
  public:
    /** @param faults optional fault injector (nullptr = healthy).
     *  @param qos optional overload-control model: credit pools on
     *         the M2S direction and/or DevLoad telemetry. The
     *         default (disabled) spec changes nothing. */
    CxlMemDevice(EventQueue &eq, CxlDeviceParams params,
                 FaultInjector *faults = nullptr,
                 const QosSpec &qos = {});

    void access(MemRequest req) override;
    const std::string &name() const override { return params_.name; }

    DeviceStats backendStats() const { return backend_->stats(); }
    const CxlControllerStats &controllerStats() const { return ctrlStats_; }
    std::uint64_t bytesDown() const { return down_.bytesMoved(); }
    std::uint64_t bytesUp() const { return up_.bytesMoved(); }

    /** RAS degradation state of each link direction (0 = full rate). */
    std::uint32_t downDegradeLevel() const { return down_.degradeLevel(); }
    std::uint32_t upDegradeLevel() const { return up_.degradeLevel(); }

    /** Occupancy gauges (monitoring / tests). */
    std::uint32_t readsInFlight() const { return readsInFlight_; }
    std::uint32_t writesBuffered() const { return writesBuffered_; }
    std::size_t readWaitDepth() const { return readWaitQueue_.size(); }
    std::size_t writeWaitDepth() const { return writeWaitQueue_.size(); }

    /* ---------------------- overload control --------------------- */

    /** Where this device's DevLoad telemetry (piggybacked on S2M
     *  responses) goes as (level, tick) samples: the Machine
     *  installs a sink that drives its host throttle, directly on the
     *  classic engine and posted into the host domain on the parallel
     *  one. No sink = no reaction. */
    void setLoadSink(std::function<void(DevLoad, Tick)> sink)
    {
        loadSink_ = std::move(sink);
    }

    /** Keep retired/outstanding counters for the watchdog even when
     *  QoS is disabled (adds response-delivery events; only called
     *  when a watchdog actually supervises this device). */
    void enableProgressTracking() { instrumented_ = true; }

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

    /** Attach the latency-accounting board: wires the credit gate,
     *  controller ingress/egress, both link directions and the
     *  back-end channels to their stations (sim/attribution.hh).
     *  Never called = all accounting off (the default). */
    void setAttribution(AttributionBoard *board);

    /** The credit-leak invariant across both message classes. */
    bool
    creditLedgerOk() const
    {
        const LinkCredits *lc = down_.credits();
        return lc == nullptr || lc->ledgerOk();
    }

    /** Current EWMA DevLoad signal (0 when telemetry is disabled). */
    double devLoad() const { return meter_ ? meter_->load() : 0.0; }

    /** Requests stalled waiting for an M2S credit right now. */
    std::size_t creditWaitDepth() const
    {
        return rdCreditWait_.size() + wrCreditWait_.size();
    }

    /** Credit-stall time attributed to requests of @p source (the
     *  issuing core), for per-thread stats reporting. */
    std::uint64_t
    creditStallTicks(std::uint16_t source) const
    {
        return source < sourceCreditStall_.size()
                   ? sourceCreditStall_[source]
                   : 0;
    }

    /** Fill the credit/telemetry half of machine-wide QoS stats. */
    void fillQosStats(QosStats &qs) const;

    /** Request slots taken and not yet retired. */
    std::size_t slotsInUse() const { return slots_.inUse(); }

    /* ------------------ failure lifecycle (chaos) ----------------- */

    /**
     * Arm the failure-lifecycle layer: schedules the scripted link
     * outage and hot-remove/re-add events on this device's own event
     * queue (so they stay domain-local in the parallel engine),
     * installs the CRC-ceiling outage trigger on both link
     * directions, and enables progress tracking so every response has
     * a delivery event to carry containment accounting. Never called
     * (the default) = zero chaos state, bit-identical behaviour.
     */
    void armChaos(const ChaosSpec &spec);

    /** Host-side announcement sink for chaos transitions (watchdog /
     *  flight recorder / attribution); called with the transition
     *  tick and a one-line description. In the parallel engine the
     *  Machine installs a sink that cross-posts into the host domain. */
    void
    setChaosAnnounce(std::function<void(Tick, const std::string &)> sink)
    {
        chaosAnnounce_ = std::move(sink);
    }

    /** Device-side chaos accounting (link FSM + removal FSM);
     *  all-zero when chaos is unarmed. */
    ChaosStats chaosStats() const;

    /* ----------------- ProgressSource (watchdog) ------------------ */

    std::string progressName() const override { return params_.name; }
    std::uint64_t progressRetired() const override { return retired_; }
    std::uint64_t progressOutstanding() const override
    {
        return hostInFlight_ + writesBuffered_;
    }
    std::string progressDiagnosis() const override;
    std::string progressInvariant() const override;

    void resetStats();

  private:
    /** (slot, tick it started waiting) of a credit-stalled request. */
    using CreditWaiter = std::pair<std::uint32_t, Tick>;

    /** A read request has arrived at the controller ingress. */
    void readArrived(std::uint32_t slot);
    /** A write (temporal or NT) has arrived at the controller ingress. */
    void writeArrived(std::uint32_t slot);

    void admitRead(std::uint32_t slot);
    void admitWrite(std::uint32_t slot);
    /** The back end returned a read's data: free its tracker, then
     *  pipe the response through the egress pipeline. */
    void readBackendDone(std::uint32_t slot);
    /** Egress done: send the DRS over the S2M link. */
    void readEgress(std::uint32_t slot, bool poisoned);
    /** The S2M DRS reached the host: retire the read. */
    void readDelivered(std::uint32_t slot, bool poisoned, Tick arrive);
    /** The S2M NDR reached the host: retire the write. */
    void writeAcked(std::uint32_t slot, Tick arrive);
    /** Drain a buffered write line to the back end. */
    void drainWrite(Addr addr, std::uint32_t size, MemCmd cmd, Tick mark);

    /** Host-side posted gate for NT stores. */
    void admitPosted(std::uint32_t slot);
    /** An NT store's posted entry freed: admit the next gated one. */
    void releasePosted();
    /** Transmit a request over the M2S link toward the controller;
     *  stalls locally when the message class is out of credits. */
    void dispatch(std::uint32_t slot);
    /** One host issue attempt: may time out and reissue with
     *  exponential backoff (bounded by maxHostRetries). The credit
     *  acquired at dispatch is held across retries. */
    void dispatchAttempt(std::uint32_t slot, std::uint32_t attempt);

    /** A response reached the host: return the message-class credit
     *  and wake one credit-starved waiter. */
    void releaseCredit(bool write, Tick now);

    /** Pop the next credit waiter using bounded same-source runs
     *  (PAR-BS-style batching): strict FIFO grants would interleave
     *  single lines from every core, destroying the DRAM row locality
     *  that the backend write scheduler depends on. */
    CreditWaiter popCreditWaiter(std::deque<CreditWaiter> &wait,
                                 std::uint16_t &serveSource,
                                 std::uint32_t &serveRun);

    /** Response delivered at @p at: progress accounting plus the
     *  piggybacked DevLoad observation for the host throttle. */
    void noteResponse(bool write, Tick at);

    /** Resample the DevLoad meter after an occupancy change. */
    void qosSample();

    /* ------------------ failure lifecycle (chaos) ----------------- */

    /** Per-device chaos state; only allocated by armChaos. */
    struct DeviceChaos
    {
        ChaosSpec spec;
        LinkLifecycle link; //!< shared by both directions
        ChaosStats stats;
        bool present = true;
    };

    /** Transition to link DOWN (scheduled or CRC-burst triggered). */
    void beginLinkOutage(Tick now);
    /** Retrain finished: link back at the degraded-width ceiling. */
    void retrainComplete(Tick at);
    /** One post-retrain width recovery step. */
    void stepUpWidth(Tick at);
    void hotRemove(Tick at);
    void hotReadd(Tick at);
    /** Complete a request caught by a hot-removed device per the
     *  containment policy (abort, or complete-with-poison). */
    void abortRequest(std::uint32_t slot, Tick now);
    void announce(Tick at, const std::string &text);

    EventQueue &eq_;
    CxlDeviceParams params_;
    FaultInjector *faults_ = nullptr;
    CxlLinkDirection down_; //!< M2S: requests and write data
    CxlLinkDirection up_;   //!< S2M: read data and completions
    std::unique_ptr<InterleavedMemory> backend_;

    std::uint32_t readsInFlight_ = 0;
    std::uint32_t writesBuffered_ = 0;
    std::uint32_t ntPosted_ = 0;
    /** Requests from access() until their response reaches the host;
     *  every queue below holds their slots. */
    SlotPool<MemRequest> slots_;
    FairWaitQueue readWaitQueue_;
    FairWaitQueue writeWaitQueue_;
    std::deque<std::uint32_t> postedGate_;

    /* overload control (all inert unless configured) */
    std::unique_ptr<DevLoadMeter> meter_;
    std::function<void(DevLoad, Tick)> loadSink_;
    std::deque<CreditWaiter> rdCreditWait_;
    std::deque<CreditWaiter> wrCreditWait_;
    std::vector<std::uint64_t> sourceCreditStall_; //!< per issuing core
    std::uint16_t rdServeSource_ = 0; //!< sticky-run grant arbitration
    std::uint32_t rdServeRun_ = 0;
    std::uint16_t wrServeSource_ = 0;
    std::uint32_t wrServeRun_ = 0;
    std::uint32_t creditRunLimit_ = 1; //!< max grants per source stint
    bool instrumented_ = false;

    /* forward-progress accounting (instrumented_ only) */
    std::uint64_t retired_ = 0;
    std::uint64_t hostInFlight_ = 0;

    /* observability (nullptr unless enabled) */
    std::unique_ptr<LatencyHistogram> latHist_;

    /* failure lifecycle (nullptr unless armChaos ran) */
    std::unique_ptr<DeviceChaos> chaos_;
    std::function<void(Tick, const std::string &)> chaosAnnounce_;

    /* latency accounting (all nullptr unless setAttribution ran) */
    AttributionBoard *board_ = nullptr;
    AccountedStation *stCredit_ = nullptr;
    AccountedStation *stIngress_ = nullptr;
    AccountedStation *stEgress_ = nullptr;

    CxlControllerStats ctrlStats_;
};

} // namespace cxlmemo

#endif // CXLMEMO_CXL_DEVICE_HH
