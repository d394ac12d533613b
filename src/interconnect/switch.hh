/**
 * @file
 * Multi-host CXL switch: N upstream host ports sharing M downstream
 * pooled memory devices through a virtual-output-queued crossbar.
 *
 * Data path of one host operation:
 *
 *   host --(port latency)--> ingress: per-port M2S credit gate
 *        --> VOQ[port][device] --> per-device crossbar arbitration
 *        --(serialization + forward latency)--> device access
 *   device completion --> per-port egress serialization
 *        --(port latency)--> host delivery
 *
 * Determinism: all switch state lives on one fabric event queue, and
 * every arbitration decision is a pure function of (tick, port rank,
 * per-port FIFO sequence) -- the crossbar grants round-robin (or
 * fixed-priority) over the ports with a non-empty VOQ, FIFO within a
 * port, ties broken by port rank. No wall-clock, no RNG.
 *
 * Robustness:
 *  - per-port M2S credit pools (the Sec. 11 CreditPool ledger:
 *    `issued == returned + in_flight` checked by the watchdog), so
 *    one flooding host's occupancy inside the switch is *bounded*
 *    and cannot starve the other ports of queue space;
 *  - port outage/retrain: a Down port holds new requests and
 *    completed responses, releasing them in arrival order when the
 *    retrain finishes (the link-lifecycle shape of Sec. 15 applied
 *    to a switch port);
 *  - host fencing: fencePort() reclaims everything a dead host has
 *    in flight -- queued requests abort, in-flight requests abort at
 *    completion, responses to the dead host are dropped -- under the
 *    Sec. 15 ContainPolicy (Poison: reads complete poisoned; Abort:
 *    everything completes with an error). Credits are returned on
 *    every abort path, so fencing never leaks the ledger.
 *
 * The switch is pure transport: it moves opaque operations and never
 * interprets data. The cluster layers the functional store, poison
 * injection and per-host accounting on top via the data hook.
 */

#ifndef CXLMEMO_INTERCONNECT_SWITCH_HH
#define CXLMEMO_INTERCONNECT_SWITCH_HH

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mem/request.hh"
#include "sim/chaos.hh"
#include "sim/event_queue.hh"
#include "sim/qos.hh"
#include "sim/slot_pool.hh"
#include "sim/watchdog.hh"

namespace cxlmemo
{

class FabricBoard;
struct TraceSpan;

/** Configuration of one CxlSwitch. */
struct CxlSwitchParams
{
    std::string name = "xsw0";

    std::uint32_t ports = 2; //!< upstream host ports

    /** Host <-> switch one-way port latency. Also the natural
     *  parallel-engine lookahead of a pooled cluster: every
     *  cross-domain path crosses a port. */
    Tick portLatency = ticksFromNs(12.0);

    /** Crossbar decode/forward pipeline latency per message. */
    Tick forwardLatency = ticksFromNs(8.0);

    /** Per-port serialization bandwidth (crossbar and egress). */
    double portGBps = 32.0;

    /** Per-port M2S credits per message class (0 = uncapped). */
    std::uint32_t rdCredits = 0;
    std::uint32_t wrCredits = 0;

    /** Crossbar arbitration across ports. */
    enum class Arb : std::uint8_t
    {
        RoundRobin, //!< rotating cursor over non-empty VOQs
        Fixed,      //!< lowest port rank first
    };
    Arb arb = Arb::RoundRobin;

    /** Latency of an aborted completion (fenced/unreachable). */
    Tick abortLatency = ticksFromNs(500.0);

    /** Header bytes serialized for dataless messages (read requests,
     *  write completions). */
    std::uint32_t headerBytes = 16;

    /** @throw std::invalid_argument on out-of-range values. */
    void validate() const;
};

/** Lifecycle state of one upstream port. */
enum class PortState : std::uint8_t
{
    Up,
    Down,   //!< outage: retraining, traffic held
    Fenced, //!< host declared dead: traffic aborted
};

const char *portStateName(PortState s);

/** Per-port traffic / robustness counters. */
struct SwitchPortStats
{
    std::uint64_t reqs = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t reqBytes = 0;   //!< request payload through the port
    std::uint64_t responses = 0;  //!< completions delivered upstream
    std::uint64_t poisoned = 0;   //!< completions poisoned by fencing
    std::uint64_t aborted = 0;    //!< queued ops aborted by fencing
    std::uint64_t abortedInFlight = 0; //!< aborted at device completion
    std::uint64_t droppedResponses = 0; //!< responses to a fenced host
    std::uint64_t creditStalls = 0;
    std::uint64_t creditStallTicks = 0;
    std::uint64_t heldWhileDown = 0; //!< messages parked by an outage
    std::uint64_t downs = 0;     //!< outages begun
    std::uint64_t retrains = 0;  //!< outages recovered
    Tick downAt = 0;
    Tick upAt = 0;
    Tick fencedAt = 0;

    /** Exact, associative merge: counters add, one-shot timestamps
     *  take the max (statmerge rules; audited in test_observability). */
    void merge(const SwitchPortStats &o);
};

/** Switch-wide occupancy gauges (tests / diagnosis). */
struct SwitchGauges
{
    std::size_t creditWait = 0;
    std::size_t voq = 0;
    std::size_t inFlight = 0;
    std::size_t held = 0;
};

class CxlSwitch : public ProgressSource
{
  public:
    /** Completion status delivered upstream. */
    enum class Status : std::uint8_t
    {
        Ok,
        Poisoned, //!< data delivered but suspect (ContainPolicy::Poison)
        Aborted,  //!< completed with an error, no data
    };

    /** Completion callback: invoked on the fabric queue with the
     *  upstream delivery tick (port latency included) and the read
     *  value supplied by the data hook. */
    using Done = InlineCallback<void(Tick, Status, std::uint64_t), 48>;

    /** One host operation crossing the switch. Addresses are
     *  device-local (the PoolManager translated the host window
     *  before submission). */
    struct Op
    {
        Addr addr = 0;
        std::uint32_t size = cachelineBytes;
        MemCmd cmd = MemCmd::Read;
        std::uint64_t value = 0; //!< write payload (functional layer)
        Done done;
        /** Host issue tick: the start of the fabric attribution
         *  bracket (delivery - issued is the cross-fabric end-to-end
         *  latency). Only read when a FabricBoard is attached. */
        Tick issued = 0;
        /** Sampled request-lifecycle span (null = untraced). */
        TraceSpan *span = nullptr;
    };

    /**
     * @param eq the fabric event queue (shared with the devices)
     * @param downstream pooled devices, rank order = device id
     */
    CxlSwitch(EventQueue &eq, CxlSwitchParams params,
              std::vector<MemoryDevice *> downstream);

    const CxlSwitchParams &params() const { return params_; }

    /**
     * Functional-data hook, invoked once per operation at device
     * commit time (deterministic: device-completion order on the
     * fabric queue): for writes it should commit op.value and return
     * anything; for reads it returns the value delivered upstream.
     * Unset = all reads deliver 0.
     */
    void
    setDataHook(
        std::function<std::uint64_t(std::uint32_t dev, MemCmd, Addr,
                                    std::uint64_t wval)> hook)
    {
        dataHook_ = std::move(hook);
    }

    /**
     * Submit one operation from @p port to @p dev. Must be called on
     * the fabric queue at the switch-arrival tick (the caller models
     * the host->switch port latency). Completion via op.done; every
     * submitted op completes exactly once (Ok, Poisoned or Aborted).
     */
    void submit(std::uint32_t port, std::uint32_t dev, Op op);

    /* ------------------------ lifecycle -------------------------- */

    /** Port outage now; traffic held until the retrain finishes
     *  @p retrain ticks later. No-op on a fenced port. */
    void portDown(std::uint32_t port, Tick retrain);

    /**
     * Fence @p port (host declared dead): abort everything queued or
     * held, mark in-flight for abort-at-completion, drop future
     * responses. Terminal: a fenced port never comes back (the host
     * would re-attach through a fresh grant cycle).
     */
    void fencePort(std::uint32_t port, ContainPolicy policy);

    PortState portState(std::uint32_t port) const
    {
        return ports_[port].state;
    }

    const SwitchPortStats &portStats(std::uint32_t port) const
    {
        return ports_[port].stats;
    }

    /** Credit pools of @p port (nullptr when credits are disabled). */
    const LinkCredits *portCredits(std::uint32_t port) const
    {
        return ports_[port].credits.get();
    }

    /** The credit-leak invariant across every port. */
    bool creditLedgerOk() const;

    SwitchGauges gauges() const;

    /** Per-port live queue depths (metrics gauges). */
    std::size_t
    voqDepth(std::uint32_t port) const
    {
        std::size_t n = 0;
        for (const auto &q : ports_[port].voq)
            n += q.size();
        return n;
    }

    std::size_t
    creditWaitDepth(std::uint32_t port) const
    {
        return ports_[port].creditWait.size();
    }

    std::uint32_t
    portInFlight(std::uint32_t port) const
    {
        return ports_[port].inFlight;
    }

    /**
     * Attach a fabric attribution board (one station set per port,
     * ports must match); null detaches. Pure observation: accounting
     * never schedules events or changes timing, so simulated results
     * are bit-identical with or without a board.
     */
    void setFabricBoard(FabricBoard *board) { board_ = board; }

    /* ----------------- ProgressSource (watchdog) ----------------- */

    std::string progressName() const override { return params_.name; }
    std::uint64_t progressRetired() const override { return retired_; }
    std::uint64_t progressOutstanding() const override;
    /** Names the stuck port and the oldest waiting host. */
    std::string progressDiagnosis() const override;
    std::string progressInvariant() const override;

  private:
    struct Pending
    {
        Op op;
        std::uint32_t dev;
        Tick enq; //!< switch-arrival (or credit-grant) tick
    };

    /** In-flight slot: an op the downstream device currently owns. */
    struct InFlight
    {
        Op op;
        std::uint32_t port = 0;
        std::uint32_t dev = 0;
        Tick dispatch = 0; //!< device-access tick (sw.dev_service start)
    };

    struct Port
    {
        PortState state = PortState::Up;
        ContainPolicy fencePolicy = ContainPolicy::Poison;
        std::unique_ptr<LinkCredits> credits;
        std::deque<Pending> creditWait;
        std::deque<Pending> held; //!< parked by an outage
        std::vector<std::deque<Pending>> voq; //!< [device]
        std::deque<std::uint32_t> downResp;   //!< slots held by outage
        Tick egressBusy = 0;
        std::uint32_t inFlight = 0;
        SwitchPortStats stats;
    };

    struct Xbar
    {
        Tick busy = 0;
        bool kickScheduled = false;
        std::uint32_t cursor = 0; //!< round-robin port cursor
    };

    /** Payload bytes a message serializes (data or header). */
    std::uint32_t wireBytes(MemCmd cmd, std::uint32_t size,
                            bool response) const;

    void admit(std::uint32_t port, Pending p);
    void enqueueVoq(std::uint32_t port, Pending p);
    void arbitrate(std::uint32_t dev);
    void deviceDone(std::uint32_t slot, Tick now);
    void egress(std::uint32_t slot, Tick now);
    void completeAborted(std::uint32_t port, Op op, Tick now);
    void releaseCredit(std::uint32_t port, MemCmd cmd, Tick now);

    EventQueue &eq_;
    CxlSwitchParams params_;
    std::vector<MemoryDevice *> devices_;
    // A deque: Port holds move-only callbacks, and deque growth never
    // relocates existing elements.
    std::deque<Port> ports_;
    std::vector<Xbar> xbar_; //!< [device]
    SlotPool<InFlight> slots_;
    std::function<std::uint64_t(std::uint32_t, MemCmd, Addr,
                                std::uint64_t)>
        dataHook_;
    FabricBoard *board_ = nullptr; //!< fabric attribution (optional)

    std::uint64_t retired_ = 0;
};

} // namespace cxlmemo

#endif // CXLMEMO_INTERCONNECT_SWITCH_HH
