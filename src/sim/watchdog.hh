/**
 * @file
 * Forward-progress watchdog for the simulation engine.
 *
 * Queueing subsystems with finite resources (credit pools, posted
 * gates, replay buffers, retry backoff) can interlock: a bug that
 * loses one completion or leaks one credit turns into a silent hang
 * or -- worse -- a run that slowly starves and reports garbage. The
 * watchdog makes such states *loud*: it snapshots global progress
 * every N ticks and trips when
 *
 *  - **livelock**: no request retired over a whole interval while
 *    work is outstanding,
 *  - **deadlock**: the event queue drained with work still
 *    outstanding (nothing can ever complete it), or
 *  - **invariant violation**: a watched source reports a broken
 *    internal invariant (e.g. the credit ledger
 *    `issued == returned + in_flight`).
 *
 * On trip it collects a structured diagnosis from every watched
 * source (per-queue occupancy, oldest stuck request, credit ledger)
 * and hands it to the trip handler -- by default printed to stderr
 * followed by abort, so a wedged run dies with a post-mortem instead
 * of burning CPU forever.
 *
 * The watchdog is scheduling-neutral: its snapshots are observer
 * events on an ObserverClock, which never count as work, so an armed
 * watchdog never keeps `EventQueue::run()` from draining nor moves
 * the tick a run ends at. When the queue drains with snapshots still
 * pending they are dropped, the watchdog runs its deadlock check and
 * stands down until rearmed. Disabled (the default), no event is ever
 * scheduled and behaviour is bit-identical to a build without this
 * subsystem.
 */

#ifndef CXLMEMO_SIM_WATCHDOG_HH
#define CXLMEMO_SIM_WATCHDOG_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/parallel.hh"
#include "sim/types.hh"

namespace cxlmemo
{

/**
 * Anything the watchdog can supervise. Implementors expose a
 * monotone retired-work counter, an outstanding-work gauge and a
 * diagnosis dump; optionally an internal invariant check.
 */
class ProgressSource
{
  public:
    virtual ~ProgressSource() = default;

    /** Stable name used in trip reports. */
    virtual std::string progressName() const = 0;

    /** Monotone count of retired work items (requests completed,
     *  writes drained, ...). Any increase counts as progress. */
    virtual std::uint64_t progressRetired() const = 0;

    /** Work accepted but not yet retired; 0 means quiesced. */
    virtual std::uint64_t progressOutstanding() const = 0;

    /** Multi-line human diagnosis: per-queue occupancy, oldest stuck
     *  entry, credit ledger. Called only on trip. */
    virtual std::string progressDiagnosis() const = 0;

    /** Internal invariant check; empty string = healthy, otherwise a
     *  one-line description of the violation (trips immediately). */
    virtual std::string progressInvariant() const { return {}; }
};

/** Watchdog knobs. */
struct WatchdogParams
{
    /** Snapshot interval (simulated time). The default comfortably
     *  exceeds every calibrated recovery path (timeout + max backoff
     *  is ~5.2 us) so healthy fault-injection runs never trip. */
    Tick interval = ticksFromUs(100.0);

    /** Progress-free snapshots tolerated before tripping. */
    std::uint32_t strikes = 1;
};

/**
 * The watchdog proper. Owned by whoever assembles the simulation
 * (Machine, Cluster); sources register once, `arm()` starts (or
 * restarts) the snapshot cycle.
 */
class Watchdog
{
  public:
    using TripHandler = std::function<void(const std::string &report)>;

    Watchdog(ObserverClock clock, WatchdogParams params);
    Watchdog(const Watchdog &) = delete;
    Watchdog &operator=(const Watchdog &) = delete;

    void watch(ProgressSource *source) { sources_.push_back(source); }

    /** Replace the default trip handler (stderr dump + abort). */
    void setOnTrip(TripHandler handler) { onTrip_ = std::move(handler); }

    /**
     * Register an extra post-mortem section appended to the trip
     * report after the per-source diagnoses (e.g. the flight
     * recorder's last-N request spans). Called only on trip.
     */
    void
    addPostMortem(std::function<std::string()> dump)
    {
        postMortems_.push_back(std::move(dump));
    }

    /**
     * Record a lifecycle event (link down/retrain, device hot-plug,
     * page offline). Kept in a bounded ring and appended to every
     * trip report, so a post-mortem shows what the failure layer did
     * right before the hang.
     */
    void noteEvent(Tick at, const std::string &text);

    /** Recorded lifecycle events, oldest first (bounded). */
    const std::vector<std::string> &events() const { return events_; }

    /**
     * Schedule the next snapshot if none is pending. Call after
     * construction and again whenever new work is started after the
     * event queue quiesced (the watchdog stands down at quiesce).
     * Arming takes a fresh progress baseline and clears the strike
     * count; the snapshot cycle itself keeps counting strikes.
     */
    void arm();

    bool tripped() const { return tripped_; }
    std::uint64_t snapshots() const { return snapshots_; }
    bool armed() const { return armed_; }

  private:
    /** Schedule the next snapshot, keeping the strike count. */
    void scheduleSnapshot();
    void snapshot();
    /** The queue drained with a snapshot pending: stand down, or trip
     *  if work is still outstanding (nothing can ever complete it). */
    void drained();
    /** Trip on the first source reporting a broken invariant. */
    bool invariantTripped();
    void trip(const std::string &why);
    std::uint64_t totalRetired() const;
    std::uint64_t totalOutstanding() const;

    ObserverClock clock_;
    WatchdogParams params_;
    std::vector<ProgressSource *> sources_;
    std::vector<std::function<std::string()>> postMortems_;
    TripHandler onTrip_;

    bool armed_ = false;
    bool tripped_ = false;
    std::uint64_t lastRetired_ = 0;
    std::uint32_t strikes_ = 0;
    std::uint64_t snapshots_ = 0;

    static constexpr std::size_t maxEvents = 64;
    std::vector<std::string> events_;
    std::uint64_t eventsDropped_ = 0;
};

} // namespace cxlmemo

#endif // CXLMEMO_SIM_WATCHDOG_HH
