/**
 * @file
 * Deterministic fault injection for the CXL memory path.
 *
 * Real CXL 1.1 deployments live or die on their RAS behaviour: flit
 * CRC errors trigger the link-layer ack/nak retry machine, DRAM may
 * hand back poisoned cachelines, controllers stall and hosts retry
 * with bounded exponential backoff. cxlmemo models all of these as
 * *injected* faults driven by a FaultInjector that owns its own
 * seeded RNG stream, separate from every workload generator:
 *
 *  - with faults disabled (the default), no component ever consults
 *    the injector, so every figure is bit-identical to the fault-free
 *    simulator;
 *  - with faults enabled, the same seed and spec reproduce the exact
 *    fault sequence, because each Machine owns one injector and the
 *    event order within a Machine is deterministic.
 *
 * RasStats aggregates every recovery action machine-wide; nothing is
 * ever silently consumed -- an injected poison either shows up as
 * poisonConsumed (absorbed by the cache hierarchy and observed by a
 * load), poisonDelivered (handed to a non-caching consumer), or
 * poisonContained (the chaos layer aborted the request before any
 * consumer saw data).
 */

#ifndef CXLMEMO_SIM_FAULT_HH
#define CXLMEMO_SIM_FAULT_HH

#include <cstdint>
#include <optional>
#include <string>

#include "sim/rng.hh"
#include "sim/types.hh"

namespace cxlmemo
{

/**
 * Per-component fault model, parsed from the `--fault-spec` grammar:
 *
 *   key=value[,key=value...]
 *
 *   crc=RATE        per-flit CRC error probability on each link
 *                   direction (triggers link-level retry)
 *   poison=RATE     per-DRAM-read poisoned-cacheline probability
 *   timeout=RATE    per-request controller-timeout probability
 *                   (triggers host retry with exponential backoff)
 *   drain=RATE      per-write probability of a stuck/slow-drain
 *                   episode in the device write buffer
 *   dram=RATE       per-access probability of a transient back-end
 *                   DRAM channel stall
 *   stall-ns=NS     episode length for drain and DRAM stalls
 *   timeout-ns=NS   host completion-timer value
 *   backoff-ns=NS   base host-retry backoff (doubles per attempt,
 *                   capped at 16x the base)
 *   retries=N       max host retries per request (1..16)
 *   degrade=N       CRC errors before the link downgrades width
 *                   (halving rawGBps, at most twice); 0 = never
 *   degrade-window-ns=NS
 *                   burst window: at most one downgrade per window,
 *                   and the burst counter re-arms at window expiry
 *   seed=N          fault RNG stream seed
 */
struct FaultSpec
{
    double crcPerFlit = 0.0;     //!< per-flit CRC error probability
    double readPoisonRate = 0.0; //!< per-read poisoned-line probability
    double timeoutRate = 0.0;    //!< per-request timeout probability
    double drainStallRate = 0.0; //!< per-write drain-stall probability
    double dramStallRate = 0.0;  //!< per-access channel-stall probability

    Tick drainStallTicks = ticksFromNs(400.0);
    Tick dramStallTicks = ticksFromNs(400.0);

    Tick requestTimeout = ticksFromNs(2000.0); //!< host completion timer
    Tick backoffBase = ticksFromNs(200.0);     //!< first retry backoff
    std::uint32_t maxHostRetries = 8;          //!< bounded retry budget

    /** CRC errors that trigger one link width/speed downgrade
     *  (halving rawGBps, at most twice); 0 disables degradation. */
    std::uint32_t degradeBurst = 0;

    /** Burst observation window (`degrade-window-ns`): at most one
     *  downgrade fires per window, and the error counter re-arms when
     *  the window expires -- two closely-spaced bursts cannot
     *  double-downgrade the link inside one window. */
    Tick degradeWindow = ticksFromNs(1000.0);

    std::uint64_t seed = 0x0badc0de5eedULL; //!< dedicated RNG stream

    /** @return true when any fault can actually fire. */
    bool
    enabled() const
    {
        return crcPerFlit > 0.0 || readPoisonRate > 0.0
               || timeoutRate > 0.0 || drainStallRate > 0.0
               || dramStallRate > 0.0;
    }

    /** Throws std::invalid_argument on out-of-range values. */
    void validate() const;

    /** Render in the `--fault-spec` grammar (only non-default keys). */
    std::string toString() const;

    /**
     * Parse the `--fault-spec` grammar.
     * @return std::nullopt plus a one-line reason in @p error on
     *         malformed or out-of-range input.
     */
    static std::optional<FaultSpec> parse(const std::string &text,
                                          std::string &error);
};

/** Machine-wide RAS counters; every recovery action is accounted. */
struct RasStats
{
    /* link-level retry */
    std::uint64_t crcErrors = 0;     //!< flits that failed CRC
    std::uint64_t linkRetries = 0;   //!< ack/nak replay rounds
    std::uint64_t flitsReplayed = 0; //!< flits re-sent from the retry buffer
    std::uint64_t replayBytes = 0;   //!< link capacity burned by replays
    std::uint64_t retryTicks = 0;    //!< delivery delay added by retries

    /* controller timeout / host retry */
    std::uint64_t timeouts = 0;     //!< requests that hit the timer
    std::uint64_t hostRetries = 0;  //!< re-issued requests
    std::uint64_t backoffTicks = 0; //!< time spent waiting + backing off

    /* stall episodes */
    std::uint64_t drainStalls = 0; //!< write-buffer stuck-drain episodes
    std::uint64_t dramStalls = 0;  //!< transient back-end channel stalls

    /* poison */
    std::uint64_t poisonInjected = 0;  //!< poisoned lines created
    std::uint64_t poisonConsumed = 0;  //!< observed via the cache hierarchy
    std::uint64_t poisonDelivered = 0; //!< handed to a non-caching consumer
    std::uint64_t poisonContained = 0; //!< aborted before any consumer
                                       //!< saw data (chaos containment)

    /* graceful degradation */
    std::uint64_t linkDegradations = 0; //!< width/speed downgrade events

    void reset() { *this = RasStats{}; }

    void merge(const RasStats &o);

    /** Single-line `key=value` rendering for reports and CI greps. */
    std::string summary() const;
};

/**
 * The fault oracle threaded through the memory path. Components hold
 * a (possibly null) pointer; a null injector means faults are
 * disabled and every hook is dead code.
 *
 * All decisions flow through one dedicated RNG stream, so workload
 * randomness is untouched and a (seed, spec, workload) triple replays
 * the exact same fault sequence.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(FaultSpec spec)
        : spec_(spec), rng_(spec.seed)
    {
        spec_.validate();
    }

    const FaultSpec &spec() const { return spec_; }
    RasStats &stats() { return stats_; }

    /* ------------------------- decisions ------------------------- */

    /** Does this flit fail CRC at the receiver? */
    bool flitCrcError() { return roll(spec_.crcPerFlit); }

    /** Does this DRAM read return a poisoned cacheline? */
    bool poisonRead() { return roll(spec_.readPoisonRate); }

    /** Does this request attempt hit the host completion timer? */
    bool requestTimedOut() { return roll(spec_.timeoutRate); }

    /** Does this buffered write hit a stuck/slow-drain episode? */
    bool drainStall() { return roll(spec_.drainStallRate); }

    /** Does this back-end access hit a transient channel stall? */
    bool dramStall() { return roll(spec_.dramStallRate); }

    /* --------------------- poison hand-off ----------------------- *
     * The device arms poison immediately before invoking a read's
     * completion chain (which runs synchronously); the cache
     * hierarchy consumes it while filling. Whatever is still armed
     * when the chain returns went to a non-caching consumer and is
     * reported as poisonDelivered by the device -- never dropped.
     * ------------------------------------------------------------- */

    void armPoison() { poisonArmed_ = true; }

    /** @return whether poison was armed; always disarms. */
    bool
    consumePoison()
    {
        const bool armed = poisonArmed_;
        poisonArmed_ = false;
        return armed;
    }

  private:
    bool
    roll(double p)
    {
        if (p <= 0.0)
            return false;
        return rng_.chance(p);
    }

    FaultSpec spec_;
    Rng rng_;
    RasStats stats_;
    bool poisonArmed_ = false;
};

} // namespace cxlmemo

#endif // CXLMEMO_SIM_FAULT_HH
