/**
 * @file
 * Overload-survival layer for the CXL.mem path: credit-based flow
 * control, DevLoad-style QoS telemetry and host throttle policies.
 *
 * The paper's most striking robustness result (Sec. 4.3.2) is that
 * unchecked non-temporal store streams overflow the FPGA controller's
 * finite buffers and collapse bandwidth. Real CXL systems defend
 * against exactly this with two spec-level mechanisms that this file
 * models:
 *
 *  - **Credits** (CXL link-layer flow control): each message class
 *    consumes a credit at injection into the M2S direction and the
 *    credit travels back with the S2M response. A starved sender
 *    stalls locally, so device-side queues are *bounded* by the
 *    credit pool instead of growing without limit. CreditPool keeps
 *    an independent ledger (issued / returned / in-flight) so a
 *    leaked credit is detectable as an invariant violation rather
 *    than a silent slow hang.
 *
 *  - **DevLoad telemetry + host throttling** (CXL QoS telemetry):
 *    the device computes an EWMA-smoothed load signal from its
 *    ingress occupancy, quantized to the spec's four DevLoad levels
 *    and piggybacked on response messages. The host reacts with a
 *    configurable policy (none / AIMD) applied at
 *    the core's NT-store issue point. Throttling is *burst
 *    preserving*: a per-core token bucket with a burst of several
 *    cachelines, so a throttled thread still emits same-row runs and
 *    the DDR4 back-end keeps its row locality -- uniformly spacing
 *    individual lines would destroy exactly the locality the
 *    throttle is trying to protect.
 *
 * Everything here is disabled by default. A default QosSpec creates
 * no pools, no meter and no throttle; no component consults any of
 * them, so every existing figure is bit-identical to a build without
 * this layer (the same guarantee FaultSpec makes for RAS).
 */

#ifndef CXLMEMO_SIM_QOS_HH
#define CXLMEMO_SIM_QOS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace cxlmemo
{

/** Host reaction to the device's DevLoad telemetry. */
enum class QosPolicy : std::uint8_t
{
    None, //!< telemetry may be computed but the host never reacts
    Aimd, //!< additive increase / multiplicative decrease
};

/** The four load levels of CXL QoS telemetry (DevLoad). */
enum class DevLoad : std::uint8_t
{
    Light,    //!< well below target: host may speed up
    Optimal,  //!< near target: hold
    Moderate, //!< above target: back off additively
    Severe,   //!< far above target: back off multiplicatively
};

/**
 * Overload-control configuration, parsed from the `--qos-spec`
 * grammar:
 *
 *   key=value[,key=value...]
 *
 *   credits=N     M2S credits for both message classes (0 = uncapped)
 *   rd-credits=N  read-request (header) class credits
 *   wr-credits=N  write-data class credits
 *   policy=P      none | aimd host throttle policy
 *   target=F      DevLoad target occupancy fraction (default 0.75)
 *   ewma-ns=F     load-signal EWMA time constant (default 2000)
 *   period-ns=F   min time between host rate adjustments (default 1000)
 *   ai=F          AIMD additive step (default 0.05)
 *   md=F          AIMD multiplicative decrease factor (default 0.5)
 *   floor=F       minimum host rate fraction (default 0.05)
 *   burst=N       token-bucket burst, cachelines (default 8 = one
 *                 core's WC buffers, preserving same-row runs)
 *   line-ns=F     nominal unthrottled per-line issue cost (default
 *                 5.5, the calibrated WC-buffer eviction cost)
 */
struct QosSpec
{
    std::uint32_t rdCredits = 0; //!< 0 disables the read-class pool
    std::uint32_t wrCredits = 0; //!< 0 disables the write-class pool

    QosPolicy policy = QosPolicy::None;
    double target = 0.75;             //!< DevLoad target occupancy
    Tick ewmaTau = ticksFromNs(2000.0);   //!< load EWMA time constant
    Tick adjustPeriod = ticksFromNs(1000.0); //!< rate-adjust period
    double ai = 0.05;    //!< AIMD additive increase step
    double md = 0.5;     //!< AIMD multiplicative decrease factor
    double floor = 0.05; //!< minimum rate fraction
    std::uint32_t burstLines = 8;     //!< token-bucket burst (lines)
    Tick lineCost = ticksFromNs(5.5); //!< unthrottled per-line cost

    /** @return true when any overload mechanism is active. */
    bool
    enabled() const
    {
        return creditsEnabled() || policy != QosPolicy::None;
    }

    bool creditsEnabled() const { return rdCredits > 0 || wrCredits > 0; }

    /** Throws std::invalid_argument on out-of-range values. */
    void validate() const;

    /**
     * Parse the `--qos-spec` grammar.
     * @return std::nullopt plus a one-line reason in @p error on
     *         malformed or out-of-range input.
     */
    static std::optional<QosSpec> parse(const std::string &text,
                                        std::string &error);
};

/**
 * One message class's credit pool with an independent ledger.
 *
 * `issued` and `returned` are counted separately from `available`, so
 * the invariant `issued == returned + inFlight` cross-checks the flow
 * control itself: a credit lost on any path (dropped completion,
 * double acquire) breaks the ledger and is caught by the watchdog /
 * end-of-run checks instead of surfacing as an unexplained stall.
 */
class CreditPool
{
  public:
    explicit CreditPool(std::uint32_t capacity = 0)
        : capacity_(capacity), available_(capacity)
    {
    }

    std::uint32_t capacity() const { return capacity_; }
    std::uint32_t available() const { return available_; }
    std::uint32_t inFlight() const { return capacity_ - available_; }

    /** @return false (and count a stall) when the pool is dry. */
    bool
    tryAcquire()
    {
        if (available_ == 0) {
            ++stalls_;
            return false;
        }
        --available_;
        ++issued_;
        return true;
    }

    /** Return one credit (the response message carried it back). */
    void
    release()
    {
        ++available_;
        ++returned_;
    }

    /** Time a starved sender spent waiting for this pool. */
    void noteStallEnd(Tick waited) { stallTicks_ += waited; }

    std::uint64_t issued() const { return issued_; }
    std::uint64_t returned() const { return returned_; }
    std::uint64_t stalls() const { return stalls_; }
    std::uint64_t stallTicks() const { return stallTicks_; }

    /** The credit-leak invariant `issued == returned + in_flight`. */
    bool
    ledgerOk() const
    {
        return available_ <= capacity_
               && issued_ == returned_ + inFlight();
    }

    /** Clear counters without disturbing credits in flight: the
     *  ledger stays consistent across sweep-point stat resets. */
    void
    resetStats()
    {
        issued_ = inFlight();
        returned_ = 0;
        stalls_ = 0;
        stallTicks_ = 0;
    }

  private:
    std::uint32_t capacity_ = 0;
    std::uint32_t available_ = 0;
    std::uint64_t issued_ = 0;
    std::uint64_t returned_ = 0;
    std::uint64_t stalls_ = 0;
    std::uint64_t stallTicks_ = 0;
};

/** The per-direction credit pools carried by a CXL link direction:
 *  read-request (header) class and write-data class. */
struct LinkCredits
{
    CreditPool rd;
    CreditPool wr;

    LinkCredits(std::uint32_t rdN, std::uint32_t wrN)
        : rd(rdN), wr(wrN)
    {
    }

    bool ledgerOk() const { return rd.ledgerOk() && wr.ledgerOk(); }
};

/**
 * EWMA-smoothed device load signal, quantized to DevLoad levels.
 *
 * Samples are taken at occupancy-change events; the smoothing is
 * time-weighted (the previous instantaneous value is held over the
 * elapsed interval and decayed with time constant ewma-ns), so the
 * signal is independent of how bursty the event arrivals are.
 */
class DevLoadMeter
{
  public:
    explicit DevLoadMeter(const QosSpec &spec)
        : tau_(static_cast<double>(spec.ewmaTau)),
          target_(spec.target)
    {
    }

    /** Record instantaneous occupancy @p inst (fraction; may exceed
     *  1 while overflow queues are populated) at @p now. */
    void sample(double inst, Tick now);

    double load() const { return load_; }
    DevLoad level() const;

  private:
    double tau_;
    double target_;
    double load_ = 0.0;
    double prev_ = 0.0;
    Tick last_ = 0;
};

/** Aggregated overload-control counters (Machine-wide). */
struct QosStats
{
    /* credit flow control */
    std::uint64_t rdCreditStalls = 0;
    std::uint64_t wrCreditStalls = 0;
    std::uint64_t creditStallTicks = 0; //!< sender time lost to starvation
    std::uint64_t rdIssued = 0;
    std::uint64_t rdReturned = 0;
    std::uint64_t rdInFlight = 0;
    std::uint64_t wrIssued = 0;
    std::uint64_t wrReturned = 0;
    std::uint64_t wrInFlight = 0;
    bool ledgerOk = true; //!< issued == returned + in_flight, per pool

    /* telemetry + throttle */
    double devLoad = 0.0; //!< final EWMA load signal
    double rate = 1.0;    //!< final host rate fraction
    double minRate = 1.0; //!< lowest rate reached
    std::uint64_t rateIncreases = 0;
    std::uint64_t rateDecreases = 0;
    std::uint64_t throttleDelays = 0;     //!< paced issues
    std::uint64_t throttleDelayTicks = 0; //!< total pacing delay

    /** Single-line `key=value` rendering for reports and CI greps. */
    std::string summary() const;
};

/**
 * Host-side reaction to DevLoad telemetry: one rate fraction shared
 * by all cores of the machine (the host bridge throttles its CXL
 * egress), enforced per core by a burst-preserving token bucket.
 *
 * The bucket holds up to `burst` line-tokens refilled at
 * rate / line-ns; a core with tokens issues immediately, so a WC
 * buffer's worth of NT stores still leaves the core back-to-back and
 * arrives at the device as a same-row run. Only between bursts does
 * the pacer insert delay. All state is per-Machine, keeping sweep
 * results deterministic for any `--jobs` value.
 */
class HostThrottle
{
  public:
    HostThrottle(const QosSpec &spec, std::uint32_t numCores);

    /** DevLoad observation delivered by a response message at @p now;
     *  adjusts the rate at most once per adjustPeriod. */
    void observe(DevLoad level, Tick now);

    /**
     * Pacing delay for one cacheline issued by @p core at @p at.
     * @return 0 when a token is available (the common in-burst case).
     */
    Tick issueDelay(std::uint16_t core, Tick at);

    double rate() const { return rate_; }

    void fillStats(QosStats &qs) const;

    /** Clear counters (rate and bucket state persist: the control
     *  loop keeps running across sweep-point stat resets). */
    void
    resetStats()
    {
        increases_ = 0;
        decreases_ = 0;
        delays_ = 0;
        delayTicks_ = 0;
        minRate_ = rate_;
    }

  private:
    struct Bucket
    {
        double tokens = 0.0;
        Tick lastRefill = 0;
    };

    QosSpec spec_;
    double rate_ = 1.0;
    double minRate_ = 1.0;
    Tick nextAdjust_ = 0;
    std::uint64_t increases_ = 0;
    std::uint64_t decreases_ = 0;
    std::uint64_t delays_ = 0;
    std::uint64_t delayTicks_ = 0;
    std::vector<Bucket> buckets_;
};

} // namespace cxlmemo

#endif // CXLMEMO_SIM_QOS_HH
