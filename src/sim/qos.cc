#include "sim/qos.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "sim/spec.hh"

namespace cxlmemo
{

namespace
{

void
requireFraction(double v, const char *what)
{
    if (!(v > 0.0 && v <= 1.0)) {
        throw std::invalid_argument(std::string("QosSpec: ") + what
                                    + " must be in (0,1]");
    }
}

} // namespace

void
QosSpec::validate() const
{
    if (rdCredits > 4096 || wrCredits > 4096)
        throw std::invalid_argument(
            "QosSpec: credits must be at most 4096");
    if (!(target > 0.0 && target <= 2.0))
        throw std::invalid_argument(
            "QosSpec: target must be in (0,2]");
    if (ewmaTau == 0)
        throw std::invalid_argument(
            "QosSpec: ewma-ns must be positive");
    if (adjustPeriod == 0)
        throw std::invalid_argument(
            "QosSpec: period-ns must be positive");
    requireFraction(ai, "ai");
    if (!(md > 0.0 && md < 1.0))
        throw std::invalid_argument("QosSpec: md must be in (0,1)");
    requireFraction(floor, "floor");
    if (burstLines == 0 || burstLines > 64)
        throw std::invalid_argument(
            "QosSpec: burst must be in [1,64]");
    if (lineCost == 0)
        throw std::invalid_argument(
            "QosSpec: line-ns must be positive");
}

std::optional<QosSpec>
QosSpec::parse(const std::string &text, std::string &error)
{
    return parseSpec<QosSpec>(
        text, "qos-spec", error,
        [&error](QosSpec &spec, const std::string &key,
                 const std::string &value) {
            std::uint32_t credits = 0;
            if (key == "credits" && parseSpecValue(value, credits)) {
                spec.rdCredits = credits;
                spec.wrCredits = credits;
                return true;
            }
            if (key == "rd-credits")
                return parseSpecValue(value, spec.rdCredits);
            if (key == "wr-credits")
                return parseSpecValue(value, spec.wrCredits);
            if (key == "policy") {
                if (value == "none") {
                    spec.policy = QosPolicy::None;
                } else if (value == "aimd") {
                    spec.policy = QosPolicy::Aimd;
                } else {
                    error = "bad qos policy (none|aimd): " + value;
                    return false;
                }
                return true;
            }
            if (key == "target")
                return parseSpecValue(value, spec.target);
            if (key == "ewma-ns")
                return parseSpecNs(value, spec.ewmaTau);
            if (key == "period-ns")
                return parseSpecNs(value, spec.adjustPeriod);
            if (key == "ai")
                return parseSpecValue(value, spec.ai);
            if (key == "md")
                return parseSpecValue(value, spec.md);
            if (key == "floor")
                return parseSpecValue(value, spec.floor);
            if (key == "burst")
                return parseSpecValue(value, spec.burstLines);
            if (key == "line-ns")
                return parseSpecNs(value, spec.lineCost);
            return false;
        });
}

void
DevLoadMeter::sample(double inst, Tick now)
{
    if (now > last_) {
        // The previous instantaneous occupancy held over the elapsed
        // interval; decay the smoothed signal toward it.
        const double a =
            std::exp(-static_cast<double>(now - last_) / tau_);
        load_ = prev_ + (load_ - prev_) * a;
        last_ = now;
    }
    prev_ = inst;
}

DevLoad
DevLoadMeter::level() const
{
    // Bands of +/-0.1 around the target occupancy, mirroring the
    // spec's four-level quantization.
    constexpr double band = 0.1;
    if (load_ >= target_ + band)
        return DevLoad::Severe;
    if (load_ >= target_)
        return DevLoad::Moderate;
    if (load_ >= target_ - band)
        return DevLoad::Optimal;
    return DevLoad::Light;
}

std::string
QosStats::summary() const
{
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "credit-stalls=%llu credit-stall-ns=%llu rd-ledger=%llu/%llu/%llu "
        "wr-ledger=%llu/%llu/%llu ledger=%s devload=%.3f rate=%.3f "
        "min-rate=%.3f incr=%llu decr=%llu throttle-ns=%llu",
        static_cast<unsigned long long>(rdCreditStalls + wrCreditStalls),
        static_cast<unsigned long long>(creditStallTicks / tickPerNs),
        static_cast<unsigned long long>(rdIssued),
        static_cast<unsigned long long>(rdReturned),
        static_cast<unsigned long long>(rdInFlight),
        static_cast<unsigned long long>(wrIssued),
        static_cast<unsigned long long>(wrReturned),
        static_cast<unsigned long long>(wrInFlight),
        ledgerOk ? "ok" : "LEAK",
        devLoad, rate, minRate,
        static_cast<unsigned long long>(rateIncreases),
        static_cast<unsigned long long>(rateDecreases),
        static_cast<unsigned long long>(throttleDelayTicks / tickPerNs));
    return buf;
}

HostThrottle::HostThrottle(const QosSpec &spec, std::uint32_t numCores)
    : spec_(spec), buckets_(numCores)
{
    spec_.validate();
    for (Bucket &b : buckets_)
        b.tokens = static_cast<double>(spec_.burstLines);
}

void
HostThrottle::observe(DevLoad level, Tick now)
{
    if (spec_.policy == QosPolicy::None)
        return;
    if (now < nextAdjust_)
        return;
    nextAdjust_ = now + spec_.adjustPeriod;

    const double before = rate_;
    switch (level) {
      case DevLoad::Light:
        rate_ += spec_.ai;
        break;
      case DevLoad::Optimal:
        break;
      case DevLoad::Moderate:
        rate_ -= spec_.ai;
        break;
      case DevLoad::Severe:
        rate_ *= spec_.md;
        break;
    }
    rate_ = std::clamp(rate_, spec_.floor, 1.0);
    if (rate_ > before)
        ++increases_;
    else if (rate_ < before)
        ++decreases_;
    minRate_ = std::min(minRate_, rate_);
}

Tick
HostThrottle::issueDelay(std::uint16_t core, Tick at)
{
    Bucket &b = buckets_[core];
    if (rate_ >= 1.0) {
        // Unthrottled: keep the bucket full so the first paced issue
        // after a rate cut still gets its burst.
        b.tokens = static_cast<double>(spec_.burstLines);
        b.lastRefill = at;
        return 0;
    }
    const double perTick = rate_ / static_cast<double>(spec_.lineCost);
    if (at > b.lastRefill) {
        b.tokens = std::min(
            static_cast<double>(spec_.burstLines),
            b.tokens + static_cast<double>(at - b.lastRefill) * perTick);
        b.lastRefill = at;
    }
    if (b.tokens >= 1.0) {
        b.tokens -= 1.0;
        return 0;
    }
    // Dry bucket: sleep until a FULL burst accrues, not just one
    // token. Waiting per-token would space throttled stores evenly,
    // interleaving single lines from every core at the device and
    // destroying DRAM row locality -- the exact failure mode the
    // throttle exists to avoid. Sleeping for the whole burst keeps
    // issues in back-to-back same-row runs at the same long-run rate.
    const double burst = static_cast<double>(spec_.burstLines);
    const double need = burst - b.tokens;
    const Tick delay = static_cast<Tick>(std::ceil(need / perTick));
    b.tokens = burst - 1.0;
    b.lastRefill = at + delay;
    ++delays_;
    delayTicks_ += delay;
    return delay;
}

void
HostThrottle::fillStats(QosStats &qs) const
{
    qs.rate = rate_;
    qs.minRate = minRate_;
    qs.rateIncreases = increases_;
    qs.rateDecreases = decreases_;
    qs.throttleDelays = delays_;
    qs.throttleDelayTicks = delayTicks_;
}

} // namespace cxlmemo
