#include "sim/fault.hh"

#include <cstdio>
#include <stdexcept>

#include "sim/logging.hh"
#include "sim/spec.hh"

namespace cxlmemo
{

namespace
{

void
requireRate(double v, const char *what)
{
    if (!(v >= 0.0 && v <= 1.0)) {
        throw std::invalid_argument(
            std::string("FaultSpec: ") + what
            + " must be a probability in [0,1]");
    }
}

} // namespace

void
FaultSpec::validate() const
{
    requireRate(crcPerFlit, "crc rate");
    requireRate(readPoisonRate, "poison rate");
    requireRate(timeoutRate, "timeout rate");
    requireRate(drainStallRate, "drain-stall rate");
    requireRate(dramStallRate, "dram-stall rate");
    if (maxHostRetries == 0 || maxHostRetries > 16)
        throw std::invalid_argument(
            "FaultSpec: retries must be in [1,16]");
    if (requestTimeout == 0)
        throw std::invalid_argument(
            "FaultSpec: timeout-ns must be positive");
    if (backoffBase == 0)
        throw std::invalid_argument(
            "FaultSpec: backoff-ns must be positive");
    if (degradeWindow == 0)
        throw std::invalid_argument(
            "FaultSpec: degrade-window-ns must be positive");
    // Legal but almost certainly not what the user wants: past ~10%
    // per-event rates, recovery (replays, retries, stalls) dominates
    // run time and the run measures the recovery machinery, not the
    // memory system. Warn once, not per validation call.
    if (crcPerFlit > 0.1 || readPoisonRate > 0.1 || timeoutRate > 0.1
        || drainStallRate > 0.1 || dramStallRate > 0.1) {
        CXLMEMO_WARN_ONCE(
            "fault-spec rate above 0.1: recovery traffic will dominate "
            "the run (%s)", toString().c_str());
    }
}

std::string
FaultSpec::toString() const
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "crc=%g,poison=%g,timeout=%g,drain=%g,dram=%g,seed=%llu",
                  crcPerFlit, readPoisonRate, timeoutRate, drainStallRate,
                  dramStallRate, static_cast<unsigned long long>(seed));
    return buf;
}

std::optional<FaultSpec>
FaultSpec::parse(const std::string &text, std::string &error)
{
    return parseSpec<FaultSpec>(
        text, "fault-spec", error,
        [](FaultSpec &spec, const std::string &key,
           const std::string &value) {
            if (key == "crc")
                return parseSpecValue(value, spec.crcPerFlit);
            if (key == "poison")
                return parseSpecValue(value, spec.readPoisonRate);
            if (key == "timeout")
                return parseSpecValue(value, spec.timeoutRate);
            if (key == "drain")
                return parseSpecValue(value, spec.drainStallRate);
            if (key == "dram")
                return parseSpecValue(value, spec.dramStallRate);
            double ns = 0.0;
            if (key == "stall-ns" && parseSpecValue(value, ns)
                && ns >= 0.0) {
                spec.drainStallTicks = ticksFromNs(ns);
                spec.dramStallTicks = ticksFromNs(ns);
                return true;
            }
            if (key == "timeout-ns")
                return parseSpecNs(value, spec.requestTimeout);
            if (key == "backoff-ns")
                return parseSpecNs(value, spec.backoffBase);
            if (key == "retries")
                return parseSpecValue(value, spec.maxHostRetries);
            if (key == "degrade")
                return parseSpecValue(value, spec.degradeBurst);
            if (key == "degrade-window-ns")
                return parseSpecNs(value, spec.degradeWindow);
            if (key == "seed")
                return parseSpecValue(value, spec.seed);
            return false;
        });
}

void
RasStats::merge(const RasStats &o)
{
    crcErrors += o.crcErrors;
    linkRetries += o.linkRetries;
    flitsReplayed += o.flitsReplayed;
    replayBytes += o.replayBytes;
    retryTicks += o.retryTicks;
    timeouts += o.timeouts;
    hostRetries += o.hostRetries;
    backoffTicks += o.backoffTicks;
    drainStalls += o.drainStalls;
    dramStalls += o.dramStalls;
    poisonInjected += o.poisonInjected;
    poisonConsumed += o.poisonConsumed;
    poisonDelivered += o.poisonDelivered;
    poisonContained += o.poisonContained;
    linkDegradations += o.linkDegradations;
}

std::string
RasStats::summary() const
{
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "crc-errors=%llu link-retries=%llu replay-bytes=%llu "
        "timeouts=%llu host-retries=%llu drain-stalls=%llu "
        "dram-stalls=%llu poison-injected=%llu poison-consumed=%llu "
        "poison-delivered=%llu poison-contained=%llu degradations=%llu",
        static_cast<unsigned long long>(crcErrors),
        static_cast<unsigned long long>(linkRetries),
        static_cast<unsigned long long>(replayBytes),
        static_cast<unsigned long long>(timeouts),
        static_cast<unsigned long long>(hostRetries),
        static_cast<unsigned long long>(drainStalls),
        static_cast<unsigned long long>(dramStalls),
        static_cast<unsigned long long>(poisonInjected),
        static_cast<unsigned long long>(poisonConsumed),
        static_cast<unsigned long long>(poisonDelivered),
        static_cast<unsigned long long>(poisonContained),
        static_cast<unsigned long long>(linkDegradations));
    return buf;
}

} // namespace cxlmemo
