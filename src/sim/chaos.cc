/**
 * @file
 * ChaosSpec parsing/validation and ChaosStats merge/summary.
 */

#include "sim/chaos.hh"

#include <cstdio>
#include <stdexcept>

#include "sim/spec.hh"
#include "sim/statmerge.hh"

namespace cxlmemo
{

const char *
containPolicyName(ContainPolicy p)
{
    switch (p) {
    case ContainPolicy::Poison:
        return "poison";
    case ContainPolicy::Abort:
        return "abort";
    }
    return "?";
}

void
ChaosSpec::validate() const
{
    if (!(retrainNs > 0.0))
        throw std::invalid_argument(
            "ChaosSpec: retrain-ns must be positive");
    if (!(stepUpNs > 0.0))
        throw std::invalid_argument(
            "ChaosSpec: step-up-ns must be positive");
    if (!(abortNs > 0.0))
        throw std::invalid_argument(
            "ChaosSpec: abort-ns must be positive");
    if (readdAtNs > 0 && removeAtNs == 0)
        throw std::invalid_argument(
            "ChaosSpec: readd-at-ns needs remove-at-ns");
    if (readdAtNs > 0 && readdAtNs <= removeAtNs)
        throw std::invalid_argument(
            "ChaosSpec: readd-at-ns must be after remove-at-ns");
    if (maxOfflinePages == 0 || maxOfflinePages > 4096)
        throw std::invalid_argument(
            "ChaosSpec: max-offline-pages must be in [1,4096]");
}

std::string
ChaosSpec::toString() const
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "link-down-at-ns=%llu,retrain-ns=%g,step-up-ns=%g,"
                  "crc-burst=%u,remove-at-ns=%llu,readd-at-ns=%llu,"
                  "contain=%s,offline-threshold=%u",
                  static_cast<unsigned long long>(linkDownAtNs),
                  retrainNs, stepUpNs, crcBurstTrigger,
                  static_cast<unsigned long long>(removeAtNs),
                  static_cast<unsigned long long>(readdAtNs),
                  containPolicyName(contain), offlineThreshold);
    return buf;
}

std::optional<ChaosSpec>
ChaosSpec::parse(const std::string &text, std::string &error)
{
    return parseSpec<ChaosSpec>(
        text, "chaos-spec", error,
        [&error](ChaosSpec &spec, const std::string &key,
                 const std::string &value) {
            if (key == "link-down-at-ns")
                return parseSpecValue(value, spec.linkDownAtNs);
            if (key == "retrain-ns")
                return parseSpecValue(value, spec.retrainNs);
            if (key == "step-up-ns")
                return parseSpecValue(value, spec.stepUpNs);
            if (key == "crc-burst")
                return parseSpecValue(value, spec.crcBurstTrigger);
            if (key == "remove-at-ns")
                return parseSpecValue(value, spec.removeAtNs);
            if (key == "readd-at-ns")
                return parseSpecValue(value, spec.readdAtNs);
            if (key == "contain") {
                if (value == "poison") {
                    spec.contain = ContainPolicy::Poison;
                } else if (value == "abort") {
                    spec.contain = ContainPolicy::Abort;
                } else {
                    error = "bad contain policy (poison|abort): " + value;
                    return false;
                }
                return true;
            }
            if (key == "abort-ns")
                return parseSpecValue(value, spec.abortNs);
            if (key == "offline-threshold")
                return parseSpecValue(value, spec.offlineThreshold);
            if (key == "max-offline-pages")
                return parseSpecValue(value, spec.maxOfflinePages);
            if (key == "seed")
                return parseSpecValue(value, spec.seed);
            return false;
        });
}

void
ChaosStats::merge(const ChaosStats &o)
{
    mergeCounters(*this, o, &ChaosStats::linkDowns, &ChaosStats::retrains,
                  &ChaosStats::widthStepUps, &ChaosStats::blockedMsgs,
                  &ChaosStats::removals, &ChaosStats::readds,
                  &ChaosStats::abortedReads, &ChaosStats::abortedWrites,
                  &ChaosStats::abortedBytes, &ChaosStats::poisonEvents,
                  &ChaosStats::pagesOfflined, &ChaosStats::offlinedBytes,
                  &ChaosStats::migratedBytes,
                  &ChaosStats::dataAtRiskBytes);
    // Timestamps: each side owns its own (device: link/removal, host:
    // ledger), so a nonzero value wins; concurrent nonzeros take max.
    mergeTimestamps(*this, o, &ChaosStats::linkDownAt,
                    &ChaosStats::linkDetectAt, &ChaosStats::linkUpAt,
                    &ChaosStats::linkFullWidthAt, &ChaosStats::removeAt,
                    &ChaosStats::removeDetectAt, &ChaosStats::readdAt);
}

std::string
ChaosStats::summary() const
{
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "link-downs=%llu retrains=%llu step-ups=%llu blocked=%llu "
        "removals=%llu readds=%llu aborted=%llu/%llu "
        "aborted-bytes=%llu pages-offlined=%llu offlined-bytes=%llu "
        "migrated-bytes=%llu data-at-risk=%llu",
        static_cast<unsigned long long>(linkDowns),
        static_cast<unsigned long long>(retrains),
        static_cast<unsigned long long>(widthStepUps),
        static_cast<unsigned long long>(blockedMsgs),
        static_cast<unsigned long long>(removals),
        static_cast<unsigned long long>(readds),
        static_cast<unsigned long long>(abortedReads),
        static_cast<unsigned long long>(abortedWrites),
        static_cast<unsigned long long>(abortedBytes),
        static_cast<unsigned long long>(pagesOfflined),
        static_cast<unsigned long long>(offlinedBytes),
        static_cast<unsigned long long>(migratedBytes),
        static_cast<unsigned long long>(dataAtRiskBytes));
    return buf;
}

} // namespace cxlmemo
