/**
 * @file
 * Knobs for the observability subsystem (tracing, interval metrics,
 * per-component latency histograms). All off by default; a Machine
 * built with the default options constructs no observers, schedules
 * no events and behaves bit-identically to a build without the
 * subsystem.
 */

#ifndef CXLMEMO_SIM_OBSERVABILITY_HH
#define CXLMEMO_SIM_OBSERVABILITY_HH

#include <cstdint>

#include "sim/types.hh"

namespace cxlmemo
{

struct ObservabilityOptions
{
    /** Trace every Nth request (0 = tracing off). */
    std::uint64_t traceSampleEvery = 0;

    /** Metrics snapshot interval in sim time (0 = metrics off). */
    Tick metricsInterval = 0;

    /** Per-component latency histograms (device access latency). */
    bool latencyHistograms = false;

    /** Exhaustive latency accounting and bottleneck attribution
     *  (sim/attribution.hh): every-request queue/service accounting
     *  on all stations plus the demand-read latency stack. */
    bool attribution = false;

    /** Worst-K tail capture depth per regime class (sim/tailcap.hh):
     *  every completed demand read is considered, the K worst per
     *  Local/Remote/Cxl/Fabric class are retained with their full
     *  stage bracket (0 = off). */
    std::uint32_t tailK = 0;

    bool
    enabled() const
    {
        return traceSampleEvery != 0 || metricsInterval != 0
               || latencyHistograms || attribution || tailK != 0;
    }
};

} // namespace cxlmemo

#endif // CXLMEMO_SIM_OBSERVABILITY_HH
