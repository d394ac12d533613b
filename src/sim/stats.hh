/**
 * @file
 * SampleSeries: an exact-percentile sample recorder for latency
 * distributions.
 */

#ifndef CXLMEMO_SIM_STATS_HH
#define CXLMEMO_SIM_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace cxlmemo
{

/**
 * Stores every sample for exact percentile queries. Experiments record
 * at most a few hundred thousand samples, so exact storage is cheaper
 * than maintaining a sketch and avoids approximation arguments when
 * comparing tail latencies against the paper.
 */
class SampleSeries
{
  public:
    void record(double v) { samples_.push_back(v); }

    double
    mean() const
    {
        if (samples_.empty())
            return 0.0;
        double s = 0.0;
        for (double v : samples_)
            s += v;
        return s / static_cast<double>(samples_.size());
    }

    /**
     * Exact percentile with nearest-rank semantics.
     * @param p percentile in [0, 100]
     */
    double
    percentile(double p) const
    {
        // An empty series reports 0 rather than asserting: stats and
        // CSV emitters run unconditionally, including for runs that
        // retired no requests at all.
        if (samples_.empty())
            return 0.0;
        CXLMEMO_ASSERT(p >= 0.0 && p <= 100.0, "percentile out of range");
        std::vector<double> sorted = samples_;
        std::sort(sorted.begin(), sorted.end());
        if (p <= 0.0)
            return sorted.front();
        auto rank = static_cast<std::size_t>(
            std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
        if (rank == 0)
            rank = 1;
        return sorted[std::min(rank - 1, sorted.size() - 1)];
    }

    double p50() const { return percentile(50.0); }
    double p99() const { return percentile(99.0); }

  private:
    std::vector<double> samples_;
};

} // namespace cxlmemo

#endif // CXLMEMO_SIM_STATS_HH
