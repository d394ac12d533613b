#include "sim/metrics.hh"

#include <charconv>
#include <cstdio>

namespace cxlmemo
{

void
MetricsRegistry::appendRow(Tick now, const std::string &name,
                           const char *kind, std::uint64_t value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.1f,", nsFromTicks(now));
    rows_ += buf;
    rows_ += name;
    rows_ += ',';
    rows_ += kind;
    std::snprintf(buf, sizeof(buf), ",%llu\n",
                  static_cast<unsigned long long>(value));
    rows_ += buf;
}

void
MetricsRegistry::appendRow(Tick now, const std::string &name,
                           const char *kind, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.1f,", nsFromTicks(now));
    rows_ += buf;
    rows_ += name;
    rows_ += ',';
    rows_ += kind;
    std::snprintf(buf, sizeof(buf), ",%.6g\n", value);
    rows_ += buf;
}

void
MetricsRegistry::addHistogram(std::string name,
                              std::function<const LatencyHistogram *()>
                                  read,
                              double scale)
{
    Hist h;
    h.name = std::move(name);
    h.read = std::move(read);
    h.scale = scale;
    // The percentile rows ride on a plain counter of window samples,
    // so the histogram stream participates in the timeline's
    // conservation property (sum of <name>.n deltas == final total).
    addCounter(h.name + ".n", [r = h.read] {
        const LatencyHistogram *src = r();
        return src ? src->count() : 0;
    });
    hists_.push_back(std::move(h));
}

void
MetricsRegistry::snapshotHists(Tick now)
{
    static constexpr double kQs[] = {50.0, 95.0, 99.0, 99.9};
    static constexpr const char *kQNames[] = {".p50", ".p95", ".p99",
                                              ".p999"};
    for (Hist &h : hists_) {
        const LatencyHistogram *src = h.read();
        if (!src)
            continue;
        const auto &cur = src->bucketCounts();
        const std::uint64_t cnt = src->count();
        const std::uint64_t win = cnt - h.lastCount;
        if (win > 0) {
            std::array<std::uint64_t, LatencyHistogram::kBuckets> delta;
            for (std::uint32_t b = 0; b < LatencyHistogram::kBuckets;
                 ++b)
                delta[b] = cur[b] - h.last[b];
            double out[4];
            LatencyHistogram::quantilesFromBuckets(delta, win, kQs, out,
                                                   4);
            for (std::size_t q = 0; q < 4; ++q)
                appendRow(now, h.name + kQNames[q], "pctl",
                          out[q] * h.scale);
        }
        h.last = cur;
        h.lastCount = cnt;
    }
}

void
MetricsRegistry::snapshot(Tick now)
{
    ++snapshots_;
    // All rows of one snapshot share the time column; format it once
    // (and counter values with to_chars below): at pool scale the
    // sampler emits thousands of rows, and per-row snprintf was the
    // measurable part of the metrics overhead.
    char tbuf[32];
    std::snprintf(tbuf, sizeof(tbuf), "%.1f,", nsFromTicks(now));
    for (Counter &c : counters_) {
        const std::uint64_t total = c.read();
        // Monotonicity is the source's contract; a reset between
        // snapshots would make the delta wrap. Clamp defensively so a
        // misbehaving source corrupts one row, not the whole timeline.
        const std::uint64_t delta = total >= c.last ? total - c.last : 0;
        // The timeline is a change log: a zero delta carries no
        // information (sum(deltas) == total holds with or without
        // it), and skipping it keeps a fleet of mostly-idle fabric
        // counters from dominating the sampling cost.
        if (delta != 0) {
            rows_ += tbuf;
            rows_ += c.name;
            rows_ += ",delta,";
            char vbuf[24];
            const auto r = std::to_chars(vbuf, vbuf + sizeof(vbuf),
                                         delta);
            rows_.append(vbuf, r.ptr);
            rows_ += '\n';
        }
        c.last = total;
    }
    for (Gauge &g : gauges_) {
        const double v = g.read();
        // Same rule for gauges: the level is emitted when it moves
        // (and once at the first sample, so every gauge appears);
        // readers hold the last value across silent intervals.
        if (!g.emitted || v != g.last) {
            appendRow(now, g.name, "gauge", v);
            g.emitted = true;
            g.last = v;
        }
    }
    snapshotHists(now);
}

void
MetricsRegistry::flush(Tick now)
{
    if (flushed_)
        return;
    flushed_ = true;
    snapshot(now);
    for (const Counter &c : counters_)
        appendRow(now, c.name, "total", c.read());
}

} // namespace cxlmemo
