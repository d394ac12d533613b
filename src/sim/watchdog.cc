#include "sim/watchdog.hh"

#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace cxlmemo
{

Watchdog::Watchdog(ObserverClock clock, WatchdogParams params)
    : clock_(clock), params_(params)
{
    clock_.onQuiesce([this] { drained(); });
}

std::uint64_t
Watchdog::totalRetired() const
{
    std::uint64_t sum = 0;
    for (const ProgressSource *s : sources_)
        sum += s->progressRetired();
    return sum;
}

std::uint64_t
Watchdog::totalOutstanding() const
{
    std::uint64_t sum = 0;
    for (const ProgressSource *s : sources_)
        sum += s->progressOutstanding();
    return sum;
}

void
Watchdog::arm()
{
    if (armed_ || tripped_)
        return;
    // Fresh baseline: progress made while disarmed must not be
    // mistaken for progress within the next interval, and vice versa.
    lastRetired_ = totalRetired();
    strikes_ = 0;
    scheduleSnapshot();
}

void
Watchdog::scheduleSnapshot()
{
    armed_ = true;
    clock_.after(params_.interval, [this] { snapshot(); });
}

bool
Watchdog::invariantTripped()
{
    for (const ProgressSource *s : sources_) {
        const std::string violation = s->progressInvariant();
        if (!violation.empty()) {
            trip("invariant violated in '" + s->progressName()
                 + "': " + violation);
            return true;
        }
    }
    return false;
}

void
Watchdog::snapshot()
{
    armed_ = false;
    ++snapshots_;
    if (tripped_ || invariantTripped())
        return;

    const std::uint64_t retired = totalRetired();
    const std::uint64_t outstanding = totalOutstanding();
    if (outstanding > 0 && retired == lastRetired_) {
        if (++strikes_ >= params_.strikes) {
            std::ostringstream why;
            why << "no forward progress for "
                << nsFromTicks(params_.interval * strikes_)
                << " ns with " << outstanding
                << " request(s) outstanding (livelock)";
            trip(why.str());
            return;
        }
    } else {
        strikes_ = 0;
    }
    lastRetired_ = retired;
    scheduleSnapshot();
}

void
Watchdog::drained()
{
    if (!armed_ || tripped_)
        return;
    armed_ = false;
    if (invariantTripped())
        return;
    const std::uint64_t outstanding = totalOutstanding();
    if (outstanding > 0) {
        trip("event queue drained with " + std::to_string(outstanding)
             + " request(s) outstanding (deadlock)");
    }
}

void
Watchdog::noteEvent(Tick at, const std::string &text)
{
    if (events_.size() >= maxEvents) {
        events_.erase(events_.begin());
        ++eventsDropped_;
    }
    char head[48];
    std::snprintf(head, sizeof(head), "t=%.1f ns: ", nsFromTicks(at));
    events_.push_back(head + text);
}

void
Watchdog::trip(const std::string &why)
{
    tripped_ = true;
    std::ostringstream os;
    os << "watchdog trip at " << nsFromTicks(clock_.now())
       << " ns: " << why << "\n";
    for (const ProgressSource *s : sources_) {
        os << "  source '" << s->progressName() << "': retired "
           << s->progressRetired() << ", outstanding "
           << s->progressOutstanding() << "\n"
           << s->progressDiagnosis();
    }
    if (!events_.empty()) {
        os << "  lifecycle events";
        if (eventsDropped_ > 0)
            os << " (" << eventsDropped_ << " older dropped)";
        os << ":\n";
        for (const std::string &e : events_)
            os << "    " << e << "\n";
    }
    for (const auto &dump : postMortems_)
        os << dump();
    const std::string report = os.str();
    if (onTrip_) {
        onTrip_(report);
        return;
    }
    std::fputs(report.c_str(), stderr);
    std::abort();
}

} // namespace cxlmemo
