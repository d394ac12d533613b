/**
 * @file
 * Fabric-wide latency attribution: the switch path as AccountedStations.
 *
 * DESIGN §13 gave every single-machine station an exact queue/service
 * decomposition; the multi-host pool (DESIGN §16) left the switch a
 * blind spot. This header extends the same contract across the fabric:
 * every request a host submits through its switch port is accounted at
 * five per-port stations --
 *
 *     sw.credit_wait   port rd/wr credit gate (buffer station)
 *     sw.voq_wait      virtual output queue (buffer station)
 *     sw.arb           crossbar grant + request wire serialization
 *     sw.wire          response egress wire (+ both port-latency hops)
 *     sw.dev_service   pooled device service behind the switch
 *
 * -- and bracketed end-to-end from host issue to response delivery, so
 * per port (== per host) the station stack sums in integer ticks to
 * the measured cross-fabric latency with a non-negative residual (the
 * residual is exactly zero on a clean run; held-while-down time and
 * the unaccounted tail of fenced/aborted requests land there).
 * Little's law runs as the same built-in self-test: the credit and
 * VOQ stations bracket residency with enter()/exitNow(), making their
 * occupancy integrals independent measurements.
 *
 * Contract (identical to the host-side board): constructed only when
 * `obs.attribution` is set, every instrumentation site is a null
 * pointer test otherwise; enabling it never schedules events, so
 * simulated results are bit-identical either way; all accounting
 * happens on the fabric domain, so parallel (`--sim-threads`) runs
 * produce byte-identical snapshots; FabricPortSnap/FabricSnapshot
 * merge exactly and associatively for `--jobs` sweeps, and the
 * cluster-wide roll-up is the same merge applied across ports.
 */

#ifndef CXLMEMO_SIM_FABRIC_ATTRIB_HH
#define CXLMEMO_SIM_FABRIC_ATTRIB_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/attribution.hh"
#include "sim/types.hh"

namespace cxlmemo
{

/** Stations on the switch path, in upstream-to-downstream order. */
enum class FabricStation : std::uint8_t
{
    CreditWait, //!< waiting for a port rd/wr credit (buffer)
    VoqWait,    //!< queued in the port's virtual output queue (buffer)
    Arb,        //!< crossbar grant + request serialization + forward
    Wire,       //!< response egress serialization + both port hops
    DevService, //!< pooled device service time (shared back end)
    NumStations,
};

constexpr std::size_t numFabricStations =
    static_cast<std::size_t>(FabricStation::NumStations);

/** Dotted station name used in reports ("sw.voq_wait"). */
const char *fabricStationName(FabricStation id);

/** One port's attribution roll-up: the five switch stations plus the
 *  end-to-end bracket over every request the port carried. */
using FabricPortSnap = StationStack<FabricStation>;

/**
 * The fabric's attribution roll-up: one FabricPortSnap per switch
 * port over a shared measurement window. merge() is the `--jobs`
 * shard merge (windows and per-port sums add); cluster() is the
 * cross-port roll-up inside one window.
 */
struct FabricSnapshot
{
    Tick elapsed = 0;
    std::vector<FabricPortSnap> ports;

    bool enabled() const { return !ports.empty(); }

    /** Exact, associative shard merge (elapsed adds; ports pairwise). */
    void merge(const FabricSnapshot &o);

    /** Cluster-wide roll-up: every port merged into one snap. */
    FabricPortSnap cluster() const;

    /** Every port's stack reconstructs its measured total. */
    bool decompositionExact() const;

    /** Little's law per port and cluster-wide. */
    bool littleOk(double tol = 0.05) const;

    /** Port with the highest wire/arb serialization demand (the same
     *  measure the congested-port regime saturates on) -- the
     *  aggressor's port under a noisy-neighbor flood. */
    std::uint32_t hotPort() const;

    /**
     * Cluster bottleneck classification, three regimes:
     *  - congested-port: a port's wire/arb utilization is saturated
     *    (>= 0.5) and at least ties the device pool -- the fabric
     *    itself is the bottleneck, the hot port names where;
     *  - pooled-device-backend: the shared device pool is saturated
     *    while port wires are not -- add devices, not links;
     *  - host-local: nothing behind the ports is saturated; latency
     *    lives at the tenants (issue gates, mlp limits).
     * Comma-free single line, e.g.
     * "fabric=congested-port hot=port3 fabric_util=0.87".
     */
    std::string verdict() const;

    /** Human-readable per-port breakdown (memo report --mode pool). */
    std::string table() const;

    /** Compact dump for the watchdog post-mortem. */
    std::string postMortem() const;
};

/**
 * Per-cluster registry: one StationBoard of the five switch stations
 * per port. Constructed only when fabric attribution is enabled; the
 * switch holds a pointer that is null otherwise. All mutation happens
 * on the fabric event domain.
 */
class FabricBoard
{
  public:
    /** @param ports switch ports (== hosts);
     *  @param devices pooled devices sharing the back end -- the
     *         sw.dev_service utilization denominator. */
    explicit FabricBoard(std::uint32_t ports, std::uint32_t devices = 1,
                         Tick now = 0);

    AccountedStation &
    station(std::uint32_t port, FabricStation id)
    {
        return ports_[port].station(id);
    }

    /** A request entered the fabric at @p port, issued at @p t0 on the
     *  host; matched by completeRequest() (StationBoard bracket). */
    void
    beginRequest(std::uint32_t port, Tick t0)
    {
        ports_[port].beginRequest(t0);
    }

    /** The request begun at @p t0 was delivered back at @p t. */
    void
    completeRequest(std::uint32_t port, Tick t0, Tick t)
    {
        ports_[port].completeRequest(t0, t);
    }

    /** Roll up the window ending at @p now. */
    FabricSnapshot snapshot(Tick now) const;

  private:
    std::vector<StationBoard<FabricStation>> ports_;
    Tick windowStart_ = 0;
};

} // namespace cxlmemo

#endif // CXLMEMO_SIM_FABRIC_ATTRIB_HH
