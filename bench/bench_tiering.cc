/**
 * @file
 * Tiering-policy study: the paper states that weighted round-robin
 * interleaving "should serve as a baseline for most memory tiering
 * policies" (Sec. 5). This bench drives a skewed (zipfian) workload
 * whose working set exceeds a fixed DRAM budget and compares:
 *
 *   cxl-only     everything on the expander (lower bound)
 *   interleave   weighted round-robin at the budget ratio (baseline)
 *   tiering      the hot/cold daemon promoting into the DRAM budget
 *   dram-only    everything local (upper bound, capacity permitting)
 *
 * A real tiering policy must land between `interleave` and
 * `dram-only`; the bench shows ours does, and by how much.
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "apps/tiering/tiering.hh"
#include "bench_common.hh"
#include "cpu/streams.hh"
#include "memo/memo.hh"
#include "sim/rng.hh"

using namespace cxlmemo;
using namespace cxlmemo::tiering;

namespace
{

constexpr std::uint64_t workingSet = 1 * giB;
constexpr double dramShare = 0.25; // DRAM budget = 1/4 of the data
constexpr std::uint32_t threads = 4;

/** Zipfian reads over the tiered buffer (heat-aware translation). */
class TieredZipfStream : public AccessStream
{
  public:
    TieredZipfStream(TieredBuffer &buf, std::uint64_t seed)
        : buf_(buf),
          zipf_(buf.size() / pageBytes, 0.99),
          rng_(seed)
    {}

    bool
    next(MemOp &op) override
    {
        // One hot-page-distributed line read per op.
        const std::uint64_t page = zipf_.next(rng_);
        const std::uint64_t off = page * pageBytes
                                  + rng_.below(pageBytes / 64) * 64;
        op.kind = MemOp::Kind::Load;
        op.paddr = buf_.touch(off);
        return true;
    }

  private:
    TieredBuffer &buf_;
    ScrambledZipfianGenerator zipf_;
    Rng rng_;
};

/** Same workload over a statically placed buffer. */
class StaticZipfStream : public AccessStream
{
  public:
    StaticZipfStream(const NumaBuffer &buf, std::uint64_t seed)
        : buf_(buf), zipf_(buf.size() / pageBytes, 0.99), rng_(seed)
    {}

    bool
    next(MemOp &op) override
    {
        const std::uint64_t page = zipf_.next(rng_);
        const std::uint64_t off = page * pageBytes
                                  + rng_.below(pageBytes / 64) * 64;
        op.kind = MemOp::Kind::Load;
        op.paddr = buf_.translate(off);
        return true;
    }

  private:
    const NumaBuffer &buf_;
    ScrambledZipfianGenerator zipf_;
    Rng rng_;
};

/** Lines read per second by @p threads streams from @p make on @p m,
 *  measured over @p measureUs after @p warmupUs. */
double
linesPerSec(Machine &m, const memo::Flood::MakeStream &make,
            double warmupUs, double measureUs)
{
    memo::Flood flood(m, threads, make);
    const Tick from = m.eq().curTick() + ticksFromUs(warmupUs);
    const std::uint64_t lines =
        memo::countOver(m, {from, from + ticksFromUs(measureUs)},
                        [&] { return flood.sum(&ThreadStats::loads); });
    return static_cast<double>(lines) / (measureUs * 1e-6);
}

double
runStatic(const MemPolicy &policy)
{
    Machine m(Testbed::SingleSocketCxl);
    NumaBuffer buf = m.numa().alloc(workingSet, policy);
    return linesPerSec(
        m,
        [&](std::uint32_t t) {
            return std::make_unique<StaticZipfStream>(buf, 91 + t);
        },
        200.0, 600.0);
}

} // namespace

int
main()
{
    bench::banner("Tiering study",
                  "zipfian reads, working set 4x the DRAM budget "
                  "(lines read per second)");

    const double cxl_only =
        runStatic(MemPolicy::membind(
            Machine(Testbed::SingleSocketCxl).cxlNode()));

    Machine probe(Testbed::SingleSocketCxl);
    const double interleave = runStatic(MemPolicy::splitDramCxl(
        probe.localNode(), probe.cxlNode(), 1.0 - dramShare));

    double tiering_tput = 0.0;
    double residency = 0.0;
    std::uint64_t promotions = 0;
    {
        Machine m(Testbed::SingleSocketCxl);
        TieringParams tp;
        tp.dramBudgetPages = static_cast<std::uint64_t>(
            workingSet / pageBytes * dramShare);
        TieredBuffer buf(m, workingSet, tp);
        buf.startDaemon();
        // Let the daemon converge before measuring.
        tiering_tput = linesPerSec(
            m,
            [&](std::uint32_t t) {
                return std::make_unique<TieredZipfStream>(buf, 91 + t);
            },
            8000.0, 600.0);
        residency = buf.dramResidency();
        promotions = buf.stats().promotions;
    }

    const double dram_only = runStatic(MemPolicy::membind(
        Machine(Testbed::SingleSocketCxl).localNode()));

    std::printf("%-22s %14s %10s\n", "policy", "lines/s",
                "vs baseline");
    auto row = [&](const char *name, double v) {
        std::printf("%-22s %14.0f %+9.1f%%\n", name, v,
                    (v / interleave - 1.0) * 100.0);
    };
    row("cxl-only", cxl_only);
    row("interleave 3:1 (base)", interleave);
    row("tiering daemon", tiering_tput);
    row("dram-only (upper)", dram_only);
    std::printf("\ntiering daemon: %.1f%% of pages resident on DRAM "
                "(budget %.0f%%), %llu promotions\n",
                residency * 100.0, dramShare * 100.0,
                (unsigned long long)promotions);
    bench::note("paper Sec. 5: weighted round-robin is the baseline a "
                "tiering policy must beat; with a skewed working set "
                "the hot/cold daemon should land between the baseline "
                "and dram-only");
    return 0;
}
