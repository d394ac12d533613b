/**
 * @file
 * Ablation studies for the modeling decisions called out in
 * DESIGN.md: each section removes or varies one mechanism and shows
 * which paper observation breaks without it.
 *
 *  A1. FPGA scheduler depth (FR-FCFS scan/hit-run) -> CXL load
 *      degradation beyond ~12 threads (Fig. 3b)
 *  A2. Controller write-buffer size -> nt-store collapse (Fig. 3b/5)
 *  A4. Flushed-line handshake -> flush+load probe vs pointer chase
 *      (Fig. 2)
 *  A5. OS frame scattering -> without it, thread buffers run in bank
 *      lockstep and 16-thread DDR5-L8 load bandwidth drops 5.6%
 *      (161.2 -> 152.2 GB/s)
 *  A6. DTLB page walks -> the 1 KiB random-block penalty (Fig. 5)
 */

#include <cstdio>

#include "bench_common.hh"
#include "cpu/streams.hh"
#include "memo/memo.hh"
#include "system/machine.hh"

using namespace cxlmemo;

namespace
{

/** Every ablation measures 120 us after the default 30 us warm-up. */
memo::Options
window()
{
    memo::Options o;
    o.measureUs = 120.0;
    return o;
}

MachineOptions
withCxl(CxlDeviceParams p)
{
    MachineOptions o;
    o.cxlDevice = std::move(p);
    return o;
}

} // namespace

int
main()
{
    bench::banner("Ablations", "which mechanism produces which shape");

    // A1: deepen the FPGA scheduler to iMC-grade.
    {
        std::printf("[A1] CXL load GB/s vs threads, FPGA scheduler "
                    "(scan 6 / run 8) vs iMC-grade (16/16)\n");
        for (bool deep : {false, true}) {
            CxlDeviceParams p = testbed_params::agilexCxlDevice();
            if (deep) {
                p.backend.scanDepth = 16;
                p.backend.maxHitRun = 16;
                p.backend.tBankCycle = ticksFromNs(48.0);
            }
            std::printf("  %-10s", deep ? "imc-grade" : "fpga");
            for (std::uint32_t t : {8u, 16u, 32u}) {
                Machine m(Testbed::SingleSocketCxl, withCxl(p));
                std::printf("  %u-thr %5.1f", t,
                            memo::runSeqBandwidth(m, memo::Target::Cxl,
                                                  MemOp::Kind::Load, t,
                                                  window()));
            }
            std::printf("\n");
        }
        bench::note("the shallow scheduler is what loses row locality "
                    "beyond ~12 threads (paper's 16.8 GB/s drop)");
    }

    // A2: write-buffer size vs nt-store collapse.
    {
        std::printf("\n[A2] CXL nt-store GB/s @16 threads vs "
                    "controller write buffer\n");
        for (std::uint32_t entries : {8u, 24u, 40u, 128u, 1024u}) {
            CxlDeviceParams p = testbed_params::agilexCxlDevice();
            p.writeBufferEntries = entries;
            Machine m(Testbed::SingleSocketCxl, withCxl(p));
            std::printf("  %4u entries: %5.1f GB/s\n", entries,
                        memo::runSeqBandwidth(m, memo::Target::Cxl,
                                              MemOp::Kind::NtStore, 16,
                                              window()));
        }
        bench::note("a small FPGA write buffer fragments per-stream "
                    "runs -> the many-writer collapse the paper blames "
                    "on buffer overflow");
    }

    // A4: flush handshake.
    {
        std::printf("\n[A4] flush+load probe vs handshake penalty "
                    "(DDR5-L8)\n");
        for (bool handshake : {true, false}) {
            Machine m(Testbed::SingleSocketCxl);
            m.numa().setFlushHandshake(m.localNode(), handshake);
            const auto r = memo::runLatency(m, memo::Target::Ddr5Local);
            std::printf("  %s handshake: ld %.1f ns vs ptr-chase %.1f ns "
                        "(ratio %.2f)\n",
                        handshake ? "with" : "without", r.loadNs,
                        r.ptrChaseNs, r.loadNs / r.ptrChaseNs);
        }
        bench::note("without the handshake the flush+load probe drops "
                    "below the chase latency instead of equalling it, "
                    "and the paper's 2.2x CXL/L8 ld ratio could not sit "
                    "below its 3.7x chase ratio");
    }

    // A5: frame scattering.
    {
        std::printf("\n[A5] DDR5-L8 16-thread sequential load with/"
                    "without OS frame scattering\n");
        for (bool scatter : {true, false}) {
            Machine m(Testbed::SingleSocketCxl);
            m.numa().setScatterFrames(m.localNode(), scatter);
            std::printf("  scatter=%-5s %6.1f GB/s\n",
                        scatter ? "on" : "off",
                        memo::runSeqBandwidth(m, memo::Target::Ddr5Local,
                                              MemOp::Kind::Load, 16,
                                              window()));
        }
        bench::note("contiguous frames put every thread's stream in "
                    "bank lockstep -- a pathology real allocators "
                    "never exhibit");
    }

    // A6: TLB and small random blocks.
    {
        std::printf("\n[A6] random 1 KiB vs 64 KiB block loads "
                    "(DDR5-L8, 8 threads) with/without DTLB\n");
        for (bool tlb : {false, true}) {
            for (std::uint64_t blk : {1 * kiB, 64 * kiB}) {
                MachineOptions o;
                o.tlbEnabled = tlb;
                Machine m(Testbed::SingleSocketCxl, o);
                NumaBuffer buf = m.numa().alloc(
                    8ull * 128 * miB, MemPolicy::membind(m.localNode()));
                memo::Flood flood(m, 8, [&](std::uint32_t t) {
                    return std::make_unique<RandomBlockStream>(
                        buf, std::uint64_t(t) * 128 * miB, 128 * miB,
                        std::uint64_t(1) << 42, blk, MemOp::Kind::Load,
                        false, 7 + t);
                });
                std::printf("  tlb=%-3s blk=%2lluKiB: %6.1f GB/s\n",
                            tlb ? "on" : "off",
                            (unsigned long long)(blk / kiB),
                            flood.gbps(memo::Window::of(window())));
            }
        }
        bench::note("page walks are the real-hardware reason 1 KiB "
                    "random blocks 'suffer equally' in the paper; the "
                    "TLB model is optional and off in the headline "
                    "figures");
    }

    return 0;
}
