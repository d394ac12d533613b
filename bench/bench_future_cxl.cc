/**
 * @file
 * Forward-looking exploration the paper sketches in Secs. 4.2/5.1/5.2:
 * "we anticipate that an ASIC implementation ... will result in
 * improved latency" and "CXL devices will have a bandwidth that is
 * comparable to native DRAM". This bench swaps the Agilex-I FPGA
 * device for hypothetical ASIC-class devices and re-runs the
 * latency-bound (Redis) and bandwidth-bound (DLRM) probes.
 */

#include <cstdio>

#include "apps/dlrm/dlrm.hh"
#include "apps/kvstore/kvstore.hh"
#include "bench_common.hh"
#include "cpu/streams.hh"
#include "memo/memo.hh"
#include "system/machine.hh"

using namespace cxlmemo;

namespace
{

/** ASIC controller: shallow pipeline, iMC-grade scheduler. */
CxlDeviceParams
asicDevice(std::uint32_t channels, double chanGBps)
{
    CxlDeviceParams p = testbed_params::agilexCxlDevice();
    p.name = "cxl-asic";
    p.controllerIngress = ticksFromNs(20.0);
    p.controllerEgress = ticksFromNs(20.0);
    p.readQueueEntries = 96;
    p.writeBufferEntries = 128;
    p.backendChannels = channels;
    p.backend = testbed_params::localDdr5Channel();
    p.backend.name = "asic-ddr5";
    p.backend.peakGBps = chanGBps;
    return p;
}

struct DeviceSpec
{
    const char *name;
    MachineOptions opts;
};

} // namespace

int
main()
{
    bench::banner("Future CXL",
                  "FPGA device today vs hypothetical ASIC devices");

    std::vector<DeviceSpec> specs;
    specs.push_back({"agilex-fpga (today)", MachineOptions{}});
    {
        MachineOptions o;
        o.cxlDevice = asicDevice(1, 38.4);
        specs.push_back({"asic 1x DDR5 ch", o});
    }
    {
        MachineOptions o;
        o.cxlDevice = asicDevice(2, 38.4);
        specs.push_back({"asic 2x DDR5 ch", o});
    }

    std::printf("%-22s %12s %12s %14s %14s\n", "device",
                "ld lat (ns)", "8thr BW", "Redis maxQPS",
                "DLRM@32thr");
    for (const DeviceSpec &spec : specs) {
        // Latency: single dependent miss round trip.
        Machine lat_m(Testbed::SingleSocketCxl, spec.opts);
        NumaBuffer probe = lat_m.numa().alloc(
            256 * miB, MemPolicy::membind(lat_m.cxlNode()));
        const auto [s, e] = memo::runStream(
            lat_m, 0,
            std::make_unique<PointerChaseStream>(probe, 256 * miB, 20000,
                                                 7));
        const double lat_ns = nsFromTicks(e - s) / 20000.0;

        // Bandwidth: 8-thread sequential load, 120 us after warm-up.
        Machine bw_m(Testbed::SingleSocketCxl, spec.opts);
        memo::Options window;
        window.measureUs = 120.0;
        const double bw = memo::runSeqBandwidth(
            bw_m, memo::Target::Cxl, MemOp::Kind::Load, 8, window);

        // Applications, on machines with this device.
        Machine redis_m(Testbed::SingleSocketCxl, spec.opts);
        const double redis_qps = kv::maxSustainableQps(
            redis_m, kv::YcsbWorkload::a(), 1.0, 0.2);

        Machine dlrm_m(Testbed::SingleSocketCxl, spec.opts);
        const double dlrm = dlrm::runInferenceThroughput(
            dlrm_m, dlrm::DlrmParams{}, MemPolicy::membind(dlrm_m.cxlNode()),
            32);

        std::printf("%-22s %12.1f %12.1f %14.0f %14.0f\n", spec.name,
                    lat_ns, bw, redis_qps, dlrm);
    }
    bench::note("paper Sec. 4.2/5.1: ASIC latency lifts the "
                "latency-bound Redis; Sec. 5.2: DRAM-class bandwidth "
                "lifts the bandwidth-bound DLRM toward local-DRAM "
                "scaling");
    return 0;
}
