#include "memo/memo.hh"

#include "sim/logging.hh"

namespace cxlmemo
{
namespace memo
{

const char *
targetName(Target t)
{
    switch (t) {
      case Target::Ddr5Local:
        return "DDR5-L8";
      case Target::Ddr5Remote:
        return "DDR5-R1";
      case Target::Cxl:
        return "CXL";
    }
    return "?";
}

Testbed
testbedFor(Target target)
{
    return target == Target::Ddr5Remote ? Testbed::DualSocket
                                        : Testbed::SingleSocketCxl;
}

std::unique_ptr<Machine>
makeMachine(Target target, const Options &opts, bool prefetch)
{
    MachineOptions mo;
    mo.prefetchEnabled = prefetch;
    mo.faults = opts.faults;
    mo.qos = opts.qos;
    mo.chaos = opts.chaos;
    mo.obs = opts.obs;
    mo.simThreads = opts.simThreads;
    if (opts.watchdogUs > 0.0)
        mo.watchdogInterval = ticksFromUs(opts.watchdogUs);
    return std::make_unique<Machine>(testbedFor(target), mo);
}

NodeId
targetNode(Machine &m, Target target)
{
    switch (target) {
      case Target::Ddr5Local:
        return m.localNode();
      case Target::Ddr5Remote:
        return m.remoteNode();
      case Target::Cxl:
        return m.cxlNode();
    }
    CXLMEMO_PANIC("bad target");
}

} // namespace memo
} // namespace cxlmemo
