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
    MachineOptions mo = opts;
    mo.prefetchEnabled = prefetch;
    return std::make_unique<Machine>(testbedFor(target), std::move(mo));
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
