#include "numa/numa.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

namespace cxlmemo
{

MemPolicy
MemPolicy::splitDramCxl(NodeId dramNode, NodeId cxlNode, double cxlFraction)
{
    CXLMEMO_ASSERT(cxlFraction >= 0.0 && cxlFraction <= 1.0,
                   "cxl fraction out of range");
    if (cxlFraction <= 0.0)
        return membind(dramNode);
    if (cxlFraction >= 1.0)
        return membind(cxlNode);
    // Find the smallest N:M integer ratio (N+M <= 128) closest to the
    // requested split; e.g. 3.23% -> 30:1, 10% -> 9:1, 50% -> 1:1.
    std::uint32_t best_dram = 1;
    std::uint32_t best_cxl = 1;
    double best_err = 1e9;
    for (std::uint32_t total = 2; total <= 128; ++total) {
        for (std::uint32_t cxl_w = 1; cxl_w < total; ++cxl_w) {
            const double frac =
                static_cast<double>(cxl_w) / static_cast<double>(total);
            const double err = std::abs(frac - cxlFraction);
            if (err < best_err - 1e-12) {
                best_err = err;
                best_dram = total - cxl_w;
                best_cxl = cxl_w;
            }
        }
        if (best_err < 1e-9)
            break;
    }
    return weighted({dramNode, cxlNode}, {best_dram, best_cxl});
}

double
NumaBuffer::residencyOn(NodeId node) const
{
    if (pagePaddr_.empty())
        return 0.0;
    std::uint64_t on_node = 0;
    for (Addr base : pagePaddr_)
        if (nodeOfPaddr(base) == node)
            ++on_node;
    return static_cast<double>(on_node)
           / static_cast<double>(pagePaddr_.size());
}

namespace
{

/**
 * Nonlinear bijection on [0, 2^k): alternating odd-multiplier and
 * xor-shift rounds (each invertible mod 2^k). A *linear* permutation
 * (e.g. idx * prime mod n) would preserve the arithmetic structure of
 * per-thread buffer strides and keep every thread's stream in bank
 * lockstep -- exactly the pathology scattering must destroy.
 */
std::uint64_t
mixBits(std::uint64_t x, unsigned k)
{
    const std::uint64_t mask =
        k >= 64 ? ~std::uint64_t(0) : ((std::uint64_t(1) << k) - 1);
    const unsigned s = k / 2 + 1;
    x &= mask;
    x = (x * 0x9e3779b97f4a7c15ULL) & mask;
    x ^= x >> s;
    x = (x * 0xbf58476d1ce4e5b9ULL) & mask;
    x ^= x >> s;
    x = (x * 0x94d049bb133111ebULL) & mask;
    return x & mask;
}

/**
 * Bijection on [0, frames) via cycle-walking the power-of-two mix:
 * re-mix until the value falls inside the domain (terminates in a few
 * steps; expected iterations = next_pow2(frames) / frames < 2).
 */
std::uint64_t
scatterFrame(std::uint64_t idx, std::uint64_t frames)
{
    CXLMEMO_ASSERT(idx < frames, "frame index beyond node");
    // Width of the power-of-two domain that covers [0, frames).
    const unsigned k = std::max(1u, unsigned(std::bit_width(frames - 1)));
    std::uint64_t x = mixBits(idx, k);
    while (x >= frames)
        x = mixBits(x, k);
    return x;
}

} // namespace

NodeId
NumaSpace::addNode(std::string name, MemoryDevice *device,
                   std::uint64_t capacity, bool hasCpu)
{
    CXLMEMO_ASSERT(device != nullptr, "node without a device");
    CXLMEMO_ASSERT(capacity > 0 && capacity < (Addr(1) << nodeShift),
                   "node capacity out of range");
    NumaNode n;
    n.name = std::move(name);
    n.device = device;
    n.capacityBytes = capacity;
    n.hasCpu = hasCpu;
    nodes_.push_back(std::move(n));
    return static_cast<NodeId>(nodes_.size() - 1);
}

Addr
NumaSpace::takePage(NodeId node)
{
    NumaNode &n = nodes_.at(node);
    if (n.freeBytes() < pageBytes)
        CXLMEMO_FATAL("NUMA node '%s' out of memory", n.name.c_str());
    const std::uint64_t frames = n.capacityBytes / pageBytes;
    const std::uint64_t idx = n.allocatedBytes / pageBytes;
    n.allocatedBytes += pageBytes;

    std::uint64_t frame = idx;
    if (n.scatterFrames)
        frame = scatterFrame(idx, frames);
    return paddrOf(node, frame * pageBytes);
}

NumaBuffer
NumaSpace::alloc(std::uint64_t bytes, const MemPolicy &policy)
{
    CXLMEMO_ASSERT(bytes > 0, "zero-byte allocation");
    CXLMEMO_ASSERT(!policy.nodes.empty(), "policy without nodes");
    for (NodeId n : policy.nodes)
        CXLMEMO_ASSERT(n < nodes_.size(), "policy names unknown node %u", n);
    if (policy.kind == MemPolicy::Kind::Weighted)
        CXLMEMO_ASSERT(policy.weights.size() == policy.nodes.size(),
                       "weighted policy needs one weight per node");

    // Offline nodes (hot-removed devices) never receive new pages: the
    // policy's node list is filtered up front, mirroring the kernel
    // dropping an offlined node from every mempolicy nodemask.
    std::vector<NodeId> live;
    std::vector<std::uint32_t> liveWeights;
    for (std::size_t i = 0; i < policy.nodes.size(); ++i) {
        if (!nodes_[policy.nodes[i]].online)
            continue;
        live.push_back(policy.nodes[i]);
        if (policy.kind == MemPolicy::Kind::Weighted)
            liveWeights.push_back(policy.weights[i]);
    }
    if (live.empty()) {
        // Every policy node is offline: redirect to the first online
        // node in the space (DRAM registers first on every machine).
        for (NodeId n = 0; n < nodes_.size(); ++n) {
            if (nodes_[n].online) {
                live.push_back(n);
                liveWeights.push_back(1);
                break;
            }
        }
        if (live.empty())
            CXLMEMO_FATAL("allocation with every NUMA node offline");
    }

    const std::uint64_t pages = (bytes + pageBytes - 1) / pageBytes;
    NumaBuffer buf;
    buf.size_ = bytes;
    buf.pagePaddr_.reserve(pages);

    switch (policy.kind) {
      case MemPolicy::Kind::Membind: {
        const NodeId n = live.front();
        for (std::uint64_t p = 0; p < pages; ++p)
            buf.pagePaddr_.push_back(takePage(n));
        break;
      }
      case MemPolicy::Kind::Weighted: {
        const std::uint64_t cycle = std::accumulate(
            liveWeights.begin(), liveWeights.end(), std::uint64_t(0));
        CXLMEMO_ASSERT(cycle > 0, "weighted policy with all-zero weights");
        for (std::uint64_t p = 0; p < pages; ++p) {
            // Position within the repeating N:M cycle decides the node.
            std::uint64_t pos = p % cycle;
            NodeId n = live.back();
            for (std::size_t i = 0; i < live.size(); ++i) {
                if (pos < liveWeights[i]) {
                    n = live[i];
                    break;
                }
                pos -= liveWeights[i];
            }
            buf.pagePaddr_.push_back(takePage(n));
        }
        break;
      }
    }
    return buf;
}

} // namespace cxlmemo
