/**
 * @file
 * NUMA topology, physical address space and page-placement policies.
 *
 * The simulated machine exposes each memory node (local DDR5 socket,
 * SNC quadrant, remote socket, CXL CPU-less node) as a NUMA node with
 * its own physical address window: node i owns [i << 40, ...). Routing
 * a physical address to its device is therefore a shift, exactly like
 * a real system's HDM decoder / SAD.
 *
 * Allocation mirrors the Linux interfaces the paper uses:
 *  - membind    (numactl --membind)
 *  - weighted N:M interleave (the tiering patch the paper applies to
 *    get e.g. a 30:1 DRAM:CXL split = 3.23% on CXL; unit weights are
 *    numactl --interleave)
 */

#ifndef CXLMEMO_NUMA_NUMA_HH
#define CXLMEMO_NUMA_NUMA_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mem/request.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace cxlmemo
{

using NodeId = std::uint32_t;

/** Bits reserved for the node-local offset in a physical address. */
constexpr unsigned nodeShift = 40;

/** @return the node owning physical address @p paddr. */
constexpr NodeId
nodeOfPaddr(Addr paddr)
{
    return static_cast<NodeId>(paddr >> nodeShift);
}

/** @return the node-local offset of @p paddr. */
constexpr Addr
localOfPaddr(Addr paddr)
{
    return paddr & ((Addr(1) << nodeShift) - 1);
}

/** Compose a physical address from node + local offset. */
constexpr Addr
paddrOf(NodeId node, Addr local)
{
    return (Addr(node) << nodeShift) | local;
}

/** Page placement policy, mirroring numactl / set_mempolicy. */
struct MemPolicy
{
    enum class Kind
    {
        Membind,  //!< all pages on one node; fatal if it fills up
        Weighted, //!< N:M round-robin (Linux weighted interleave)
    };

    Kind kind = Kind::Membind;
    std::vector<NodeId> nodes = {0};
    std::vector<std::uint32_t> weights = {}; //!< parallel to nodes (Weighted)

    static MemPolicy membind(NodeId n) { return {Kind::Membind, {n}, {}}; }

    static MemPolicy
    weighted(std::vector<NodeId> nodes, std::vector<std::uint32_t> weights)
    {
        return {Kind::Weighted, std::move(nodes), std::move(weights)};
    }

    /**
     * Convenience for the paper's experiments: put @p cxlFraction of
     * pages on @p cxlNode and the rest on @p dramNode, via the closest
     * integer weight ratio (e.g. 0.0323 -> 30:1).
     */
    static MemPolicy splitDramCxl(NodeId dramNode, NodeId cxlNode,
                                  double cxlFraction);
};

/** One NUMA node: a memory device plus capacity accounting. */
struct NumaNode
{
    std::string name;
    MemoryDevice *device = nullptr; //!< non-owning; Machine owns devices
    std::uint64_t capacityBytes = 0;
    std::uint64_t allocatedBytes = 0;
    bool hasCpu = true; //!< false for the CXL Type-3 expander

    /** False while the backing device is hot-removed; allocation
     *  policies skip offline nodes and membind redirects to the first
     *  online node, mirroring the kernel's memory-hotplug offlining. */
    bool online = true;

    /**
     * Scatter physical frames pseudo-randomly (the steady state of a
     * real OS buddy allocator) instead of handing out contiguous
     * frames. Contiguous frames would align every thread's buffer to
     * the same channel/bank phase -- a pathology real systems do not
     * exhibit. Tests may disable it for address-exactness checks.
     */
    bool scatterFrames = true;

    /**
     * Whether a demand miss on a *recently flushed* line pays an
     * extra coherence handshake at the home agent (observed for
     * directly-attached DRAM by Xiang et al. [31] and visible in the
     * paper's flush+load latency probe). The CXL path resolves the
     * flushed state inside its already-long host-bridge round trip,
     * so its node sets this false.
     */
    bool flushHandshake = true;

    std::uint64_t freeBytes() const { return capacityBytes - allocatedBytes; }
};

class NumaSpace;

/**
 * A virtually contiguous allocation whose pages are spread over NUMA
 * nodes per some policy. Streams generate buffer-relative offsets and
 * translate() them to physical addresses.
 */
class NumaBuffer
{
  public:
    std::uint64_t size() const { return size_; }

    /** Translate a buffer offset to a simulated physical address. */
    Addr
    translate(std::uint64_t offset) const
    {
        CXLMEMO_ASSERT(offset < size_, "offset beyond buffer");
        return pagePaddr_[offset / pageBytes] + offset % pageBytes;
    }

    /** Fraction of pages resident on @p node. */
    double residencyOn(NodeId node) const;

    static constexpr std::uint64_t npos = ~std::uint64_t(0);

    /** Inverse translation: the page index whose frame holds physical
     *  address @p paddr, or npos when it is not part of this buffer.
     *  Linear in the page count; used only on rare failure events. */
    std::uint64_t
    pageOf(Addr paddr) const
    {
        const Addr frame = paddr & ~static_cast<Addr>(pageBytes - 1);
        for (std::size_t p = 0; p < pagePaddr_.size(); ++p)
            if (pagePaddr_[p] == frame)
                return p;
        return npos;
    }

  private:
    friend class NumaSpace;
    std::uint64_t size_ = 0;
    std::vector<Addr> pagePaddr_; //!< physical base of each page
};

/**
 * The machine's set of NUMA nodes: physical-address routing for the
 * cache hierarchy plus the page allocator for workloads.
 */
class NumaSpace
{
  public:
    /** Register a node; returns its id (registration order). */
    NodeId addNode(std::string name, MemoryDevice *device,
                   std::uint64_t capacity, bool hasCpu = true);

    std::uint32_t numNodes() const
    {
        return static_cast<std::uint32_t>(nodes_.size());
    }

    const NumaNode &node(NodeId id) const { return nodes_.at(id); }

    /**
     * Route a physical address to its backing device.
     * @param paddr physical address
     * @param local out: device-local offset
     */
    MemoryDevice &
    route(Addr paddr, Addr &local) const
    {
        const NodeId n = nodeOfPaddr(paddr);
        CXLMEMO_ASSERT(n < nodes_.size(), "paddr to unknown node %u", n);
        local = localOfPaddr(paddr);
        return *nodes_[n].device;
    }

    /**
     * Allocate @p bytes with page placement per @p policy.
     * Fails (fatal) when the policy cannot be satisfied, mirroring a
     * strict-membind OOM.
     */
    NumaBuffer alloc(std::uint64_t bytes, const MemPolicy &policy);

    /** Bytes currently allocated on @p node. */
    std::uint64_t allocatedOn(NodeId node) const
    {
        return nodes_.at(node).allocatedBytes;
    }

    /**
     * Mark a node offline (hot-remove) or back online (re-add). A
     * re-added device comes back *empty*: its allocation counter is
     * reset, so new buffers reuse the capacity but nothing previously
     * resident survives.
     */
    void
    setNodeOnline(NodeId node, bool online)
    {
        NumaNode &n = nodes_.at(node);
        if (online && !n.online)
            n.allocatedBytes = 0; // capacity restored empty
        n.online = online;
    }

    bool nodeOnline(NodeId node) const { return nodes_.at(node).online; }

    /** Toggle frame scattering (see NumaNode::scatterFrames). */
    void
    setScatterFrames(NodeId node, bool on)
    {
        nodes_.at(node).scatterFrames = on;
    }

    /** Toggle the flushed-line handshake (see NumaNode). */
    void
    setFlushHandshake(NodeId node, bool on)
    {
        nodes_.at(node).flushHandshake = on;
    }

  private:
    /** Take one page from @p node; fatal if full. */
    Addr takePage(NodeId node);

    std::vector<NumaNode> nodes_;
};

} // namespace cxlmemo

#endif // CXLMEMO_NUMA_NUMA_HH
