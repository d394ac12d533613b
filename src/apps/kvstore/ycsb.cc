#include "apps/kvstore/ycsb.hh"

namespace cxlmemo
{
namespace kv
{

YcsbWorkload
YcsbWorkload::a(KeyDist d)
{
    return {"A", 0.5, 0.5, 0.0, 0.0, d};
}

YcsbWorkload
YcsbWorkload::b(KeyDist d)
{
    return {"B", 0.95, 0.05, 0.0, 0.0, d};
}

YcsbWorkload
YcsbWorkload::c(KeyDist d)
{
    return {"C", 1.0, 0.0, 0.0, 0.0, d};
}

YcsbWorkload
YcsbWorkload::d(KeyDist dist)
{
    return {"D", 0.95, 0.0, 0.05, 0.0, dist};
}

YcsbWorkload
YcsbWorkload::f(KeyDist d)
{
    return {"F", 0.5, 0.0, 0.0, 0.5, d};
}

YcsbGenerator::YcsbGenerator(YcsbWorkload workload,
                             std::uint64_t initialKeys,
                             std::uint64_t capacity, std::uint64_t seed)
    : workload_(std::move(workload)),
      keyCount_(initialKeys),
      capacity_(capacity),
      rng_(seed)
{
    CXLMEMO_ASSERT(initialKeys > 0, "empty initial keyspace");
    CXLMEMO_ASSERT(capacity >= initialKeys, "capacity below keyspace");
    const double total = workload_.read + workload_.update
                         + workload_.insert + workload_.rmw;
    CXLMEMO_ASSERT(std::abs(total - 1.0) < 1e-9,
                   "workload proportions must sum to 1");
    if (workload_.dist == KeyDist::Zipfian)
        zipf_ = std::make_unique<ScrambledZipfianGenerator>(initialKeys);
    if (workload_.dist == KeyDist::Latest)
        latest_ = std::make_unique<ZipfianGenerator>(initialKeys);
}

std::uint64_t
YcsbGenerator::drawKey()
{
    switch (workload_.dist) {
      case KeyDist::Uniform:
        return rng_.below(keyCount_);
      case KeyDist::Zipfian:
        return zipf_->next(rng_) % keyCount_;
      case KeyDist::Latest: {
        // Rank 0 = the newest key; popularity decays with age.
        const std::uint64_t age = latest_->next(rng_) % keyCount_;
        return keyCount_ - 1 - age;
      }
    }
    CXLMEMO_PANIC("bad key distribution");
}

YcsbRequest
YcsbGenerator::next()
{
    const double p = rng_.uniform();
    YcsbRequest req;
    if (p < workload_.read) {
        req.op = YcsbOp::Read;
        req.key = drawKey();
    } else if (p < workload_.read + workload_.update) {
        req.op = YcsbOp::Update;
        req.key = drawKey();
    } else if (p < workload_.read + workload_.update + workload_.insert) {
        req.op = YcsbOp::Insert;
        if (keyCount_ < capacity_)
            ++keyCount_;
        req.key = keyCount_ - 1;
    } else {
        req.op = YcsbOp::ReadModifyWrite;
        req.key = drawKey();
    }
    return req;
}

} // namespace kv
} // namespace cxlmemo
