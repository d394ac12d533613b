/**
 * @file
 * YCSB workload generator (Cooper et al., SoCC'10), mirroring the
 * configurations the paper drives Redis with (Sec. 5.1):
 *
 *  A: 50% read / 50% update          (uniform in the paper's runs)
 *  B: 95% read /  5% update
 *  C: 100% read
 *  D: 95% read /  5% insert, reads drawn from the *latest* inserts
 *     (also run with zipfian and uniform request distributions)
 *  F: 50% read / 50% read-modify-write
 *
 *  E (scan) is omitted, as in the paper ("Workload E is omitted here
 *  as it is range query").
 */

#ifndef CXLMEMO_APPS_KVSTORE_YCSB_HH
#define CXLMEMO_APPS_KVSTORE_YCSB_HH

#include <cstdint>
#include <memory>
#include <string>

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace cxlmemo
{
namespace kv
{

/** Operation mix element. */
enum class YcsbOp : std::uint8_t
{
    Read,
    Update,
    Insert,
    ReadModifyWrite,
};

/** Request key distribution. */
enum class KeyDist : std::uint8_t
{
    Uniform,
    Zipfian, //!< scrambled zipfian over the key space
    Latest,  //!< skewed toward the most recent inserts
};

/** Proportions of one workload; must sum to 1. */
struct YcsbWorkload
{
    std::string name;
    double read = 1.0;
    double update = 0.0;
    double insert = 0.0;
    double rmw = 0.0;
    KeyDist dist = KeyDist::Uniform;

    static YcsbWorkload a(KeyDist d = KeyDist::Uniform);
    static YcsbWorkload b(KeyDist d = KeyDist::Uniform);
    static YcsbWorkload c(KeyDist d = KeyDist::Uniform);
    static YcsbWorkload d(KeyDist d = KeyDist::Latest);
    static YcsbWorkload f(KeyDist d = KeyDist::Uniform);
};

/** One generated request. */
struct YcsbRequest
{
    YcsbOp op = YcsbOp::Read;
    std::uint64_t key = 0;
};

/**
 * Draws requests for a keyspace of @p initialKeys records, growing on
 * inserts up to @p capacity (pre-sized by the store).
 */
class YcsbGenerator
{
  public:
    YcsbGenerator(YcsbWorkload workload, std::uint64_t initialKeys,
                  std::uint64_t capacity, std::uint64_t seed);

    YcsbRequest next();

    std::uint64_t keyCount() const { return keyCount_; }

  private:
    std::uint64_t drawKey();

    YcsbWorkload workload_;
    std::uint64_t keyCount_;
    std::uint64_t capacity_;
    Rng rng_;
    std::unique_ptr<ScrambledZipfianGenerator> zipf_;
    std::unique_ptr<ZipfianGenerator> latest_;
};

} // namespace kv
} // namespace cxlmemo

#endif // CXLMEMO_APPS_KVSTORE_YCSB_HH
