/**
 * @file
 * SlotDrill: drives one memory device with reads and NT writes and
 * counts every callback, for the request-slot tests of each device.
 */

#ifndef CXLMEMO_TESTS_SLOT_DRILL_HH
#define CXLMEMO_TESTS_SLOT_DRILL_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "mem/request.hh"
#include "sim/pool.hh"

namespace cxlmemo
{

/**
 * Issues @c total requests, alternating reads and NT writes over eight
 * sources and spread across banks and rows. start(window) puts
 * @c window in flight; from then on each completion issues the next
 * request, so the device is re-entered from its own retire path.
 * Callbacks capture only {this, index}: they fit inline, so any pool
 * allocation during a run is the device's own.
 */
class SlotDrill
{
  public:
    SlotDrill(MemoryDevice &dev, int total)
        : dev_(dev), accepts_(total, 0), completes_(total, 0)
    {}
    // Callbacks in flight hold `this`.
    SlotDrill(const SlotDrill &) = delete;
    SlotDrill &operator=(const SlotDrill &) = delete;

    void
    start(int window)
    {
        while (issued_ < window)
            issue();
    }

    /** Every request completed once; every NT write was accepted once
     *  and no read was. */
    void
    expectEachOnce() const
    {
        ASSERT_EQ(issued_, static_cast<int>(completes_.size()));
        for (int i = 0; i < issued_; ++i) {
            EXPECT_EQ(completes_[i], 1) << "request " << i;
            EXPECT_EQ(accepts_[i], isNt(i) ? 1 : 0) << "request " << i;
        }
    }

  private:
    static bool isNt(int i) { return i % 2 == 1; }

    void
    issue()
    {
        const int i = issued_++;
        MemRequest r;
        r.addr = Addr(i) * 4160 % (Addr(1) << 24);
        r.size = cachelineBytes;
        r.cmd = isNt(i) ? MemCmd::NtWrite : MemCmd::Read;
        r.source = static_cast<std::uint16_t>(i % 8);
        if (isNt(i))
            r.onAccept = [this, i](Tick) { ++accepts_[i]; };
        r.onComplete = [this, i](Tick) {
            ++completes_[i];
            if (issued_ < static_cast<int>(completes_.size()))
                issue();
        };
        dev_.access(std::move(r));
    }

    MemoryDevice &dev_;
    std::vector<int> accepts_;
    std::vector<int> completes_;
    int issued_ = 0;
};

} // namespace cxlmemo

#endif // CXLMEMO_TESTS_SLOT_DRILL_HH
