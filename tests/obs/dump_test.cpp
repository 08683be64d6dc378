// PeriodicDumper suite. The contract under test is the drain-robustness
// fix: Final() joins the background thread FIRST and then runs the dump on
// the caller's thread, so the final export always lands and always
// reflects end state — even if the periodic thread never got a turn or the
// process is mid-teardown.

#include "obs/dump.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

namespace gvex {
namespace obs {
namespace {

TEST(DumpTest, FinalRunsTheDumpOnTheCallerThreadExactlyOnce) {
  std::atomic<int> dumps{0};
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> final_on_caller{false};
  {
    // interval 0: no background thread at all — the final dump is the
    // only dump, which is exactly the forced-drain shape.
    PeriodicDumper dumper(0, [&] {
      dumps.fetch_add(1);
      if (std::this_thread::get_id() == caller) final_on_caller.store(true);
    });
    EXPECT_EQ(dumps.load(), 0);
    dumper.Final();
    EXPECT_EQ(dumps.load(), 1);
    EXPECT_TRUE(final_on_caller.load());
    dumper.Final();  // idempotent
    EXPECT_EQ(dumps.load(), 1);
  }
  // Destructor after Final() adds nothing either.
  EXPECT_EQ(dumps.load(), 1);
}

TEST(DumpTest, DestructorActsAsFinal) {
  std::atomic<int> dumps{0};
  { PeriodicDumper dumper(0, [&] { dumps.fetch_add(1); }); }
  EXPECT_EQ(dumps.load(), 1);
}

TEST(DumpTest, PeriodicThreadDumpsRepeatedly) {
  std::atomic<int> dumps{0};
  {
    PeriodicDumper dumper(0.02, [&] { dumps.fetch_add(1); });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (dumps.load() < 2 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_GE(dumps.load(), 2);
  }
  // The final dump still ran on top of the periodic ones.
  EXPECT_GE(dumps.load(), 3);
}

}  // namespace
}  // namespace obs
}  // namespace gvex
