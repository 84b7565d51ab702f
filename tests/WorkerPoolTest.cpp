//===- tests/WorkerPoolTest.cpp - Fork/join worker pool -------------------===//
//
// The session contract of support::WorkerPool, which the tiled v2 execute
// path runs on: every participant runs exactly once, worker 0 on the
// calling thread, and the first exception is rethrown after the join.
//
//===----------------------------------------------------------------------===//

#include "support/WorkerPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

using namespace stagg::support;

TEST(WorkerPool, RunsAllParticipantsAndRethrows) {
  WorkerPool Pool;
  std::vector<std::atomic<int>> Ran(8);
  std::thread::id Caller = std::this_thread::get_id();
  std::atomic<bool> ZeroOnCaller{false};
  Pool.run(8, [&](int W) {
    Ran[static_cast<size_t>(W)].fetch_add(1);
    if (W == 0)
      ZeroOnCaller = std::this_thread::get_id() == Caller;
  });
  for (auto &R : Ran)
    EXPECT_EQ(R.load(), 1);
  EXPECT_TRUE(ZeroOnCaller.load());

  EXPECT_THROW(Pool.run(4,
                        [](int W) {
                          if (W == 2)
                            throw std::runtime_error("boom");
                        }),
               std::runtime_error);
}

TEST(WorkerPool, ResolveThreads) {
  EXPECT_EQ(resolveThreads(3), 3);
  EXPECT_GE(resolveThreads(0), 1);
  EXPECT_GE(resolveThreads(-2), 1);
}
