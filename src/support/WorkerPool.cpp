//===- support/WorkerPool.cpp - Fork/join worker pool ---------------------===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//

#include "support/WorkerPool.h"

#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace stagg {
namespace support {

int resolveThreads(int Requested) {
  if (Requested > 0)
    return Requested;
  unsigned Hardware = std::thread::hardware_concurrency();
  return Hardware > 0 ? static_cast<int>(Hardware) : 1;
}

void WorkerPool::run(int Participants,
                     const std::function<void(int Worker)> &Body) {
  int K = Participants < 1 ? 1 : Participants;
  if (K == 1) {
    Body(0);
    return;
  }

  std::mutex Mu;
  std::exception_ptr First;
  auto Guarded = [&](int Worker) {
    try {
      Body(Worker);
    } catch (...) {
      std::lock_guard<std::mutex> Lock(Mu);
      if (!First)
        First = std::current_exception();
    }
  };

  std::vector<std::thread> Threads;
  Threads.reserve(static_cast<size_t>(K) - 1);
  for (int W = 1; W < K; ++W)
    Threads.emplace_back(Guarded, W);
  Guarded(0);
  for (std::thread &T : Threads)
    T.join();
  if (First)
    std::rethrow_exception(First);
}

} // namespace support
} // namespace stagg
