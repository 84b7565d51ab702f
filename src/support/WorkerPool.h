//===- support/WorkerPool.h - Fork/join worker pool -------------*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fork/join pool for the tiled v2 `execute` path. Each run() is one
/// session: worker 0 executes on the calling thread, workers 1..K-1 on
/// freshly spawned std::threads, and run() returns only after every
/// participant has — a session barrier, so a failed run can never leave a
/// detached worker behind. The first exception thrown by any participant is
/// rethrown on the caller after the barrier.
///
/// Spawning per session keeps the pool stateless: a serve process running W
/// concurrent requests holds exactly the threads those requests need, and
/// tests can assert quiescence simply by returning from run().
///
//===----------------------------------------------------------------------===//

#ifndef STAGG_SUPPORT_WORKERPOOL_H
#define STAGG_SUPPORT_WORKERPOOL_H

#include <functional>

namespace stagg {
namespace support {

/// Resolves a thread-count knob: N > 0 is taken literally, 0 (or negative)
/// means "one per hardware thread" (at least 1).
int resolveThreads(int Requested);

class WorkerPool {
public:
  /// Runs Body(0..Participants-1) concurrently and joins all of them before
  /// returning. Body(0) runs on the calling thread. If any participant
  /// throws, the remaining participants still run to completion (Body is
  /// responsible for observing its own cancellation signal) and the first
  /// captured exception is rethrown here.
  void run(int Participants, const std::function<void(int Worker)> &Body);
};

} // namespace support
} // namespace stagg

#endif // STAGG_SUPPORT_WORKERPOOL_H
