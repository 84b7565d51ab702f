//===- liftbench/src/Pipeline.h - The lift pipeline, span by span -*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's copy of core::liftBenchmark: the same public calls in
/// the same order, each wrapped in a span. The identity check (Main.cpp)
/// compares its results with core::liftBenchmark on every registry kernel,
/// so the per-layer numbers always describe the program that is measured
/// end to end.
///
//===----------------------------------------------------------------------===//

#ifndef LIFTBENCH_PIPELINE_H
#define LIFTBENCH_PIPELINE_H

#include "core/Stagg.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace liftbench {

/// In-memory span log. Every span records a name, start, end and the index
/// of its parent span (-1 for a root); all spans of one lift or request
/// share an id. Written out once, when the run ends.
class Trace {
public:
  struct Span {
    const char *Name = "";
    uint64_t Id = 0;
    int Parent = -1;
    int64_t StartNs = 0;
    int64_t EndNs = 0;
  };

  static int64_t nowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  /// Opens a span under the innermost open one (or as a root).
  int begin(const char *Name, uint64_t Id) {
    Span S;
    S.Name = Name;
    S.Id = Id;
    S.Parent = Open.empty() ? -1 : Open.back();
    S.StartNs = nowNs();
    Spans.push_back(S);
    Open.push_back(static_cast<int>(Spans.size() - 1));
    return Open.back();
  }
  void end() {
    Spans[static_cast<size_t>(Open.back())].EndNs = nowNs();
    Open.pop_back();
  }
  /// Records an already-measured span (client-side request timings).
  void add(const char *Name, uint64_t Id, int Parent, int64_t StartNs,
           int64_t EndNs) {
    Spans.push_back(Span{Name, Id, Parent, StartNs, EndNs});
  }

  const std::vector<Span> &spans() const { return Spans; }
  size_t size() const { return Spans.size(); }

  /// Self time (ns) per span name over the spans [From, size()): each
  /// span's duration minus the part its direct children cover.
  std::map<std::string, int64_t> selfTimes(size_t From) const;

  /// Writes Chrome trace-event JSON ("X" events, microseconds), loadable in
  /// Perfetto or chrome://tracing. Returns false when the file cannot be
  /// written.
  bool write(const std::string &Path) const;

private:
  std::vector<Span> Spans;
  std::vector<int> Open;
};

/// RAII span.
class Scope {
public:
  Scope(Trace &T, const char *Name, uint64_t Id) : T(T) { T.begin(Name, Id); }
  ~Scope() { T.end(); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  Trace &T;
};

/// Work counts at the span boundaries of one or more traced lifts.
struct LiftCounters {
  int64_t ValidateCalls = 0;
  int64_t Instantiations = 0; ///< Validator::instantiationsTried
  int64_t Pass = 0;           ///< instantiations that passed I/O validation
  int64_t VerifyCalls = 0;
  int64_t VerifyRejects = 0;
  int64_t RefCacheHits = 0;
  int64_t RefCacheLookups = 0;
  int64_t Attempts = 0;
  int64_t Expansions = 0;
};

/// core::liftBenchmark with a span around every public call it makes:
///   lift > cfront.parse, analysis.model, analysis.check, llm.propose,
///          llm.parse, grammar.build, validate.examples,
///          search > validate.validate, verify.verify
/// Requires Config.Search.Threads == 1 (the spans are single-threaded).
stagg::core::LiftResult tracedLift(const stagg::bench::Benchmark &B,
                                   stagg::llm::CandidateOracle &Oracle,
                                   const stagg::core::StaggConfig &Config,
                                   Trace &T, uint64_t Id,
                                   LiftCounters &Counters);

} // namespace liftbench

#endif // LIFTBENCH_PIPELINE_H
