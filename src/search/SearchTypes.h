//===- search/SearchTypes.h - Shared search configuration -------*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Configuration and result types shared by the top-down and bottom-up
/// weighted A\* searches, including the per-penalty ablation switches that
/// drive the Table 2 experiments, plus the candidate-stream interface both
/// enumerators implement and the one loop that probes it.
///
//===----------------------------------------------------------------------===//

#ifndef STAGG_SEARCH_SEARCHTYPES_H
#define STAGG_SEARCH_SEARCHTYPES_H

#include "taco/Ast.h"

#include <cstdint>
#include <functional>
#include <string>

namespace stagg {
namespace search {

/// Ablation switches and resource limits for the searches.
struct SearchConfig {
  /// Top-down penalty criteria a1..a5 (§5.1).
  bool PenaltyA1 = true;
  bool PenaltyA2 = true;
  bool PenaltyA3 = true;
  bool PenaltyA4 = true;
  bool PenaltyA5 = true;

  /// Bottom-up penalty criteria b1..b2 (§5.2).
  bool PenaltyB1 = true;
  bool PenaltyB2 = true;

  /// Maximum expression depth for the top-down search (§5.1).
  int MaxDepth = 6;

  /// Wall-clock budget per query in seconds (the paper uses 60 minutes on a
  /// laptop; the simulated substrate is far faster).
  double TimeoutSeconds = 5.0;

  /// Safety caps so ablated configurations terminate.
  int64_t MaxExpansions = 2'000'000;
  int MaxAttempts = 20'000;

  /// Kept only for liftbench/, which sets and checks it; nothing in src/
  /// reads it. Goes with the next benchmark change.
  int Threads = 1;

  /// Convenience: disables all penalties of one search (Drop(A)/Drop(B)).
  void dropAllTopDownPenalties() {
    PenaltyA1 = PenaltyA2 = PenaltyA3 = PenaltyA4 = PenaltyA5 = false;
  }
  void dropAllBottomUpPenalties() { PenaltyB1 = PenaltyB2 = false; }
};

/// Callback deciding whether a complete template solves the query (the
/// pipeline's validate-then-verify step). Returning true stops the search.
using TemplateProbe = std::function<bool(const taco::Program &Template)>;

/// Kept only for liftbench/, which passes its probe this way; goes with the
/// next benchmark change. The factory is called once, with 0, before
/// enumeration starts.
using TemplateProbeFactory = std::function<TemplateProbe(int Worker)>;

/// Outcome of one search run.
struct SearchResult {
  bool Solved = false;
  taco::Program SolvedTemplate;

  /// Number of complete templates submitted to validation ("attempts").
  int Attempts = 0;

  /// Number of queue pops (enumerated partial templates).
  int64_t Expansions = 0;

  double Seconds = 0;
  std::string FailReason;
};

/// Resumable enumeration of complete candidates in probe order: the
/// interface both enumerators implement. next() returns false once the
/// search is exhausted or a budget/timeout fires, after which failReason()
/// is valid.
class CandidateStream {
public:
  virtual ~CandidateStream() = default;

  /// Yields the next complete template to probe, after the per-pop timeout
  /// and budget checks.
  virtual bool next(taco::Program &Out) = 0;

  /// Why enumeration stopped ("timeout", "budget exhausted", "search space
  /// exhausted", ...). Valid once next() has returned false.
  virtual const std::string &failReason() const = 0;

  /// Running counters: templates yielded so far, and queue pops up to and
  /// including the one that completed the last yielded template.
  virtual int attempts() const = 0;
  virtual int64_t expansions() const = 0;

  /// Wall-clock seconds since the stream was created — the same clock the
  /// per-pop timeout checks read.
  virtual double seconds() const = 0;
};

/// The search loop shared by both enumerators: probe every candidate of
/// \p Stream until one is accepted or the stream ends.
SearchResult runSearch(CandidateStream &Stream, const TemplateProbe &Probe);

} // namespace search
} // namespace stagg

#endif // STAGG_SEARCH_SEARCHTYPES_H
