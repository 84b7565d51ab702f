//===- driver/SuiteRunner.h - Parallel pipeline execution -------*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Batch-mode client of the lift API: submits a benchmark selection through
/// api::Endpoint and renders the responses as a results table (human table,
/// CSV or TSV). Batch runs and `stagg serve` sessions execute the identical
/// api path — every worker's oracle is seeded identically, so worker count
/// and caching never change the per-benchmark results, only the wall
/// clock.
///
//===----------------------------------------------------------------------===//

#ifndef STAGG_DRIVER_SUITERUNNER_H
#define STAGG_DRIVER_SUITERUNNER_H

#include "api/Endpoint.h"
#include "driver/Cli.h"

#include <iosfwd>
#include <string>
#include <vector>

namespace stagg {
namespace driver {

/// One benchmark's outcome, in suite order.
struct RunRow {
  std::string Benchmark;
  std::string Category;
  core::LiftResult Result;

  /// Served from the kernel-text cache (duplicate kernel in the suite).
  bool CacheHit = false;
};

/// A whole suite pass.
struct SuiteReport {
  std::vector<RunRow> Rows;

  /// Wall-clock seconds for the whole pool (not the sum of per-benchmark
  /// times).
  double WallSeconds = 0;

  /// Worker-pool width actually used.
  int Threads = 1;

  /// Serving-layer counters for --cache-stats.
  serve::CacheStats Cache;

  int solvedCount() const;
  double solvedPercent() const;
  double avgSecondsSolved() const;
  double avgAttemptsSolved() const;
};

/// Runs \p Suite under \p Options. Progress lines (when Options.Verbose) go
/// to \p Progress; pass nullptr for silence.
SuiteReport runSuite(const std::vector<const bench::Benchmark *> &Suite,
                     const CliOptions &Options, std::ostream *Progress);

/// Renders the aligned human-readable table plus a summary footer.
void printTable(std::ostream &Os, const SuiteReport &Report);

/// Renders machine-readable rows (header + one line per benchmark) with
/// \p Separator, followed by no footer — consumers aggregate themselves.
void printDelimited(std::ostream &Os, const SuiteReport &Report,
                    char Separator);

/// Writes printDelimited(',') to \p Path; returns false on I/O failure.
bool writeCsv(const std::string &Path, const SuiteReport &Report);

} // namespace driver
} // namespace stagg

#endif // STAGG_DRIVER_SUITERUNNER_H
