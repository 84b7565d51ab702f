//===- liftbench/src/Workload.h - Workloads, inputs and the gate -*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Everything the benchmark derives from its seed: which registry kernels
/// each workload lifts and in what order, the serve traffic (renamed inline
/// kernels, execute payloads, arrival times), the percentile rule, and the
/// correctness gate that compares every output with its expectation.
///
/// The seed only reorders and perturbs inputs: every workload lifts the
/// same kernels in every run, so seeds change the order of the work, never
/// its content.
///
//===----------------------------------------------------------------------===//

#ifndef LIFTBENCH_WORKLOAD_H
#define LIFTBENCH_WORKLOAD_H

#include "benchsuite/Benchmark.h"
#include "core/Stagg.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace liftbench {

/// Oracle seed of the CLI's default configuration.
constexpr uint64_t OracleSeed = 20250411;

/// The rule lift_search was drawn up by: kernels whose expected attempt
/// count reaches this. The membership itself is the fixed searchKernels().
constexpr int SearchMinAttempts = 100;

/// The configuration every lift runs under: the CLI defaults with one
/// search worker.
stagg::core::StaggConfig liftConfig();

/// One row of tests/expected_sweep.csv.
struct Expectation {
  std::string Name;
  bool Solved = false;
  int Attempts = 0;
  int64_t Expansions = 0;
  std::string Detail; ///< Printed concrete program, or the fail reason.
};

/// Parses an expectations CSV (header row, RFC 4180 quoting). Returns an
/// empty vector and sets \p Error on malformed input.
std::vector<Expectation> parseExpectations(const std::string &Csv,
                                           std::string &Error);

/// Parses liftbench/inline_expected.csv (header kernel,expr): the
/// expression each renamed inline kernel must lift to once the renaming is
/// undone.
std::map<std::string, std::string>
parseInlineExpectations(const std::string &Csv, std::string &Error);

/// The 13 lift_search kernels: those whose expected attempt count in
/// tests/expected_sweep.csv was >= SearchMinAttempts when the benchmark was
/// defined. The list is fixed so that a change that moves a kernel's
/// attempt count times the same kernels as its parent.
const std::vector<std::string> &searchKernels();

/// The two lift workloads: Search is searchKernels(), Quick every other
/// kernel of \p Rows, both in the order of \p Rows. Sets \p Error when a
/// listed kernel has no row. Drift names the kernels whose expected attempt
/// count now lies on the other side of SearchMinAttempts; they are reported,
/// never moved.
struct KernelSplit {
  std::vector<std::string> Search;
  std::vector<std::string> Quick;
  std::vector<std::string> Drift;
};
KernelSplit splitKernels(const std::vector<Expectation> &Rows,
                         std::string &Error);

/// A seeded permutation of 0..N-1; \p Round distinguishes successive
/// passes of one run.
std::vector<size_t> seededOrder(size_t N, uint64_t Seed, uint64_t Round);

/// Nearest-rank percentile: the smallest sample with at least Q of the
/// samples at or below it. Beyond counts the samples strictly after it in
/// sorted order; a percentile is only reported when Beyond >= MinBeyond.
struct Percentile {
  double Value = 0;
  size_t Count = 0;
  size_t Beyond = 0;
  bool Supported = false;
};
constexpr size_t MinBeyond = 10;
Percentile percentile(std::vector<double> Samples, double Q);

/// Smallest sample count for which percentile(Q) is Supported.
size_t samplesNeeded(double Q);

double median(std::vector<double> Samples);

/// Prefixes every identifier of C or TACO text (keywords and type names
/// excepted) with \p Prefix. A common prefix keeps the relative order of
/// identifiers, so the lifter sees the same kernel up to names.
std::string renameIdentifiers(const std::string &Text,
                              const std::string &Prefix);

/// Strips \p Prefix from every identifier that starts with it.
std::string undoRenaming(const std::string &Text, const std::string &Prefix);

/// The rename prefix of the \p Index-th cold request under \p Seed.
std::string renamePrefix(uint64_t Seed, uint64_t Index);

/// Concrete inputs for one execute request, and the output the C kernel
/// computes on them (cfront interpreter over doubles). Inputs are small
/// integers, so every sum and product is exact in double and the lifted
/// program must reproduce the reference bit for bit.
struct ExecPayload {
  std::string Kernel;
  std::map<std::string, int64_t> Sizes;
  std::map<std::string, std::vector<double>> Arrays;
  std::map<std::string, double> Scalars;
  std::vector<int64_t> OutShape;
  std::vector<double> Expected;
  std::string Error; ///< Set when the reference run failed.
};
ExecPayload makeExecPayload(const stagg::bench::Benchmark &B, uint64_t Seed,
                            uint64_t Index);

/// The kernels the serve mix executes (registry names from lift_quick).
const std::vector<std::string> &execKernels();

/// One request of the serve mix.
enum class RequestKind { Hit, Cold, Exec };
const char *kindName(RequestKind K);

struct ServeRequest {
  RequestKind Kind = RequestKind::Hit;
  std::string Kernel;    ///< Registry name the request derives from.
  std::string Prefix;    ///< Cold: the rename prefix.
  std::string Frame;     ///< The v2 frame, without trailing newline.
  int64_t Id = 0;
  int ExecIndex = -1;    ///< Exec: index into the payload table.
};

/// The serve traffic: blocks of 5P requests for a cold pool of P
/// kernels — each pool kernel once as a renamed inline lift, 3P registry
/// lifts cycling through the hit set, and P execute frames cycling through
/// execKernels() — shuffled per block.
struct ServeMix {
  std::vector<std::string> HitKernels;
  std::vector<std::string> ColdKernels; ///< The inline pool.
  std::vector<ExecPayload> Payloads;    ///< Indexed by ServeRequest.
  uint64_t Seed = 0;

  /// The frames of block \p Block; ids continue across blocks.
  std::vector<ServeRequest> block(uint64_t Block) const;
  size_t blockSize() const { return 5 * ColdKernels.size(); }
};
ServeMix makeServeMix(const KernelSplit &Split,
                      const std::vector<std::string> &ColdPool,
                      uint64_t Seed, std::string &Error);

/// Exponential inter-arrival gaps (seconds) of a Poisson process at
/// \p Rate requests per second.
std::vector<double> poissonGaps(size_t N, double Rate, uint64_t Seed);

/// Correctness gate. Each check returns an empty string on a match and a
/// one-line description of the mismatch otherwise.
std::string checkLift(const Expectation &E, const stagg::core::LiftResult &R);
std::string checkLiftFields(const Expectation &E, bool Solved, int Attempts,
                            int64_t Expansions, const std::string &Detail);

/// The printed detail column of a lift: the concrete program when solved,
/// the fail reason otherwise (the convention of expected_sweep.csv).
std::string liftDetail(const stagg::core::LiftResult &R);

/// Reads a whole file; empty optional-style result via \p Ok.
std::string readFile(const std::string &Path, bool &Ok);

} // namespace liftbench

#endif // LIFTBENCH_WORKLOAD_H
