//===- verify/BoundedVerifier.h - Bounded equivalence checking --*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bounded equivalence checking between the legacy C kernel and a candidate
/// TACO program, standing in for the paper's CBMC pipeline (§7). Like the
/// paper we work over exact *rational* datatypes rather than floats. The
/// bound is over shapes and a structured input family:
///
///  * every size-parameter assignment up to a per-dimension bound,
///  * the all-ones input,
///  * one-hot bases swept jointly through pairs of operand tensors (which
///    pins down multilinear behaviour the way symbolic case analysis would),
///  * deterministic pseudo-random rational inputs (including negatives and
///    non-integers).
///
/// On disagreement a readable counterexample is produced and the pipeline
/// returns to the validator for the next substitution, exactly as in Fig. 1.
/// The candidate is compiled once per call to bytecode and every test runs
/// it through vm::Interpreter over rationals.
///
/// Two hot-path optimizations keep the Fig. 1 loop cheap without changing
/// verdicts:
///
///  * The C kernel's outputs are *candidate-independent*: for a fixed
///    (shape, input) the reference interpretation always produces the same
///    result. A ReferenceCache passed across verifyEquivalence calls (the
///    validator-fallback loop re-verifies one candidate after another
///    against the same kernel) memoizes them keyed on the serialized
///    shape + input, so only the first candidate pays for interpretation.
///  * The quadratic joint one-hot sweep over a pair of *distinct* operands
///    only distinguishes candidates with a multiplicative interaction
///    between those operands; for pairs the candidate never multiplies
///    together the sweep is reduced to its diagonal (the linear one-hot
///    probes). VerifyOptions::OneHotOnlyMultiplied restores the exhaustive
///    sweep when disabled; tests/PerfEquivalenceTest.cpp checks both paths
///    agree on the registry suite.
///
//===----------------------------------------------------------------------===//

#ifndef STAGG_VERIFY_BOUNDEDVERIFIER_H
#define STAGG_VERIFY_BOUNDEDVERIFIER_H

#include "benchsuite/Benchmark.h"
#include "cfront/Ast.h"
#include "support/Rational.h"
#include "taco/Ast.h"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace stagg {
namespace verify {

/// Verifier configuration.
struct VerifyOptions {
  /// Inclusive upper bound for each size parameter (lower bound is 1).
  /// Two suffices to expose rank and transposition errors because mixed
  /// shapes like (1,2)/(2,1) are included; tests also exercise 3.
  int64_t MaxSize = 2;

  /// Random rational trials per shape.
  int RandomTrials = 8;

  /// Cap on one-hot combinations per shape.
  int MaxOneHot = 512;

  /// Restrict the joint one-hot sweep of an operand pair to its diagonal
  /// when the candidate never multiplies (or divides) the two operands
  /// together; the cross terms only probe bilinear coefficients the
  /// candidate does not have. Disable for the exhaustive sweep.
  bool OneHotOnlyMultiplied = true;

  uint64_t Seed = 0x57466; // "STAGG"-ish; any fixed value keeps runs stable.

  /// Ignored: kept so liftbench/ compiles unchanged.
  bool UseVm = true;

  /// Run vm::optimize over the compiled candidate (with constants frozen —
  /// a concrete candidate's literals never change during a sweep). Verdicts
  /// stay bit-identical with the raw stream; VmOptimizerTest turns this off
  /// to check that across the registry.
  bool UseVmOpt = true;

  /// Skip the reference interpreter's per-access bounds checks. Only set
  /// when analysis::Checker proved every access in bounds for all sizes
  /// (CheckReport::BoundsProvenSafe) — the static proof licenses dropping
  /// the dynamic probe, shaving interpreter time off every reference run.
  /// Kernel-derived, so excluded from config fingerprints.
  bool TrustStaticBounds = false;
};

/// Outcome of a verification run.
struct VerifyResult {
  bool Equivalent = false;
  int TestsRun = 0;
  std::string Counterexample; ///< Human-readable witness when inequivalent.
};

/// Memoizes the C kernel's reference outputs across verifyEquivalence calls
/// for the *same* kernel and options (Fig. 1's fallback loop re-verifies
/// candidate after candidate). Keys are the serialized (sizes, input
/// pre-state); entries record the interpreter outcome and the output
/// array's post-state. Not thread-safe; use one per lift, like the
/// validator.
class ReferenceCache {
public:
  struct Entry {
    bool Ok = false;
    std::string Error;               ///< Interpreter diagnostic when !Ok.
    std::vector<Rational> Output;    ///< Post-state of the output argument.
  };

  /// nullptr when absent.
  const Entry *find(const std::string &Key) const {
    auto It = Map.find(Key);
    if (It == Map.end()) {
      ++Misses;
      return nullptr;
    }
    ++Hits;
    return &It->second;
  }

  const Entry &insert(std::string Key, Entry E) {
    return Map.emplace(std::move(Key), std::move(E)).first->second;
  }

  int64_t hits() const { return Hits; }
  int64_t misses() const { return Misses; }
  size_t size() const { return Map.size(); }

private:
  std::unordered_map<std::string, Entry> Map;
  mutable int64_t Hits = 0;
  mutable int64_t Misses = 0;
};

/// Checks `forall inputs up to the bound: C(x) == TACO(x)` for the concrete
/// \p Candidate program (argument names, literal constants). When \p Cache
/// is non-null the C kernel's reference outputs are reused across calls;
/// verdicts, counterexamples, and test counts are identical either way
/// (the cache must only ever see one (benchmark, kernel, options) tuple).
VerifyResult verifyEquivalence(const bench::Benchmark &B,
                               const cfront::CFunction &Fn,
                               const taco::Program &Candidate,
                               const VerifyOptions &Options = VerifyOptions(),
                               ReferenceCache *Cache = nullptr);

/// Statement-list form: executes the ordered \p Candidate statements as one
/// program (each statement's result is visible to the statements after it,
/// and the output buffer's zero pre-state to the first) and checks the
/// final output against the C kernel on the same bounded input family.
/// Multi-statement kernels lower to exactly such lists. The one-hot pruning
/// optimization is not applied (the cross-statement data flow defeats the
/// per-expression multiplied-pair analysis), so every pair gets the full
/// joint sweep.
VerifyResult verifyEquivalence(const bench::Benchmark &B,
                               const cfront::CFunction &Fn,
                               const std::vector<taco::Program> &Candidate,
                               const VerifyOptions &Options = VerifyOptions(),
                               ReferenceCache *Cache = nullptr);

} // namespace verify
} // namespace stagg

#endif // STAGG_VERIFY_BOUNDEDVERIFIER_H
