//===- validate/Validator.h - Template validation (§6) ----------*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Template validation per paper §6. A complete template contains symbolic
/// tensors (`b`, `c`, ...) and symbolic constants; the validator enumerates
/// substitutions binding the LHS symbol to the kernel's output argument, the
/// RHS symbols to *any* argument of compatible rank (including the output
/// and repeated bindings, exactly as in Fig. 8), and constant symbols to the
/// integer literals collected from the source. Each instantiation is
/// evaluated by the bytecode VM (vm::Interpreter over the raw vm::Code)
/// against the I/O examples; all
/// consistent instantiations are returned in enumeration order, so the
/// verifier can reject one and fall back to the next.
///
//===----------------------------------------------------------------------===//

#ifndef STAGG_VALIDATE_VALIDATOR_H
#define STAGG_VALIDATE_VALIDATOR_H

#include "benchsuite/Benchmark.h"
#include "taco/Ast.h"
#include "validate/IoExamples.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace stagg {
namespace validate {

/// One I/O-consistent instantiation of a template.
struct Instantiation {
  /// The concrete program: tensor names are argument names, constants are
  /// literal values.
  taco::Program Concrete;

  /// Template tensor symbol -> argument name.
  std::map<std::string, std::string> SymbolBinding;

  /// Values substituted for the symbolic constants, in leaf order.
  std::vector<int64_t> ConstantValues;
};

/// Validator state shared across all templates of one query.
///
/// The enumeration is heavily pruned relative to the naive cartesian
/// product, without changing the returned instantiations or their order:
///
///  * per-symbol options are filtered by rank *and* by shape compatibility
///    (an argument whose extents conflict with the output shape, or with
///    the symbol's own repeated accesses, in any I/O example can never
///    validate);
///  * each symbol binding is checked for cross-symbol extent consistency
///    before any instantiation is built or evaluated;
///  * the per-example operand tensors and argument shapes are materialized
///    once per Validator and shared by every template (they depend only on
///    the argument, not the candidate), keyed by argument index;
///  * instantiation evaluation short-circuits on the first failing output
///    cell of the first failing I/O example (vm::Interpreter::compare);
///  * the concrete program and symbol binding of an instantiation are only
///    built once it has passed every example;
///  * a template whose commutative twin was already rejected is rejected
///    without being compiled or evaluated. The memo keys each template by
///    its canonical text, with the operands of every `+` and `*` sorted, and
///    holds only templates that passed the shape filters and then had no
///    consistent instantiation. IEEE `+` and `*` commute bitwise, reduction
///    placement and loop order do not depend on operand order, and the
///    constant odometer covers every assignment whatever the leaf order, so
///    a twin has exactly the same consistent instantiations (cellsMatch
///    rejects non-finite cells, so NaN payloads play no part). Only empty
///    results are memoized: a twin of a passing template enumerates in its
///    own order, and the MaxResults cap could surface a different prefix.
///    `-`, `/` and `max` keep their operand order, because they do not
///    commute (`std::max(-0.0, +0.0)` depends on it too).
///
/// Every pruned candidate is one the einsum evaluator would have rejected,
/// so the surviving set — and the enumeration order within it — is
/// bit-identical to the naive enumerator's (tests/PerfEquivalenceTest.cpp).
class Validator {
public:
  /// \p Constants is the literal pool harvested from the source by the
  /// static analysis. Instantiations are evaluated by the raw VM code: each
  /// template is evaluated only a few times on tiny examples, so
  /// vm::optimize would cost more than it saves. The two trailing flags are
  /// ignored; they are kept so liftbench/ compiles unchanged.
  Validator(const bench::Benchmark &B, std::vector<IoExample> Examples,
            std::vector<int64_t> Constants, bool /*Ignored*/ = true,
            bool /*Ignored*/ = true);
  ~Validator();

  /// Enumerates substitutions for \p Template and returns every
  /// instantiation that satisfies all I/O examples, up to \p MaxResults.
  std::vector<Instantiation> validate(const taco::Program &Template,
                                      size_t MaxResults = 8) const;

  /// Total instantiations evaluated so far (across calls); a cost metric.
  /// Shape-pruned bindings never reach evaluation and are not counted.
  int64_t instantiationsTried() const { return Tried; }

  /// Templates memoized as rejected so far: each one answers its
  /// commutative twins without evaluating anything.
  size_t rejectedTemplates() const;

  const std::vector<IoExample> &examples() const { return Examples; }

private:
  /// Candidate-independent state for one I/O example, by argument index.
  struct ExampleEval {
    std::vector<taco::Tensor<double>> Operands;
    /// Into Operands; null where the example lacks the argument.
    std::vector<const taco::Tensor<double> *> Operand;
    std::vector<std::vector<int64_t>> Shapes;
    std::vector<int64_t> OutShape;
  };

  /// Per-call working set, reused across calls.
  struct Scratch;
  /// The canonical keys of the templates rejected at the compile point.
  class RejectedKeys;

  const bench::Benchmark &B;
  std::vector<IoExample> Examples;
  std::vector<int64_t> Constants;
  int OutArg = -1; ///< Index of the output argument, -1 when none.
  std::vector<ExampleEval> PerExample;
  /// Argument indices by rank, in argument order.
  std::vector<std::vector<int>> ArgsOfRank;
  mutable int64_t Tried = 0;
  mutable std::unique_ptr<Scratch> Work;
  mutable std::unique_ptr<RejectedKeys> Rejected;
};

/// Rewrites \p Template by applying \p SymbolBinding to tensor names and
/// substituting \p ConstantValues into the symbolic constants (in leaf
/// order). Exposed for tests and the baselines.
taco::Program instantiateTemplate(
    const taco::Program &Template,
    const std::map<std::string, std::string> &SymbolBinding,
    const std::vector<int64_t> &ConstantValues);

/// Evaluates a fully concrete program (tensor names are argument names,
/// constants are literals) on every example and compares against the
/// expected outputs. Shared by the validator and the enumerative baselines.
bool runsConsistently(const bench::Benchmark &B, const taco::Program &Concrete,
                      const std::vector<IoExample> &Examples);

} // namespace validate
} // namespace stagg

#endif // STAGG_VALIDATE_VALIDATOR_H
