//===- verify/BoundedVerifier.cpp - Bounded equivalence checking ----------===//

#include "verify/BoundedVerifier.h"

#include "cfront/Interp.h"
#include "support/Rational.h"
#include "support/Rng.h"
#include "taco/Printer.h"
#include "taco/Semantics.h"
#include "validate/IoExamples.h"
#include "vm/Compiler.h"
#include "vm/Optimizer.h"
#include "vm/Interpreter.h"

#include <functional>
#include <set>
#include <utility>

using namespace stagg;
using namespace stagg::verify;
using namespace stagg::taco;

namespace {

/// Distinct tensor names read by the candidate's RHS.
std::vector<std::string> rhsTensorNames(const Program &P) {
  std::vector<std::string> Names;
  std::function<void(const Expr &)> Visit = [&](const Expr &E) {
    switch (E.kind()) {
    case Expr::Kind::Access: {
      const std::string &Name = exprCast<AccessExpr>(E).name();
      if (std::find(Names.begin(), Names.end(), Name) == Names.end())
        Names.push_back(Name);
      return;
    }
    case Expr::Kind::Binary: {
      const auto &B = exprCast<BinaryExpr>(E);
      Visit(B.lhs());
      Visit(B.rhs());
      return;
    }
    case Expr::Kind::Negate:
      Visit(exprCast<NegateExpr>(E).operand());
      return;
    case Expr::Kind::Max: {
      const auto &M = exprCast<MaxExpr>(E);
      Visit(M.lhs());
      Visit(M.rhs());
      return;
    }
    case Expr::Kind::Constant:
      return;
    }
  };
  if (P.Rhs)
    Visit(*P.Rhs);
  return Names;
}

using NamePair = std::pair<std::string, std::string>;

NamePair normPair(const std::string &A, const std::string &B) {
  return A <= B ? NamePair(A, B) : NamePair(B, A);
}

/// Collects every unordered pair of tensor names with a multiplicative
/// interaction in \p E: names on opposite sides of a `*` or `/`, plus —
/// because a divisor enters nonlinearly — every (divisor name, input
/// array) pair. Returns the names occurring in the subtree.
std::set<std::string>
collectMultipliedPairs(const Expr &E, const std::vector<std::string> &Inputs,
                       std::set<NamePair> &Pairs) {
  switch (E.kind()) {
  case Expr::Kind::Access:
    return {exprCast<AccessExpr>(E).name()};
  case Expr::Kind::Constant:
    return {};
  case Expr::Kind::Negate:
    return collectMultipliedPairs(exprCast<NegateExpr>(E).operand(), Inputs,
                                  Pairs);
  case Expr::Kind::Binary: {
    const auto &B = exprCast<BinaryExpr>(E);
    std::set<std::string> L = collectMultipliedPairs(B.lhs(), Inputs, Pairs);
    std::set<std::string> R = collectMultipliedPairs(B.rhs(), Inputs, Pairs);
    if (B.op() == BinOpKind::Mul || B.op() == BinOpKind::Div)
      for (const std::string &Ln : L)
        for (const std::string &Rn : R)
          Pairs.insert(normPair(Ln, Rn));
    if (B.op() == BinOpKind::Div)
      for (const std::string &Rn : R)
        for (const std::string &In : Inputs)
          Pairs.insert(normPair(Rn, In));
    L.insert(R.begin(), R.end());
    return L;
  }
  case Expr::Kind::Max: {
    // max is piecewise: which argument wins depends on both operands, so
    // every cross pair needs the joint sweep, exactly like multiplication.
    const auto &M = exprCast<MaxExpr>(E);
    std::set<std::string> L = collectMultipliedPairs(M.lhs(), Inputs, Pairs);
    std::set<std::string> R = collectMultipliedPairs(M.rhs(), Inputs, Pairs);
    for (const std::string &Ln : L)
      for (const std::string &Rn : R)
        Pairs.insert(normPair(Ln, Rn));
    L.insert(R.begin(), R.end());
    return L;
  }
  }
  return {};
}

/// What is being verified: one concrete program, or an ordered statement
/// list executed as one program; either way compiled once to bytecode.
struct CandidateSpec {
  const Program *Single = nullptr;
  const std::vector<std::string> *RhsNames = nullptr;    // when Single
  const std::vector<Program> *Sequence = nullptr;
  /// The compiled candidate. A candidate that does not lower is !ok(), and
  /// every test then fails with the compiler's diagnostic.
  const vm::Code *Vm = nullptr;
};

/// The code a whole sweep runs: \p Raw optimized unless Options.UseVmOpt is
/// off. The candidate is concrete and its constants are never rewritten
/// during a sweep, so the optimizer may freeze (and dedup) them.
/// vm::optimize returns a !ok() input unchanged.
vm::Code prepareForSweep(vm::Code Raw, const VerifyOptions &Options) {
  if (!Options.UseVmOpt)
    return Raw;
  vm::OptimizeOptions OO;
  OO.FreezeConstants = true;
  return vm::optimize(Raw, OO);
}

/// One bounded test harness for a fixed shape assignment.
class ShapeChecker {
public:
  ShapeChecker(const bench::Benchmark &B, const cfront::CFunction &Fn,
               const CandidateSpec &Spec,
               const std::map<std::string, int64_t> &Sizes,
               ReferenceCache *Cache, bool TrustBounds)
      : B(B), Fn(Fn), Spec(Spec), VmEval(*Spec.Vm), Sizes(Sizes),
        Cache(Cache), TrustBounds(TrustBounds) {}

  /// Runs both programs on the numeric inputs currently in \p Env; returns
  /// true on agreement, otherwise fills \p Witness.
  bool runOnce(cfront::ExecEnv<Rational> Env, std::string &Witness,
               int &TestsRun) {
    ++TestsRun;
    const bench::ArgSpec *OutArg = B.outputArg();

    // TACO side first (it reads the pre-state).
    EinsumResult<Rational> TacoOut;
    if (Spec.Sequence) {
      // Statement lists execute over every argument (including the output
      // buffer's pre-state, which the C side also sees).
      std::map<std::string, Tensor<Rational>> Operands;
      for (const bench::ArgSpec &Arg : B.Args) {
        if (Arg.K == bench::ArgSpec::Kind::Array) {
          Tensor<Rational> T(validate::resolveShape(Arg, Sizes));
          T.flat() = Env.Arrays.at(Arg.Name);
          Operands.emplace(Arg.Name, std::move(T));
        } else if (Arg.K == bench::ArgSpec::Kind::SizeScalar) {
          Operands.emplace(
              Arg.Name, Tensor<Rational>::scalar(Rational(Sizes.at(Arg.Name))));
        } else {
          Operands.emplace(Arg.Name, Tensor<Rational>::scalar(
                                         Env.NumScalars.at(Arg.Name)));
        }
      }
      // The compiled statement list forwards scratch results to later
      // statements; no per-test structure compilation happens.
      Tensor<Rational> Out;
      if (VmEval.run(
              [&Operands](const std::string &Name) -> const Tensor<Rational> * {
                auto It = Operands.find(Name);
                return It == Operands.end() ? nullptr : &It->second;
              },
              OutArg->Name, Out))
        TacoOut = EinsumResult<Rational>::success(std::move(Out));
      else
        TacoOut = EinsumResult<Rational>::failure(VmEval.error());
    } else {
      std::map<std::string, Tensor<Rational>> Operands;
      for (const std::string &Name : *Spec.RhsNames) {
        const bench::ArgSpec *Arg = B.findArg(Name);
        if (!Arg) {
          Witness = "candidate reads unknown tensor '" + Name + "'";
          return false;
        }
        if (Arg->K == bench::ArgSpec::Kind::Array) {
          Tensor<Rational> T(validate::resolveShape(*Arg, Sizes));
          T.flat() = Env.Arrays.at(Arg->Name);
          Operands.emplace(Arg->Name, std::move(T));
        } else if (Arg->K == bench::ArgSpec::Kind::SizeScalar) {
          Operands.emplace(Arg->Name,
                           Tensor<Rational>::scalar(Rational(Sizes.at(Name))));
        } else {
          Operands.emplace(Arg->Name,
                           Tensor<Rational>::scalar(Env.NumScalars.at(Name)));
        }
      }
      std::vector<int64_t> OutShape = validate::resolveShape(*OutArg, Sizes);
      auto Lookup =
          [&Operands](const std::string &Name) -> const Tensor<Rational> * {
        auto It = Operands.find(Name);
        return It == Operands.end() ? nullptr : &It->second;
      };
      if (VmEval.bind(Lookup, OutShape))
        TacoOut = VmEval.evaluate();
      else
        TacoOut = EinsumResult<Rational>::failure(VmEval.error());
    }

    // C side, memoized on (sizes, pre-state): the reference interpretation
    // is candidate-independent, so across the validator-fallback loop only
    // the first candidate pays for it.
    ReferenceCache::Entry Local;
    const ReferenceCache::Entry *Ref = nullptr;
    if (Cache) {
      std::string Key = envKey(Env);
      Ref = Cache->find(Key);
      if (!Ref) {
        Local = runReference(std::move(Env), *OutArg);
        Ref = &Cache->insert(std::move(Key), std::move(Local));
      }
    } else {
      Local = runReference(std::move(Env), *OutArg);
      Ref = &Local;
    }

    if (!Ref->Ok) {
      Witness = "legacy kernel failed: " + Ref->Error;
      return false;
    }
    if (!TacoOut.Ok) {
      Witness = "candidate failed to evaluate: " + TacoOut.Error;
      return false;
    }

    const std::vector<Rational> &CSide = Ref->Output;
    const std::vector<Rational> &TacoSide = TacoOut.Value.flat();
    if (CSide.size() != TacoSide.size()) {
      Witness = "output size mismatch";
      return false;
    }
    for (size_t I = 0; I < CSide.size(); ++I) {
      if (CSide[I] == TacoSide[I])
        continue;
      Witness = "output[" + std::to_string(I) + "]: C=" + CSide[I].str() +
                " vs TACO=" + TacoSide[I].str() + " for candidate " +
                candidateText();
      return false;
    }
    return true;
  }

  /// Renders the candidate for witnesses (statement lists join with "; ").
  std::string candidateText() const {
    if (Spec.Single)
      return printProgram(*Spec.Single);
    std::string Out;
    for (const Program &P : *Spec.Sequence) {
      if (!Out.empty())
        Out += "; ";
      Out += printProgram(P);
    }
    return Out;
  }

  /// Builds the base environment with all data zeroed.
  cfront::ExecEnv<Rational> baseEnv() const {
    cfront::ExecEnv<Rational> Env;
    for (const bench::ArgSpec &Arg : B.Args) {
      switch (Arg.K) {
      case bench::ArgSpec::Kind::SizeScalar:
        Env.IntScalars[Arg.Name] = Sizes.at(Arg.Name);
        break;
      case bench::ArgSpec::Kind::NumScalar:
        Env.NumScalars[Arg.Name] = Rational(1);
        break;
      case bench::ArgSpec::Kind::Array: {
        std::vector<int64_t> Shape = validate::resolveShape(Arg, Sizes);
        int64_t Total = 1;
        for (int64_t D : Shape)
          Total *= D;
        Env.Arrays[Arg.Name].assign(static_cast<size_t>(Total), Rational(0));
        break;
      }
      }
    }
    return Env;
  }

private:
  /// Interprets the kernel on (a copy of) \p Env; the entry records the
  /// status and the output argument's post-state.
  ReferenceCache::Entry runReference(cfront::ExecEnv<Rational> Env,
                                     const bench::ArgSpec &OutArg) const {
    ReferenceCache::Entry E;
    cfront::ExecStatus Status =
        cfront::runCFunction(Fn, Env, 10'000'000, TrustBounds);
    E.Ok = Status.Ok;
    if (!Status.Ok) {
      E.Error = Status.Error;
      return E;
    }
    E.Output = std::move(Env.Arrays.at(OutArg.Name));
    return E;
  }

  /// Serializes the candidate-independent test input: sizes plus the full
  /// numeric pre-state (std::map iteration gives a canonical field order).
  std::string envKey(const cfront::ExecEnv<Rational> &Env) const {
    std::string Key;
    Key.reserve(128);
    for (const auto &[Name, Value] : Sizes) {
      Key += Name;
      Key += '=';
      Key += std::to_string(Value);
      Key += ';';
    }
    for (const auto &[Name, Values] : Env.Arrays) {
      Key += Name;
      Key += ':';
      for (const Rational &V : Values) {
        Key += V.str();
        Key += ',';
      }
      Key += ';';
    }
    for (const auto &[Name, Value] : Env.NumScalars) {
      Key += Name;
      Key += '~';
      Key += Value.str();
      Key += ';';
    }
    return Key;
  }

  const bench::Benchmark &B;
  const cfront::CFunction &Fn;
  const CandidateSpec &Spec;
  vm::Interpreter<Rational> VmEval;
  const std::map<std::string, int64_t> &Sizes;
  ReferenceCache *Cache;
  bool TrustBounds; ///< VerifyOptions::TrustStaticBounds for this sweep.
};

/// The bounded sweep shared by the single-program and statement-list entry
/// points. \p UseMulPairs enables the one-hot pruning against \p MulPairs.
VerifyResult runBoundedSweep(const bench::Benchmark &B,
                             const cfront::CFunction &Fn,
                             const CandidateSpec &Spec,
                             const VerifyOptions &Options,
                             ReferenceCache *Cache, bool UseMulPairs,
                             const std::set<NamePair> &MulPairs) {
  VerifyResult Result;
  Rng R(Options.Seed);

  // Collect size parameters and the input arrays.
  std::vector<std::string> SizeParams;
  std::vector<const bench::ArgSpec *> InputArrays;
  for (const bench::ArgSpec &Arg : B.Args) {
    if (Arg.K == bench::ArgSpec::Kind::SizeScalar)
      SizeParams.push_back(Arg.Name);
    else if (Arg.K == bench::ArgSpec::Kind::Array && !Arg.IsOutput)
      InputArrays.push_back(&Arg);
  }

  // Enumerate all shape assignments up to the bound.
  std::vector<int64_t> SizePick(SizeParams.size(), 1);
  for (;;) {
    std::map<std::string, int64_t> Sizes;
    for (size_t I = 0; I < SizeParams.size(); ++I)
      Sizes[SizeParams[I]] = SizePick[I];

    ShapeChecker Checker(B, Fn, Spec, Sizes, Cache,
                         Options.TrustStaticBounds);

    auto FillRandom = [&](cfront::ExecEnv<Rational> &Env) {
      for (const bench::ArgSpec *Arg : InputArrays)
        for (Rational &V : Env.Arrays[Arg->Name])
          V = Rational(R.range(-3, 4), R.range(1, 2));
      for (const bench::ArgSpec &Arg : B.Args)
        if (Arg.K == bench::ArgSpec::Kind::NumScalar)
          Env.NumScalars[Arg.Name] = Rational(R.range(-2, 3), R.range(1, 2));
    };

    // (1) All-ones.
    {
      cfront::ExecEnv<Rational> Env = Checker.baseEnv();
      for (const bench::ArgSpec *Arg : InputArrays)
        for (Rational &V : Env.Arrays[Arg->Name])
          V = Rational(1);
      if (!Checker.runOnce(std::move(Env), Result.Counterexample,
                           Result.TestsRun))
        return Result;
    }

    // (2) Joint one-hot sweep over pairs of input arrays (all other inputs
    // held at one). This exposes every bilinear coefficient. Pairs the
    // candidate never multiplies together carry no bilinear terms, so
    // their sweep shrinks to the diagonal (distinct pairs drop entirely —
    // each operand's linear probes live on its own (A, A) diagonal).
    for (size_t A = 0; A < InputArrays.size(); ++A) {
      for (size_t C = A; C < InputArrays.size(); ++C) {
        bool Multiplied =
            !UseMulPairs ||
            MulPairs.count(
                normPair(InputArrays[A]->Name, InputArrays[C]->Name)) > 0;
        if (!Multiplied && A != C)
          continue;
        cfront::ExecEnv<Rational> Base = Checker.baseEnv();
        for (const bench::ArgSpec *Arg : InputArrays)
          for (Rational &V : Base.Arrays[Arg->Name])
            V = Rational(1);
        size_t LenA = Base.Arrays[InputArrays[A]->Name].size();
        size_t LenC = Base.Arrays[InputArrays[C]->Name].size();
        int Budget = Options.MaxOneHot;
        for (size_t PA = 0; PA < LenA && Budget > 0; ++PA) {
          for (size_t PC = 0; PC < LenC && Budget > 0; ++PC) {
            if (!Multiplied && PA != PC)
              continue; // diagonal-only: the linear one-hot probes
            --Budget;
            cfront::ExecEnv<Rational> Env = Base;
            for (Rational &V : Env.Arrays[InputArrays[A]->Name])
              V = Rational(0);
            for (Rational &V : Env.Arrays[InputArrays[C]->Name])
              V = Rational(0);
            Env.Arrays[InputArrays[A]->Name][PA] = Rational(2);
            Env.Arrays[InputArrays[C]->Name][PC] =
                A == C && PA == PC ? Rational(2) : Rational(3);
            if (!Checker.runOnce(std::move(Env), Result.Counterexample,
                                 Result.TestsRun))
              return Result;
          }
        }
      }
    }

    // (3) Pseudo-random rationals (negatives, halves).
    for (int T = 0; T < Options.RandomTrials; ++T) {
      cfront::ExecEnv<Rational> Env = Checker.baseEnv();
      FillRandom(Env);
      // Division-bearing kernels may hit a zero denominator; both sides
      // propagate the undefined value, which compares equal.
      if (!Checker.runOnce(std::move(Env), Result.Counterexample,
                           Result.TestsRun))
        return Result;
    }

    // Advance the shape odometer.
    size_t Axis = SizePick.size();
    bool Wrapped = true;
    while (Axis > 0) {
      --Axis;
      if (++SizePick[Axis] <= Options.MaxSize) {
        Wrapped = false;
        break;
      }
      SizePick[Axis] = 1;
    }
    if (SizePick.empty() || Wrapped)
      break;
  }

  Result.Equivalent = true;
  return Result;
}

} // namespace

VerifyResult verify::verifyEquivalence(const bench::Benchmark &B,
                                       const cfront::CFunction &Fn,
                                       const Program &Candidate,
                                       const VerifyOptions &Options,
                                       ReferenceCache *Cache) {
  std::vector<std::string> RhsNames = rhsTensorNames(Candidate);

  // Pairs of operands the candidate multiplies together: only these need
  // the quadratic joint one-hot sweep (see header).
  std::set<NamePair> MulPairs;
  if (Options.OneHotOnlyMultiplied && Candidate.Rhs) {
    std::vector<std::string> InputNames;
    for (const bench::ArgSpec &Arg : B.Args)
      if (Arg.K == bench::ArgSpec::Kind::Array && !Arg.IsOutput)
        InputNames.push_back(Arg.Name);
    collectMultipliedPairs(*Candidate.Rhs, InputNames, MulPairs);
  }

  const vm::Code VmCode =
      prepareForSweep(vm::compileProgram(Candidate), Options);
  CandidateSpec Spec;
  Spec.Single = &Candidate;
  Spec.RhsNames = &RhsNames;
  Spec.Vm = &VmCode;
  return runBoundedSweep(B, Fn, Spec, Options, Cache,
                         Options.OneHotOnlyMultiplied, MulPairs);
}

VerifyResult verify::verifyEquivalence(const bench::Benchmark &B,
                                       const cfront::CFunction &Fn,
                                       const std::vector<Program> &Candidate,
                                       const VerifyOptions &Options,
                                       ReferenceCache *Cache) {
  const vm::Code VmCode =
      prepareForSweep(vm::compileStatements(Candidate), Options);
  CandidateSpec Spec;
  Spec.Sequence = &Candidate;
  Spec.Vm = &VmCode;
  // Cross-statement data flow defeats the per-expression multiplied-pair
  // analysis; statement lists always get the exhaustive joint sweep.
  std::set<NamePair> None;
  return runBoundedSweep(B, Fn, Spec, Options, Cache, /*UseMulPairs=*/false,
                         None);
}
