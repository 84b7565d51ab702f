//===- tests/PerfEquivalenceTest.cpp - Fast paths vs. naive references ----===//
//
// The PR-4 hot-path optimizations promise *bit-identical* outcomes:
//
//  * Validator: the pruned, template-compiled enumeration must return the
//    same instantiations in the same order as the naive cartesian-product
//    enumerator (rank filter + instantiateTemplate + runsConsistently —
//    the seed algorithm, rebuilt here from the still-exported pieces).
//  * BoundedVerifier: the cached-reference path must produce verdicts,
//    test counts, and counterexample strings identical to the uncached
//    path; and restricting the one-hot sweep to multiplied operand pairs
//    must not change any verdict on the registry candidates.
//  * Validator memo: a template whose commutative twin was rejected is
//    rejected without evaluation. The twins in templatePool() cross-check
//    the memo's answers against the naive enumerator, and
//    CommutativeMirrorsAgreeOnRejection checks the invariant it rests on,
//    without the memo, on real search streams.
//
//===----------------------------------------------------------------------===//

#include "analysis/Checker.h"
#include "analysis/KernelAnalysis.h"
#include "analysis/KernelModel.h"
#include "api/KernelIngest.h"
#include "benchsuite/Benchmark.h"
#include "cfront/Parser.h"
#include "grammar/DimensionList.h"
#include "grammar/Pcfg.h"
#include "grammar/Template.h"
#include "llm/Prompt.h"
#include "llm/ResponseParser.h"
#include "llm/SimulatedLlm.h"
#include "search/TopDown.h"
#include "taco/Parser.h"
#include "taco/Printer.h"
#include "taco/Semantics.h"
#include "validate/Validator.h"
#include "verify/BoundedVerifier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>

using namespace stagg;
using namespace stagg::validate;

namespace {

/// The seed validator's enumeration, verbatim: rank-filtered cartesian
/// product over symbol bindings and constant assignments, every candidate
/// instantiated and evaluated against all examples.
std::vector<Instantiation>
naiveValidate(const bench::Benchmark &B, const std::vector<IoExample> &Examples,
              std::vector<int64_t> Constants, const taco::Program &Template,
              size_t MaxResults = 8) {
  std::vector<Instantiation> Valid;
  if (Constants.empty())
    Constants.push_back(1);
  if (!Template.Rhs || Examples.empty())
    return Valid;
  const bench::ArgSpec *OutArg = B.outputArg();
  if (!OutArg)
    return Valid;
  if (static_cast<int>(Template.Lhs.order()) != OutArg->rank())
    return Valid;

  std::vector<taco::TensorInfo> Inventory = taco::tensorInventory(Template);
  std::vector<taco::TensorInfo> Symbols;
  int ConstLeaves = 0;
  std::function<void(const taco::Expr &)> Count =
      [&](const taco::Expr &E) {
        switch (E.kind()) {
        case taco::Expr::Kind::Constant:
          if (taco::exprCast<taco::ConstantExpr>(E).isSymbolic())
            ++ConstLeaves;
          return;
        case taco::Expr::Kind::Binary: {
          const auto &Bin = taco::exprCast<taco::BinaryExpr>(E);
          Count(Bin.lhs());
          Count(Bin.rhs());
          return;
        }
        case taco::Expr::Kind::Negate:
          Count(taco::exprCast<taco::NegateExpr>(E).operand());
          return;
        case taco::Expr::Kind::Max: {
          const auto &M = taco::exprCast<taco::MaxExpr>(E);
          Count(M.lhs());
          Count(M.rhs());
          return;
        }
        case taco::Expr::Kind::Access:
          return;
        }
      };
  Count(*Template.Rhs);
  for (const taco::TensorInfo &Info : Inventory) {
    if (Info.IsConstant || Info.Name == Template.Lhs.name())
      continue;
    Symbols.push_back(Info);
  }

  std::vector<std::vector<const bench::ArgSpec *>> Choices;
  for (const taco::TensorInfo &Symbol : Symbols) {
    std::vector<const bench::ArgSpec *> Options;
    for (const bench::ArgSpec &Arg : B.Args)
      if (Arg.rank() == Symbol.Order)
        Options.push_back(&Arg);
    if (Options.empty())
      return Valid;
    Choices.push_back(std::move(Options));
  }

  std::vector<size_t> Pick(Symbols.size(), 0);
  std::vector<size_t> ConstPick(static_cast<size_t>(ConstLeaves), 0);
  for (;;) {
    std::map<std::string, std::string> Binding;
    Binding[Template.Lhs.name()] = OutArg->Name;
    for (size_t I = 0; I < Symbols.size(); ++I)
      Binding[Symbols[I].Name] = Choices[I][Pick[I]]->Name;

    for (;;) {
      std::vector<int64_t> ConstValues;
      for (size_t I = 0; I < ConstPick.size(); ++I)
        ConstValues.push_back(Constants[ConstPick[I]]);

      taco::Program Concrete =
          instantiateTemplate(Template, Binding, ConstValues);
      if (runsConsistently(B, Concrete, Examples)) {
        Instantiation Inst;
        Inst.Concrete = std::move(Concrete);
        Inst.SymbolBinding = Binding;
        Inst.ConstantValues = std::move(ConstValues);
        Valid.push_back(std::move(Inst));
        if (Valid.size() >= MaxResults)
          return Valid;
      }

      size_t Axis = ConstPick.size();
      bool Wrapped = true;
      while (Axis > 0) {
        --Axis;
        if (++ConstPick[Axis] < Constants.size()) {
          Wrapped = false;
          break;
        }
        ConstPick[Axis] = 0;
      }
      if (ConstPick.empty() || Wrapped)
        break;
    }

    size_t Axis = Pick.size();
    bool Wrapped = true;
    while (Axis > 0) {
      --Axis;
      if (++Pick[Axis] < Choices[Axis].size()) {
        Wrapped = false;
        break;
      }
      Pick[Axis] = 0;
    }
    if (Pick.empty() || Wrapped)
      break;
  }
  return Valid;
}

struct Fixture {
  const bench::Benchmark *B = nullptr;
  std::unique_ptr<cfront::CFunction> Fn;
  std::vector<IoExample> Examples;
  std::vector<int64_t> Constants;
  /// Callers ASSERT on this before dereferencing anything: a renamed
  /// registry kernel must fail the test, not crash the binary.
  bool Ok = false;

  explicit Fixture(const std::string &Name) {
    B = bench::findBenchmark(Name);
    if (!B)
      return;
    cfront::CParseResult R = cfront::parseCFunction(B->CSource);
    if (!R.ok())
      return;
    Fn = std::move(R.Function);
    Rng Rand(7);
    Examples = generateExamples(*B, *Fn, 3, Rand);
    Constants = analysis::analyzeKernel(*Fn).Constants;
    Ok = !Examples.empty();
  }
};

taco::Program parse(const std::string &Source) {
  taco::ParseResult R = taco::parseTacoProgram(Source);
  EXPECT_TRUE(R.ok()) << Source;
  return std::move(*R.Prog);
}

void expectSameInstantiations(const std::vector<Instantiation> &Fast,
                              const std::vector<Instantiation> &Naive,
                              const std::string &Context) {
  ASSERT_EQ(Fast.size(), Naive.size()) << Context;
  for (size_t I = 0; I < Fast.size(); ++I) {
    EXPECT_TRUE(taco::programEquals(Fast[I].Concrete, Naive[I].Concrete))
        << Context << " [" << I
        << "]: " << taco::printProgram(Fast[I].Concrete) << " vs "
        << taco::printProgram(Naive[I].Concrete);
    EXPECT_EQ(Fast[I].SymbolBinding, Naive[I].SymbolBinding)
        << Context << " [" << I << "]";
    EXPECT_EQ(Fast[I].ConstantValues, Naive[I].ConstantValues)
        << Context << " [" << I << "]";
  }
}

/// Templates exercised against every kernel whose output rank matches; the
/// mix covers multi-symbol enumeration, repeated symbols, the LHS symbol on
/// the RHS, symbolic constants, scalars, and rank mismatches.
const std::vector<std::string> &templatePool() {
  static const std::vector<std::string> Pool = {
      "a(i) = b(i)",
      "a(i) = b(i) + c(i)",
      "a(i) = b(i) * c(i)",
      "a(i) = b * c(i) + d(i)",
      "a(i) = b(i,j) * c(j)",
      "a(i) = b(j,i) * c(j)",
      "a(i) = Const * b(i)",
      "a(i) = b(i) / Const + Const",
      "a(i) = a(i) + b(i)",
      "a(i) = b(i,j,k) * c(j)",
      "a = b(i) * c(i)",
      "a = b(i) / c",
      "a = b(i,j)",
      "a(i,j) = b(i,j) + c(i,j)",
      "a(i,j) = b(j,i)",
      "a(i,j) = b(i,k) * c(k,j)",
      // Commutative twins of the templates above. Most are rejected on
      // most kernels, so the validator answers them from its memo of
      // rejected templates.
      "a(i) = c(i) + b(i)",
      "a(i) = c(i) * b(i)",
      "a(i) = d(i) + c(i) * b",
      "a(i) = c(j) * b(i,j)",
      "a(i) = c(j) * b(j,i)",
      "a(i) = b(i) * Const",
      "a(i) = Const + b(i) / Const",
      "a(i) = b(i) + a(i)",
      "a = c(i) * b(i)",
      "a(i,j) = c(i,j) + b(i,j)",
      "a(i,j) = c(k,j) * b(i,k)",
  };
  return Pool;
}

} // namespace

TEST(PerfEquivalence, ValidatorMatchesNaiveEnumerator) {
  // ≥5 registry kernels spanning output ranks 0-2, scalar arguments, and a
  // non-empty constant pool.
  for (const char *Name :
       {"blas_axpy", "blas_gemv_ptr", "art_matmul", "dk_avg_pair",
        "misc_trace", "art_scal_const", "ll_rmsnorm_ss"}) {
    Fixture F(Name);
    ASSERT_TRUE(F.Ok) << Name;
    Validator V(*F.B, F.Examples, F.Constants);
    for (const std::string &Source : templatePool()) {
      taco::Program Template = parse(Source);
      std::vector<Instantiation> Fast = V.validate(Template);
      std::vector<Instantiation> Naive =
          naiveValidate(*F.B, F.Examples, F.Constants, Template);
      expectSameInstantiations(Fast, Naive,
                               std::string(Name) + " / " + Source);
    }
    // The kernel's own templatized ground truth, with a deeper result cap.
    taco::Program Truth =
        grammar::templatize(parse(F.B->GroundTruth)).Template;
    expectSameInstantiations(
        V.validate(Truth, 64),
        naiveValidate(*F.B, F.Examples, F.Constants, Truth, 64),
        std::string(Name) + " / templatized ground truth");
    EXPECT_GT(V.rejectedTemplates(), 0u) << Name;
  }
}

namespace {

/// \p E with the operands of every `+` and `*` swapped.
taco::ExprPtr mirror(const taco::Expr &E) {
  switch (E.kind()) {
  case taco::Expr::Kind::Access:
  case taco::Expr::Kind::Constant:
    return E.clone();
  case taco::Expr::Kind::Binary: {
    const auto &Bin = taco::exprCast<taco::BinaryExpr>(E);
    taco::ExprPtr Lhs = mirror(Bin.lhs());
    taco::ExprPtr Rhs = mirror(Bin.rhs());
    if (Bin.op() == taco::BinOpKind::Add || Bin.op() == taco::BinOpKind::Mul)
      std::swap(Lhs, Rhs);
    return std::make_unique<taco::BinaryExpr>(Bin.op(), std::move(Lhs),
                                              std::move(Rhs));
  }
  case taco::Expr::Kind::Negate:
    return std::make_unique<taco::NegateExpr>(
        mirror(taco::exprCast<taco::NegateExpr>(E).operand()));
  case taco::Expr::Kind::Max: {
    const auto &M = taco::exprCast<taco::MaxExpr>(E);
    return std::make_unique<taco::MaxExpr>(mirror(M.lhs()), mirror(M.rhs()));
  }
  }
  return nullptr;
}

} // namespace

TEST(PerfEquivalence, CommutativeMirrorsAgreeOnRejection) {
  // The invariant behind the validator's memo of rejected templates, checked
  // without the memo: a template has no consistent instantiation exactly
  // when its mirror has none. Every template and every mirror gets a fresh
  // Validator, so no answer comes from a memo. The templates are the first
  // top-down candidates of four search-heavy kernels, built the way
  // core::liftBenchmark builds them. Without a result cap, both sides also
  // evaluate the same number of instantiations and accept the same
  // programs up to the mirror.
  int64_t Rejected = 0, Passed = 0;
  for (const char *Name : {"blas_axpby", "fused_scale_shift", "misc_gemv_pair",
                           "misc_mm3_chain"}) {
    Fixture F(Name);
    ASSERT_TRUE(F.Ok) << Name;
    analysis::KernelModel Model = analysis::buildKernelModel(*F.Fn);
    llm::SimulatedLlm Oracle(20250411);
    llm::OracleTask Task;
    Task.Query = F.B;
    Task.Prompt = llm::buildPrompt(F.B->CSource, 10);
    Task.NumCandidates = 10;
    std::vector<grammar::Templatized> Templates;
    for (const taco::Program &P :
         llm::parseResponses(Oracle.propose(Task)).Programs)
      if (taco::checkWellFormed(P).empty())
        Templates.push_back(grammar::templatize(P));
    int LhsDim = Model.Summary.LhsDim;
    grammar::TemplateGrammar G = grammar::buildTemplateGrammar(
        Templates, grammar::predictDimensionList(Templates, LhsDim), LhsDim,
        grammar::GrammarOptions());
    Rng ExampleRng(0xE9A3);
    std::vector<IoExample> Examples =
        generateExamples(*F.B, *F.Fn, 3, ExampleRng);
    ASSERT_FALSE(Examples.empty()) << Name;

    search::SearchConfig Config;
    Config.MaxAttempts = 2000;
    std::unique_ptr<search::CandidateStream> Stream =
        search::makeTopDownStream(G, Config);
    taco::Program Template;
    while (Stream->next(Template)) {
      taco::Program Mirror(Template.Lhs, mirror(*Template.Rhs));
      Validator Plain(*F.B, Examples, Model.Summary.Constants);
      Validator Mirrored(*F.B, Examples, Model.Summary.Constants);
      std::vector<Instantiation> Found = Plain.validate(Template, SIZE_MAX);
      std::vector<Instantiation> MirrorFound =
          Mirrored.validate(Mirror, SIZE_MAX);
      std::string Context = std::string(Name) + ": " +
                            taco::printProgram(Template) + " vs " +
                            taco::printProgram(Mirror);
      EXPECT_EQ(Found.empty(), MirrorFound.empty()) << Context;
      EXPECT_EQ(Plain.instantiationsTried(), Mirrored.instantiationsTried())
          << Context;
      std::vector<std::string> Accepted, MirrorAccepted;
      for (const Instantiation &Inst : Found)
        Accepted.push_back(taco::printProgram(taco::Program(
            Inst.Concrete.Lhs, mirror(*Inst.Concrete.Rhs))));
      for (const Instantiation &Inst : MirrorFound)
        MirrorAccepted.push_back(taco::printProgram(Inst.Concrete));
      std::sort(Accepted.begin(), Accepted.end());
      std::sort(MirrorAccepted.begin(), MirrorAccepted.end());
      EXPECT_EQ(Accepted, MirrorAccepted) << Context;
      ++(Found.empty() ? Rejected : Passed);
    }
    EXPECT_GE(Stream->attempts(), 1000) << Name;
  }
  EXPECT_GT(Rejected, 0);
  EXPECT_GT(Passed, 0);
}

namespace {

/// Candidate programs verified against each kernel: the ground truth plus
/// systematically wrong variants (operator swaps, transposes, self-uses).
std::vector<std::string> verifierCandidates(const std::string &Name) {
  if (Name == "art_add")
    return {"out(i) = a(i) + b(i)", "out(i) = a(i) - b(i)",
            "out(i) = a(i) + a(i)", "out(i) = a(i) * b(i)"};
  if (Name == "art_matmul")
    return {"out(i,j) = A(i,k) * B(k,j)", "out(i,j) = A(i,k) * B(j,k)",
            "out(i,j) = A(k,i) * B(k,j)", "out(i,j) = A(i,k) + B(k,j)"};
  if (Name == "blas_gemv_ptr")
    return {"Result(i) = Mat1(i,j) * Mat2(j)",
            "Result(i) = Mat1(j,i) * Mat2(j)",
            "Result(i) = Mat1(i,j) + Mat2(j)"};
  if (Name == "dk_avg_pair")
    return {"out(i) = (a(i) + b(i)) / 2", "out(i) = a(i) / 2 + b(i) / 2",
            "out(i) = (a(i) + b(i)) / 3", "out(i) = (a(i) * b(i)) / 2"};
  if (Name == "blas_dot")
    return {"out = x(i) * y(i)", "out = x(i) + y(i)", "out = x(i) * x(i)"};
  return {};
}

} // namespace

TEST(PerfEquivalence, VerifierCachePreservesVerdictsAndWitnesses) {
  for (const char *Name :
       {"art_add", "art_matmul", "blas_gemv_ptr", "dk_avg_pair", "blas_dot"}) {
    Fixture F(Name);
    ASSERT_TRUE(F.Ok) << Name;
    verify::VerifyOptions Options;
    // One cache across the whole candidate sequence — the Fig. 1 fallback
    // loop's usage pattern.
    verify::ReferenceCache Cache;
    for (const std::string &Source : verifierCandidates(Name)) {
      taco::Program Candidate = parse(Source);
      verify::VerifyResult Cold =
          verify::verifyEquivalence(*F.B, *F.Fn, Candidate, Options);
      verify::VerifyResult Cached =
          verify::verifyEquivalence(*F.B, *F.Fn, Candidate, Options, &Cache);
      EXPECT_EQ(Cold.Equivalent, Cached.Equivalent) << Name << ": " << Source;
      EXPECT_EQ(Cold.TestsRun, Cached.TestsRun) << Name << ": " << Source;
      EXPECT_EQ(Cold.Counterexample, Cached.Counterexample)
          << Name << ": " << Source;
    }
    EXPECT_GT(Cache.hits(), 0) << Name;
  }
}

TEST(PerfEquivalence, OneHotPruningPreservesVerdicts) {
  for (const char *Name :
       {"art_add", "art_matmul", "blas_gemv_ptr", "dk_avg_pair", "blas_dot"}) {
    Fixture F(Name);
    ASSERT_TRUE(F.Ok) << Name;
    for (const std::string &Source : verifierCandidates(Name)) {
      taco::Program Candidate = parse(Source);
      verify::VerifyOptions Pruned;
      Pruned.OneHotOnlyMultiplied = true;
      verify::VerifyOptions Exhaustive;
      Exhaustive.OneHotOnlyMultiplied = false;
      verify::VerifyResult A =
          verify::verifyEquivalence(*F.B, *F.Fn, Candidate, Pruned);
      verify::VerifyResult E =
          verify::verifyEquivalence(*F.B, *F.Fn, Candidate, Exhaustive);
      EXPECT_EQ(A.Equivalent, E.Equivalent) << Name << ": " << Source;
      EXPECT_LE(A.TestsRun, E.TestsRun) << Name << ": " << Source;
    }
  }
}

TEST(PerfEquivalence, GroundTruthsVerifyOnRegistrySample) {
  // Pruned one-hot + cached reference on a broader sample: every ground
  // truth must still verify (the acceptance bar's "same solved set" in
  // miniature; the full 77-kernel sweep runs in CI via the suite smoke
  // tests and `stagg bench`).
  for (const char *Name : {"art_copy", "art_dot", "blas_axpy", "misc_trace",
                           "ll_att_values", "dsp_outer", "misc_bilinear"}) {
    Fixture F(Name);
    ASSERT_TRUE(F.Ok) << Name;
    verify::ReferenceCache Cache;
    taco::Program Truth = parse(F.B->GroundTruth);
    verify::VerifyResult R = verify::verifyEquivalence(
        *F.B, *F.Fn, Truth, verify::VerifyOptions(), &Cache);
    EXPECT_TRUE(R.Equivalent) << Name << ": " << R.Counterexample;
    // Re-verifying is nearly free and identical.
    verify::VerifyResult R2 = verify::verifyEquivalence(
        *F.B, *F.Fn, Truth, verify::VerifyOptions(), &Cache);
    EXPECT_TRUE(R2.Equivalent) << Name;
    EXPECT_EQ(R.TestsRun, R2.TestsRun) << Name;
    EXPECT_GT(Cache.hits(), 0) << Name;
  }
}

TEST(PerfEquivalence, TrustStaticBoundsPreservesVerdicts) {
  // The checker's bounds proof licenses the verifier to elide its dynamic
  // range checks (VerifyOptions::TrustStaticBounds) — an optimization, so
  // it must change nothing observable: same verdicts, same test counts,
  // wrong candidates still rejected.
  for (const char *Name :
       {"art_add", "art_matmul", "blas_gemv_ptr", "dk_avg_pair", "blas_dot"}) {
    Fixture F(Name);
    ASSERT_TRUE(F.Ok) << Name;

    // Establish the license first: trust without a proof would be unsound.
    analysis::KernelModel Model = analysis::buildKernelModel(*F.Fn);
    analysis::CheckOptions Opts;
    for (const bench::ArgSpec &Arg : F.B->Args) {
      if (Arg.K != bench::ArgSpec::Kind::Array)
        continue;
      std::vector<analysis::Poly> Extents;
      for (const std::string &Dim : Arg.Shape)
        Extents.push_back(analysis::shapeExtentPoly(Dim));
      Opts.Shapes.emplace(Arg.Name, std::move(Extents));
      if (Arg.IsOutput)
        Opts.OutputParams.insert(Arg.Name);
    }
    ASSERT_TRUE(analysis::checkKernel(Model, Opts).BoundsProvenSafe) << Name;

    for (const std::string &Source : verifierCandidates(Name)) {
      taco::Program Candidate = parse(Source);
      verify::VerifyOptions Checked;
      verify::VerifyOptions Trusted;
      Trusted.TrustStaticBounds = true;
      verify::VerifyResult C =
          verify::verifyEquivalence(*F.B, *F.Fn, Candidate, Checked);
      verify::VerifyResult T =
          verify::verifyEquivalence(*F.B, *F.Fn, Candidate, Trusted);
      EXPECT_EQ(C.Equivalent, T.Equivalent) << Name << ": " << Source;
      EXPECT_EQ(C.TestsRun, T.TestsRun) << Name << ": " << Source;
      EXPECT_EQ(C.Counterexample, T.Counterexample) << Name << ": " << Source;
    }
  }
}

TEST(PerfEquivalence, CheckerKeepsIngestOverheadWithinBudget) {
  // The safety gate rides on every api::ingestKernel call, and the contract
  // is that it stays in the noise: the checker pass alone, re-run on the
  // model ingestion already built, must cost at most 5% of the full ingest
  // path (C parse + kernel model + shape inference + reference derivation +
  // the gate itself). One kernel per ingestion class — the same set as the
  // micro/ingest_* benchmarks. Interleaved repetitions and medians keep
  // scheduler noise from landing on one side of the comparison.
  double IngestTotal = 0.0, CheckTotal = 0.0;
  for (const char *Name : {"blas_axpy", "ptr_mv_rowwalk", "relu_forward",
                           "fused_scale_shift"}) {
    const bench::Benchmark *B = bench::findBenchmark(Name);
    ASSERT_NE(B, nullptr) << Name;
    auto Fn = cfront::parseCFunction(B->CSource);
    ASSERT_TRUE(Fn.ok()) << Name;
    analysis::KernelModel Model = analysis::buildKernelModel(*Fn.Function);
    analysis::CheckOptions Opts;
    for (const bench::ArgSpec &Arg : B->Args) {
      if (Arg.K != bench::ArgSpec::Kind::Array)
        continue;
      std::vector<analysis::Poly> Extents;
      for (const std::string &Dim : Arg.Shape)
        Extents.push_back(analysis::shapeExtentPoly(Dim));
      Opts.Shapes.emplace(Arg.Name, std::move(Extents));
      if (Arg.IsOutput)
        Opts.OutputParams.insert(Arg.Name);
    }

    constexpr int Reps = 25;
    std::vector<double> IngestNs, CheckNs;
    for (int I = 0; I < Reps; ++I) {
      auto T0 = std::chrono::steady_clock::now();
      api::IngestResult R = api::ingestKernel(B->CSource, Name);
      auto T1 = std::chrono::steady_clock::now();
      analysis::CheckReport Report = analysis::checkKernel(Model, Opts);
      auto T2 = std::chrono::steady_clock::now();
      ASSERT_TRUE(R.ok()) << Name << ": " << R.Error;
      ASSERT_EQ(Report.hardCount(), 0) << Name;
      IngestNs.push_back(
          std::chrono::duration<double, std::nano>(T1 - T0).count());
      CheckNs.push_back(
          std::chrono::duration<double, std::nano>(T2 - T1).count());
    }
    std::sort(IngestNs.begin(), IngestNs.end());
    std::sort(CheckNs.begin(), CheckNs.end());
    IngestTotal += IngestNs[Reps / 2];
    CheckTotal += CheckNs[Reps / 2];
  }
  EXPECT_LE(CheckTotal, 0.05 * IngestTotal)
      << "checker pass costs " << CheckTotal / 1e3 << "us vs " << "ingest "
      << IngestTotal / 1e3 << "us ("
      << (100.0 * CheckTotal / IngestTotal) << "%)";
}
