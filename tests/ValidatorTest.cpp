//===- tests/ValidatorTest.cpp - Substitution validation (§6) -------------===//

#include "validate/Validator.h"

#include "analysis/KernelAnalysis.h"
#include "benchsuite/Benchmark.h"
#include "cfront/Parser.h"
#include "taco/Parser.h"
#include "taco/Printer.h"

#include <gtest/gtest.h>

#include <set>

using namespace stagg;
using namespace stagg::validate;

namespace {

struct Fixture {
  const bench::Benchmark *B;
  std::unique_ptr<cfront::CFunction> Fn;
  std::vector<IoExample> Examples;
  std::vector<int64_t> Constants;

  explicit Fixture(const std::string &Name) {
    B = bench::findBenchmark(Name);
    EXPECT_NE(B, nullptr) << Name;
    cfront::CParseResult R = cfront::parseCFunction(B->CSource);
    EXPECT_TRUE(R.ok()) << R.Error;
    Fn = std::move(R.Function);
    Rng Rand(7);
    Examples = generateExamples(*B, *Fn, 3, Rand);
    EXPECT_FALSE(Examples.empty());
    Constants = analysis::analyzeKernel(*Fn).Constants;
  }
};

taco::Program parse(const std::string &Source) {
  taco::ParseResult R = taco::parseTacoProgram(Source);
  EXPECT_TRUE(R.ok()) << Source;
  return std::move(*R.Prog);
}

} // namespace

TEST(IoExamples, ExamplesReflectKernelSemantics) {
  Fixture F("art_add");
  for (const IoExample &Ex : F.Examples) {
    const std::vector<double> &A = Ex.Inputs.Arrays.at("a");
    const std::vector<double> &B2 = Ex.Inputs.Arrays.at("b");
    for (size_t I = 0; I < A.size(); ++I)
      EXPECT_EQ(Ex.Expected.flat()[I], A[I] + B2[I]);
  }
}

TEST(IoExamples, FirstExampleUsesAsymmetricSizes) {
  Fixture F("art_matmul");
  const IoExample &Ex = F.Examples.front();
  // N, M, K must not all be equal, so transposition bugs cannot hide.
  std::set<int64_t> Distinct;
  for (const auto &[Name, Value] : Ex.Sizes)
    Distinct.insert(Value);
  EXPECT_GT(Distinct.size(), 1u);
}

TEST(Validator, BindsMatVecTemplate) {
  Fixture F("blas_gemv_ptr");
  Validator V(*F.B, F.Examples, F.Constants);
  std::vector<Instantiation> Valid =
      V.validate(parse("a(i) = b(i,j) * c(j)"));
  ASSERT_FALSE(Valid.empty());
  EXPECT_EQ(Valid.front().SymbolBinding.at("b"), "Mat1");
  EXPECT_EQ(Valid.front().SymbolBinding.at("c"), "Mat2");
  EXPECT_EQ(taco::printProgram(Valid.front().Concrete),
            "Result(i) = Mat1(i,j) * Mat2(j)");
}

TEST(Validator, RejectsWrongStructure) {
  Fixture F("blas_gemv_ptr");
  Validator V(*F.B, F.Examples, F.Constants);
  EXPECT_TRUE(V.validate(parse("a(i) = b(i,j) + c(j)")).empty());
  EXPECT_TRUE(V.validate(parse("a(i) = b(j,i) * c(j)")).empty());
}

TEST(Validator, RanksFilterSubstitutions) {
  Fixture F("blas_gemv_ptr");
  Validator V(*F.B, F.Examples, F.Constants);
  // A 3-D symbol has no rank-compatible argument at all.
  EXPECT_TRUE(V.validate(parse("a(i) = b(i,j,k) * c(j)")).empty());
}

TEST(Validator, LhsRankMustMatchOutput) {
  Fixture F("blas_gemv_ptr");
  Validator V(*F.B, F.Examples, F.Constants);
  EXPECT_TRUE(V.validate(parse("a(i,j) = b(i,j) * c(j)")).empty());
}

TEST(Validator, RepeatedSymbolBindsSameArgument) {
  Fixture F("ll_rmsnorm_ss");
  Validator V(*F.B, F.Examples, F.Constants);
  std::vector<Instantiation> Valid = V.validate(parse("a = b(i) * b(i)"));
  ASSERT_FALSE(Valid.empty());
  EXPECT_EQ(Valid.front().SymbolBinding.at("b"), "x");
}

TEST(Validator, DistinctSymbolsMayBindSameArgument) {
  // Fig. 8's S1: b and c can both map to the same input.
  Fixture F("ll_rmsnorm_ss");
  Validator V(*F.B, F.Examples, F.Constants);
  std::vector<Instantiation> Valid = V.validate(parse("a = b(i) * c(i)"));
  ASSERT_FALSE(Valid.empty());
  EXPECT_EQ(Valid.front().SymbolBinding.at("b"), "x");
  EXPECT_EQ(Valid.front().SymbolBinding.at("c"), "x");
}

TEST(Validator, ConstantsInstantiatedFromSourcePool) {
  Fixture F("art_scal_const");
  Validator V(*F.B, F.Examples, F.Constants);
  std::vector<Instantiation> Valid = V.validate(parse("a(i) = Const * b(i)"));
  ASSERT_FALSE(Valid.empty());
  EXPECT_EQ(Valid.front().ConstantValues, (std::vector<int64_t>{2}));
}

TEST(Validator, SizeParameterBindsScalarSymbol) {
  Fixture F("dk_mean_array");
  Validator V(*F.B, F.Examples, F.Constants);
  std::vector<Instantiation> Valid = V.validate(parse("a = b(i) / c"));
  ASSERT_FALSE(Valid.empty());
  EXPECT_EQ(Valid.front().SymbolBinding.at("c"), "N");
}

TEST(Validator, NumScalarBindsScalarSymbol) {
  Fixture F("blas_axpy");
  Validator V(*F.B, F.Examples, F.Constants);
  std::vector<Instantiation> Valid =
      V.validate(parse("a(i) = b * c(i) + d(i)"));
  ASSERT_FALSE(Valid.empty());
  EXPECT_EQ(Valid.front().SymbolBinding.at("b"), "alpha");
  EXPECT_EQ(Valid.front().SymbolBinding.at("c"), "x");
  EXPECT_EQ(Valid.front().SymbolBinding.at("d"), "y");
}

TEST(Validator, InstantiateTemplateRewritesNamesAndConstants) {
  taco::Program T = parse("a(i) = Const * b(i) + Const");
  taco::Program Concrete = instantiateTemplate(
      T, {{"a", "out"}, {"b", "x"}}, {2, 5});
  EXPECT_EQ(taco::printProgram(Concrete), "out(i) = 2 * x(i) + 5");
}

TEST(Validator, CountsTriedInstantiations) {
  Fixture F("art_add");
  Validator V(*F.B, F.Examples, F.Constants);
  V.validate(parse("a(i) = b(i) + c(i)"));
  EXPECT_GT(V.instantiationsTried(), 0);
}

TEST(Validator, TransposeNeedsMatchingBinding) {
  Fixture F("art_transpose");
  Validator V(*F.B, F.Examples, F.Constants);
  std::vector<Instantiation> Valid = V.validate(parse("a(i,j) = b(j,i)"));
  ASSERT_FALSE(Valid.empty());
  EXPECT_EQ(Valid.front().SymbolBinding.at("b"), "A");
  EXPECT_TRUE(V.validate(parse("a(i,j) = b(i,j)")).empty());
}

TEST(ValidatorMemo, RejectedSumAnswersItsTwinWithoutEvaluating) {
  Fixture F("blas_gemv_ptr");
  Validator V(*F.B, F.Examples, F.Constants);
  EXPECT_TRUE(V.validate(parse("a(i) = b(i,j) + c(j)")).empty());
  int64_t Tried = V.instantiationsTried();
  EXPECT_GT(Tried, 0);
  EXPECT_TRUE(V.validate(parse("a(i) = c(j) + b(i,j)")).empty());
  EXPECT_EQ(V.instantiationsTried(), Tried);
}

TEST(ValidatorMemo, NestedProductTwinHitsTheMemo) {
  Fixture F("blas_gemv_ptr");
  Validator V(*F.B, F.Examples, F.Constants);
  EXPECT_TRUE(V.validate(parse("a(i) = (b(i,j) + c(j)) * c(j)")).empty());
  int64_t Tried = V.instantiationsTried();
  EXPECT_GT(Tried, 0);
  // Both the product and the sum inside it are swapped.
  EXPECT_TRUE(V.validate(parse("a(i) = c(j) * (c(j) + b(i,j))")).empty());
  EXPECT_TRUE(V.validate(parse("a(i) = (c(j) + b(i,j)) * c(j)")).empty());
  EXPECT_EQ(V.instantiationsTried(), Tried);
  EXPECT_EQ(V.rejectedTemplates(), 1u);
}

TEST(ValidatorMemo, NonCommutativeTwinsAreStillEvaluated) {
  Fixture F("blas_gemv_ptr");
  Validator V(*F.B, F.Examples, F.Constants);
  for (const auto &[Template, Twin] :
       std::vector<std::pair<std::string, std::string>>{
           {"a(i) = b(i,j) - c(j)", "a(i) = c(j) - b(i,j)"},
           {"a(i) = b(i,j) / c(j)", "a(i) = c(j) / b(i,j)"},
           {"a(i) = max(b(i,j), c(j))", "a(i) = max(c(j), b(i,j))"}}) {
    EXPECT_TRUE(V.validate(parse(Template)).empty()) << Template;
    int64_t Tried = V.instantiationsTried();
    EXPECT_TRUE(V.validate(parse(Twin)).empty()) << Twin;
    EXPECT_GT(V.instantiationsTried(), Tried) << Twin;
  }
  EXPECT_EQ(V.rejectedTemplates(), 6u);
}

TEST(ValidatorMemo, TwinOfPassingTemplateKeepsItsOwnInstantiations) {
  Fixture F("art_add");
  Validator V(*F.B, F.Examples, F.Constants);
  ASSERT_FALSE(V.validate(parse("a(i) = b(i) + c(i)")).empty());
  EXPECT_EQ(V.rejectedTemplates(), 0u);
  int64_t Tried = V.instantiationsTried();
  taco::Program Twin = parse("a(i) = c(i) + b(i)");
  std::vector<Instantiation> Warm = V.validate(Twin);
  EXPECT_GT(V.instantiationsTried(), Tried);
  // A fresh validator has seen nothing: the warm one must agree with it,
  // instantiation for instantiation, in order.
  Validator Fresh(*F.B, F.Examples, F.Constants);
  std::vector<Instantiation> Cold = Fresh.validate(Twin);
  ASSERT_FALSE(Cold.empty());
  ASSERT_EQ(Warm.size(), Cold.size());
  for (size_t I = 0; I < Warm.size(); ++I) {
    EXPECT_EQ(taco::printProgram(Warm[I].Concrete),
              taco::printProgram(Cold[I].Concrete));
    EXPECT_EQ(Warm[I].SymbolBinding, Cold[I].SymbolBinding);
  }
  // The twin enumerates its first symbol, c, outermost.
  EXPECT_EQ(Warm.front().SymbolBinding.at("c"), "a");
  EXPECT_EQ(Warm.front().SymbolBinding.at("b"), "b");
}

TEST(ValidatorMemo, ShapeFilterRejectsAreNotMemoized) {
  Fixture F("blas_gemv_ptr");
  Validator V(*F.B, F.Examples, F.Constants);
  // No 3-D argument; the LHS rank differs from the output's; the output
  // symbol is read on the RHS with the wrong rank.
  EXPECT_TRUE(V.validate(parse("a(i) = b(i,j,k) * c(j)")).empty());
  EXPECT_TRUE(V.validate(parse("a(i,j) = b(i,j) * c(j)")).empty());
  EXPECT_TRUE(V.validate(parse("a(i) = a(i,j) * c(j)")).empty());
  EXPECT_EQ(V.instantiationsTried(), 0);
  EXPECT_EQ(V.rejectedTemplates(), 0u);
  EXPECT_TRUE(V.validate(parse("a(i) = b(i,j) + c(j)")).empty());
  EXPECT_EQ(V.rejectedTemplates(), 1u);

  // The first example is not square, so no matrix fits a diagonal access.
  Fixture T("art_transpose");
  Validator W(*T.B, T.Examples, T.Constants);
  EXPECT_TRUE(W.validate(parse("a(i,j) = b(j,j) + c(i,j)")).empty());
  EXPECT_EQ(W.instantiationsTried(), 0);
  EXPECT_EQ(W.rejectedTemplates(), 0u);
}
