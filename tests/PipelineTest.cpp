//===- tests/PipelineTest.cpp - End-to-end STAGG pipeline -----------------===//

#include "core/Stagg.h"

#include "llm/SimulatedLlm.h"
#include "taco/Parser.h"
#include "taco/Printer.h"
#include "verify/BoundedVerifier.h"
#include "cfront/Parser.h"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <string>
#include <vector>

using namespace stagg;
using namespace stagg::core;

namespace {

LiftResult lift(const std::string &Name, StaggConfig Config = StaggConfig(),
                uint64_t Seed = 2024) {
  const bench::Benchmark *B = bench::findBenchmark(Name);
  EXPECT_NE(B, nullptr) << Name;
  llm::SimulatedLlm Oracle(Seed);
  return liftBenchmark(*B, Oracle, Config);
}

/// A solved result must actually be equivalent — re-verify independently.
void expectSound(const std::string &Name, const LiftResult &R) {
  ASSERT_TRUE(R.Solved) << Name << ": " << R.FailReason;
  const bench::Benchmark *B = bench::findBenchmark(Name);
  cfront::CParseResult Fn = cfront::parseCFunction(B->CSource);
  ASSERT_TRUE(Fn.ok());
  verify::VerifyOptions Strict;
  Strict.MaxSize = 3;
  verify::VerifyResult VR =
      verify::verifyEquivalence(*B, *Fn.Function, R.Concrete, Strict);
  EXPECT_TRUE(VR.Equivalent) << taco::printProgram(R.Concrete) << "  --  "
                             << VR.Counterexample;
}

/// Splits one line of tests/expected_sweep.csv: comma-separated fields,
/// double-quoted when they contain a comma, with "" for a literal quote.
/// Python's csv module ends rows with CRLF; the CR is dropped.
std::vector<std::string> splitCsvLine(std::string Line) {
  if (!Line.empty() && Line.back() == '\r')
    Line.pop_back();
  std::vector<std::string> Fields(1);
  bool Quoted = false;
  for (size_t I = 0; I < Line.size(); ++I) {
    char C = Line[I];
    if (Quoted && C == '"' && I + 1 < Line.size() && Line[I + 1] == '"') {
      Fields.back() += '"';
      ++I;
    } else if (C == '"') {
      Quoted = !Quoted;
    } else if (C == ',' && !Quoted) {
      Fields.emplace_back();
    } else {
      Fields.back() += C;
    }
  }
  return Fields;
}

} // namespace

// The registry-wide pin of tests/expected_sweep.csv: every kernel lifts
// with the settings of `scripts/full_sweep.py` (the CLI defaults, its
// oracle seed, and a 30 s timeout) to the recorded solved flag, attempt
// and expansion counters, and lifted program or fail reason.
TEST(Pipeline, RegistrySweepMatchesExpected) {
  std::ifstream In(STAGG_SOURCE_DIR "/tests/expected_sweep.csv");
  ASSERT_TRUE(In) << "cannot open tests/expected_sweep.csv";
  std::string Line;
  ASSERT_TRUE(std::getline(In, Line));
  ASSERT_EQ(splitCsvLine(Line),
            (std::vector<std::string>{"benchmark", "category", "solved",
                                      "attempts", "expansions", "detail"}));
  std::map<std::string, std::vector<std::string>> Expected;
  while (std::getline(In, Line)) {
    std::vector<std::string> Row = splitCsvLine(Line);
    ASSERT_EQ(Row.size(), 6u) << Line;
    Expected[Row[0]] = Row;
  }
  ASSERT_EQ(Expected.size(), bench::allBenchmarks().size());

  StaggConfig Config;
  Config.Search.TimeoutSeconds = 30;
  llm::SimulatedLlm Oracle(20250411);
  for (const bench::Benchmark &B : bench::allBenchmarks()) {
    auto It = Expected.find(B.Name);
    ASSERT_NE(It, Expected.end()) << B.Name << " is not in the CSV";
    const std::vector<std::string> &Want = It->second;
    LiftResult R = liftBenchmark(B, Oracle, Config);
    std::string Detail =
        R.Solved ? taco::printProgram(R.Concrete) : R.FailReason;
    ASSERT_EQ(R.Solved ? "1" : "0", Want[2]) << B.Name << ": solved";
    ASSERT_EQ(std::to_string(R.Attempts), Want[3]) << B.Name << ": attempts";
    ASSERT_EQ(std::to_string(R.Expansions), Want[4])
        << B.Name << ": expansions";
    ASSERT_EQ(Detail, Want[5]) << B.Name << ": detail";
  }
}

TEST(Pipeline, LiftsTheMotivatingExample) {
  LiftResult R = lift("blas_gemv_ptr");
  expectSound("blas_gemv_ptr", R);
  EXPECT_EQ(taco::printProgram(R.Concrete), "Result(i) = Mat1(i,j) * Mat2(j)");
  EXPECT_EQ(R.DimList, (std::vector<int>{1, 2, 1}));
}

TEST(Pipeline, TopDownLiftsRepresentativeKernels) {
  for (const char *Name :
       {"art_copy", "art_dot", "art_matmul", "blas_axpy", "dk_mean_array",
        "dsp_outer", "misc_trace", "ll_att_values"}) {
    LiftResult R = lift(Name);
    expectSound(Name, R);
  }
}

TEST(Pipeline, TopDownHandlesParenthesizedKernels) {
  LiftResult R = lift("art_paren");
  expectSound("art_paren", R);
}

TEST(Pipeline, LiftsPointerConditionalAndFusedKernels) {
  // The post-paper ingestion classes, end to end: pointer-walking nests,
  // relu-family guarded stores (found through the max production the
  // grammar learns from the candidates), and fused multi-statement bodies.
  for (const char *Name : {"ptr_saxpy_walk", "ptr_mv_rowwalk",
                           "relu_forward", "relu_pair_max", "fused_sq_add"}) {
    LiftResult R = lift(Name);
    expectSound(Name, R);
  }
  LiftResult Relu = lift("relu_forward");
  ASSERT_TRUE(Relu.Solved);
  EXPECT_NE(taco::printProgram(Relu.Concrete).find("max("),
            std::string::npos);
}

TEST(Pipeline, BottomUpLiftsChainKernels) {
  StaggConfig Config;
  Config.Kind = SearchKind::BottomUp;
  for (const char *Name : {"art_copy", "blas_gemv_ptr", "dk_mul_array"}) {
    LiftResult R = lift(Name, Config);
    expectSound(Name, R);
  }
}

TEST(Pipeline, BottomUpFailsOnParenthesizedKernels) {
  StaggConfig Config;
  Config.Kind = SearchKind::BottomUp;
  Config.Search.TimeoutSeconds = 2;
  LiftResult R = lift("dk_l2_dist", Config);
  EXPECT_FALSE(R.Solved);
}

TEST(Pipeline, HardestQueryFailsBySystematicConfusion) {
  StaggConfig Config;
  Config.Search.TimeoutSeconds = 2;
  LiftResult R = lift("misc_mm3_chain", Config);
  EXPECT_FALSE(R.Solved);
}

TEST(Pipeline, ReportsAttemptsAndTiming) {
  LiftResult R = lift("blas_gemv_ptr");
  EXPECT_GT(R.Attempts, 0);
  EXPECT_GT(R.Expansions, 0);
  EXPECT_GT(R.Seconds, 0);
  EXPECT_GT(R.CandidatesParsed, 0);
}

TEST(Pipeline, EqualProbabilityStillLifts) {
  StaggConfig Config;
  Config.Grammar.EqualProbability = true;
  LiftResult R = lift("blas_gemv_ptr", Config);
  expectSound("blas_gemv_ptr", R);
}

TEST(Pipeline, FullGrammarStillLiftsSimpleKernels) {
  StaggConfig Config;
  Config.Grammar.FullGrammar = true;
  Config.Grammar.EqualProbability = true;
  Config.Search.TimeoutSeconds = 10;
  LiftResult R = lift("art_copy", Config);
  expectSound("art_copy", R);
}

TEST(Pipeline, DescribeResultMentionsOutcome) {
  const bench::Benchmark *B = bench::findBenchmark("art_copy");
  llm::SimulatedLlm Oracle(1);
  LiftResult R = liftBenchmark(*B, Oracle, StaggConfig());
  std::string Line = describeResult(*B, R);
  EXPECT_NE(Line.find("art_copy"), std::string::npos);
  EXPECT_NE(Line.find(R.Solved ? "OK" : "FAIL"), std::string::npos);
}

TEST(Pipeline, SolutionsAreStableAcrossOracleSeeds) {
  for (uint64_t Seed : {1ull, 7ull, 1234ull}) {
    LiftResult R = lift("blas_dot", StaggConfig(), Seed);
    expectSound("blas_dot", R);
  }
}
