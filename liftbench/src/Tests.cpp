//===- liftbench/src/Tests.cpp - The benchmark's own tests ----------------===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Build and run from the repository root:
///
///   cmake --build .bench_build --target liftbench_tests
///   .bench_build/liftbench_tests
///
//===----------------------------------------------------------------------===//

#include "Calibration.h"
#include "Workload.h"

#include "llm/SimulatedLlm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>

using namespace stagg;
using namespace liftbench;

namespace {

std::vector<Expectation> expectations() {
  bool Ok = false;
  std::string Csv =
      readFile(LIFTBENCH_SOURCE_DIR "/../tests/expected_sweep.csv", Ok);
  EXPECT_TRUE(Ok);
  std::string Error;
  std::vector<Expectation> Rows = parseExpectations(Csv, Error);
  EXPECT_EQ(Error, "");
  return Rows;
}

KernelSplit split(const std::vector<Expectation> &Rows) {
  std::string Error;
  KernelSplit Split = splitKernels(Rows, Error);
  EXPECT_EQ(Error, "");
  return Split;
}

std::vector<std::string> coldPool(const KernelSplit &Split) {
  bool Ok = false;
  std::string Csv =
      readFile(LIFTBENCH_SOURCE_DIR "/inline_expected.csv", Ok);
  EXPECT_TRUE(Ok);
  std::string Error;
  std::map<std::string, std::string> Inline =
      parseInlineExpectations(Csv, Error);
  EXPECT_EQ(Error, "");
  std::vector<std::string> Pool;
  for (const std::string &N : Split.Quick)
    if (Inline.count(N))
      Pool.push_back(N);
  return Pool;
}

std::vector<std::string> frames(uint64_t Seed, uint64_t Blocks) {
  KernelSplit Split = split(expectations());
  std::string Error;
  ServeMix Mix = makeServeMix(Split, coldPool(Split), Seed, Error);
  EXPECT_EQ(Error, "");
  std::vector<std::string> Out;
  for (uint64_t B = 0; B < Blocks; ++B)
    for (const ServeRequest &R : Mix.block(B))
      Out.push_back(R.Frame);
  for (double G : poissonGaps(100, 200, Seed))
    Out.push_back(std::to_string(G));
  return Out;
}

TEST(Workload, SeedFixesTheFrameStream) {
  std::vector<std::string> A = frames(7, 2), B = frames(7, 2),
                           C = frames(8, 2);
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
  // Another seed reorders and renames; it never changes what is sent.
  ASSERT_EQ(A.size(), C.size());
}

TEST(Workload, MixSharesAreFixed) {
  KernelSplit Split = split(expectations());
  std::string Error;
  ServeMix Mix = makeServeMix(Split, coldPool(Split), 3, Error);
  std::map<RequestKind, size_t> Count;
  std::set<int64_t> Ids;
  for (const ServeRequest &R : Mix.block(1)) {
    ++Count[R.Kind];
    Ids.insert(R.Id);
  }
  size_t P = Mix.ColdKernels.size();
  EXPECT_EQ(Count[RequestKind::Hit], 3 * P);
  EXPECT_EQ(Count[RequestKind::Cold], P);
  EXPECT_EQ(Count[RequestKind::Exec], P);
  EXPECT_EQ(Ids.size(), 5 * P);
}

TEST(Workload, LiftWorkloadsPartitionTheRegistry) {
  std::vector<Expectation> Rows = expectations();
  KernelSplit Split = split(Rows);
  std::set<std::string> Search(Split.Search.begin(), Split.Search.end());
  std::set<std::string> Quick(Split.Quick.begin(), Split.Quick.end());
  std::set<std::string> Registry;
  for (const bench::Benchmark &B : bench::allBenchmarks())
    Registry.insert(B.Name);
  EXPECT_EQ(Rows.size(), Registry.size());
  EXPECT_EQ(Search.size(), 13u);
  EXPECT_EQ(Quick.size(), 74u);
  EXPECT_TRUE(Search.count("misc_mm3_chain"));
  for (const std::string &N : Search)
    EXPECT_FALSE(Quick.count(N)) << N;
  std::set<std::string> Union = Search;
  Union.insert(Quick.begin(), Quick.end());
  EXPECT_EQ(Union, Registry);
  // The fixed list still follows its rule at this commit.
  EXPECT_EQ(Split.Drift, std::vector<std::string>{});
}

TEST(Workload, SplitKeepsItsKernelsWhenAttemptsMove) {
  std::vector<Expectation> Rows = expectations();
  for (Expectation &E : Rows) {
    if (E.Name == "blas_axpy")
      E.Attempts = 1;
    if (E.Name == "art_add")
      E.Attempts = 1000;
  }
  KernelSplit Moved = split(Rows), Fixed = split(expectations());
  EXPECT_EQ(Moved.Search, Fixed.Search);
  EXPECT_EQ(Moved.Quick, Fixed.Quick);
  EXPECT_EQ(Moved.Drift, (std::vector<std::string>{"art_add", "blas_axpy"}));

  Rows.erase(std::remove_if(Rows.begin(), Rows.end(),
                            [](const Expectation &E) {
                              return E.Name == "misc_mm3_chain";
                            }),
             Rows.end());
  std::string Error;
  splitKernels(Rows, Error);
  EXPECT_NE(Error.find("misc_mm3_chain"), std::string::npos) << Error;
}

TEST(Workload, RenamingRoundTrips) {
  for (const bench::Benchmark &B : bench::allBenchmarks()) {
    std::string Prefix = renamePrefix(42, 3);
    std::string Renamed = renameIdentifiers(B.CSource, Prefix);
    EXPECT_NE(Renamed, B.CSource) << B.Name;
    EXPECT_EQ(undoRenaming(Renamed, Prefix), B.CSource) << B.Name;
  }
  EXPECT_EQ(renameIdentifiers("for (int i = 0; i < N; ++i) x[i] = 2.0f;",
                              "p_"),
            "for (int p_i = 0; p_i < p_N; ++p_i) p_x[p_i] = 2.0f;");
  EXPECT_EQ(undoRenaming("out(p_i) = max(0, p_x(p_i))", "p_"),
            "out(i) = max(0, x(i))");
  EXPECT_NE(renamePrefix(1, 0), renamePrefix(2, 0));
  EXPECT_NE(renamePrefix(1, 0), renamePrefix(1, 1));
}

TEST(Workload, PercentileNeedsTenSamplesBeyond) {
  std::vector<double> Hundred;
  for (int I = 1; I <= 100; ++I)
    Hundred.push_back(I);
  Percentile P90 = percentile(Hundred, 0.9);
  EXPECT_EQ(P90.Value, 90);
  EXPECT_EQ(P90.Beyond, 10u);
  EXPECT_TRUE(P90.Supported);
  EXPECT_FALSE(percentile(Hundred, 0.99).Supported);
  Hundred.pop_back();
  EXPECT_FALSE(percentile(Hundred, 0.9).Supported);
  EXPECT_EQ(samplesNeeded(0.9), 100u);
  EXPECT_EQ(samplesNeeded(0.99), 1000u);
  EXPECT_EQ(samplesNeeded(0.5), 20u);
  EXPECT_EQ(percentile({4, 1, 3, 2}, 0.5).Value, 2);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(Workload, GateTripsOnAlteredExpectation) {
  std::vector<Expectation> Rows = expectations();
  llm::SimulatedLlm Oracle(OracleSeed);
  for (const char *Name : {"art_add", "misc_affine"}) {
    const Expectation *E = nullptr;
    for (const Expectation &R : Rows)
      if (R.Name == Name)
        E = &R;
    ASSERT_NE(E, nullptr);
    core::LiftResult R =
        core::liftBenchmark(*bench::findBenchmark(Name), Oracle, liftConfig());
    EXPECT_EQ(checkLift(*E, R), "");
    Expectation Altered = *E;
    Altered.Attempts += 1;
    EXPECT_NE(checkLift(Altered, R).find(Name), std::string::npos);
    Altered = *E;
    Altered.Detail += " ";
    EXPECT_NE(checkLift(Altered, R), "");
    Altered = *E;
    Altered.Solved = !Altered.Solved;
    EXPECT_NE(checkLift(Altered, R), "");
  }
}

/// Writes tests/expected_sweep.csv with art_add's attempts changed from 1
/// to 2 and returns the copy's path.
std::string alteredExpectations() {
  bool Ok = false;
  std::string Csv =
      readFile(LIFTBENCH_SOURCE_DIR "/../tests/expected_sweep.csv", Ok);
  EXPECT_TRUE(Ok);
  size_t Row = Csv.find("\nart_add,artificial,1,1,5,");
  EXPECT_NE(Row, std::string::npos);
  if (Row != std::string::npos)
    Csv.replace(Row, 26, "\nart_add,artificial,1,2,5,");
  std::string Path = LIFTBENCH_BINARY_DIR "/altered_expected_sweep.csv";
  std::ofstream(Path) << Csv;
  return Path;
}

/// Runs \p Cmd through the shell with stderr merged into \p Out; returns
/// the exit code.
int runCommand(const std::string &Cmd, std::string &Out) {
  std::FILE *P = ::popen((Cmd + " 2>&1").c_str(), "r");
  if (!P)
    return -1;
  char Buf[4096];
  while (size_t N = std::fread(Buf, 1, sizeof(Buf), P))
    Out.append(Buf, N);
  return WEXITSTATUS(::pclose(P));
}

TEST(Workload, DriverFailsTheRunOnAlteredExpectation) {
  std::string Path = alteredExpectations();
  std::string Out;
  int Code = runCommand(LIFTBENCH_DRIVER
                        " lift --workload lift_quick --setup-only"
                        " --expected " + Path +
                        " --inline-expected " LIFTBENCH_SOURCE_DIR
                        "/inline_expected.csv", Out);
  EXPECT_EQ(Code, 1) << Out;
  EXPECT_NE(Out.find("MISMATCH art_add: attempts 1 != 2"), std::string::npos)
      << Out;
  EXPECT_NE(Out.find("\"correct\":false"), std::string::npos) << Out;
  std::remove(Path.c_str());
}

TEST(Workload, RunScriptReportsAnAlteredExpectationAsIncorrect) {
  // The whole command, not just the driver: exit 1 and a "correct": false
  // result line as its last stdout line.
  std::string Path = alteredExpectations();
  std::string Out;
  int Code = runCommand("python3 " LIFTBENCH_SOURCE_DIR "/run.py"
                        " --workload lift_quick --seed 1 --seconds 1"
                        " --trace 0 --expected " + Path, Out);
  EXPECT_EQ(Code, 1) << Out;
  EXPECT_NE(Out.find("MISMATCH art_add: attempts 1 != 2"), std::string::npos)
      << Out;
  std::string Last = Out.substr(Out.rfind('{', Out.rfind("\"correct\"")));
  EXPECT_EQ(Last.rfind("{\"correct\": false,", 0), 0u) << Out;
  std::remove(Path.c_str());
}

TEST(Workload, ExecutePayloadsHaveReferences) {
  for (const std::string &Name : execKernels()) {
    const bench::Benchmark *B = bench::findBenchmark(Name);
    ASSERT_NE(B, nullptr) << Name;
    ExecPayload P = makeExecPayload(*B, 5, 0);
    EXPECT_EQ(P.Error, "") << Name;
    EXPECT_FALSE(P.Expected.empty()) << Name;
    EXPECT_EQ(makeExecPayload(*B, 5, 0).Arrays, P.Arrays) << Name;
    EXPECT_NE(makeExecPayload(*B, 6, 0).Arrays, P.Arrays) << Name;
  }
}

TEST(Calibration, ScaleIsPositiveAndFinite) {
  for (int I = 0; I < 3; ++I) {
    double Scale = referenceScale();
    EXPECT_TRUE(std::isfinite(Scale));
    EXPECT_GT(Scale, 0.0);
  }
}

} // namespace
