//===- tests/VmOptimizerTest.cpp - vm::optimize pass tests ----------------===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
// Per-pass unit tests for the VM optimizer (hoisting, dead-register
// elimination, constant dedup, span fusion) on small and hand-edited
// streams, the registry-wide opt-vs-noopt bit-identity sweep, the
// verifier-verdict sweep with the optimizer on and off
// (VerifyOptions::UseVmOpt), and the vm::disassemble renderings
// `stagg disasm` prints (raw with `--no-vm-opt`).
//
//===----------------------------------------------------------------------===//

#include "vm/Compiler.h"
#include "vm/Interpreter.h"
#include "vm/Optimizer.h"

#include "benchsuite/Benchmark.h"
#include "cfront/Parser.h"
#include "taco/Einsum.h"
#include "taco/Parser.h"
#include "validate/IoExamples.h"
#include "verify/BoundedVerifier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

using namespace stagg;

namespace {

taco::Program parse(const std::string &Source) {
  taco::ParseResult R = taco::parseTacoProgram(Source);
  EXPECT_TRUE(R.ok()) << Source << ": " << R.Error;
  return *R.Prog;
}

taco::Tensor<double> filled(std::vector<int64_t> Shape, int Salt) {
  taco::Tensor<double> T(std::move(Shape));
  for (size_t I = 0; I < T.flat().size(); ++I)
    T.flat()[I] = static_cast<double>((I * 7 + Salt) % 11) + 1.0;
  return T;
}

int countOp(const vm::StmtCode &S, vm::Op K) {
  return static_cast<int>(std::count_if(
      S.Instrs.begin(), S.Instrs.end(),
      [K](const vm::Inst &I) { return I.K == K; }));
}

/// Runs \p Code and the default-optimized copy on \p Ops and expects
/// bit-identical cells.
void expectOptIdentical(const taco::Program &P,
                        const std::map<std::string, taco::Tensor<double>> &Ops,
                        const std::vector<int64_t> &OutShape) {
  vm::Code Raw = vm::compileProgram(P);
  ASSERT_TRUE(Raw.ok()) << Raw.error();
  vm::OptimizeOptions OO;
  OO.FreezeConstants = true;
  vm::Code Opt = vm::optimize(Raw, OO);
  ASSERT_TRUE(Opt.ok()) << Opt.error();

  vm::Interpreter<double> RawI(Raw), OptI(Opt);
  ASSERT_TRUE(RawI.bindMap(Ops, OutShape)) << RawI.error();
  ASSERT_TRUE(OptI.bindMap(Ops, OutShape)) << OptI.error();
  taco::EinsumResult<double> A = RawI.evaluate();
  taco::EinsumResult<double> B = OptI.evaluate();
  ASSERT_TRUE(A.Ok);
  ASSERT_TRUE(B.Ok);
  EXPECT_EQ(A.Value.shape(), B.Value.shape());
  EXPECT_EQ(A.Value.flat(), B.Value.flat()); // bitwise, not approximate
}

//===----------------------------------------------------------------------===
// Span fusion.
//===----------------------------------------------------------------------===

TEST(VmOptimizerTest, DotProductFusesToOneDotSpan) {
  vm::Code Raw = vm::compileProgram(parse("s = a(i) * b(i)"));
  ASSERT_TRUE(Raw.ok());
  vm::OptimizeOptions OO;
  OO.FreezeConstants = true;
  vm::Code Opt = vm::optimize(Raw, OO);
  ASSERT_TRUE(Opt.ok());

  const vm::StmtCode &S = Opt.statements()[0];
  EXPECT_EQ(countOp(S, vm::Op::DotSpan), 1);
  EXPECT_EQ(countOp(S, vm::Op::LoopBegin), 0);
  EXPECT_EQ(countOp(S, vm::Op::Load), 0);

  std::map<std::string, taco::Tensor<double>> Ops;
  Ops.emplace("a", filled({7}, 1));
  Ops.emplace("b", filled({7}, 2));
  expectOptIdentical(parse("s = a(i) * b(i)"), Ops, {});
}

TEST(VmOptimizerTest, PlainReductionFusesToSumSpan) {
  vm::Code Raw = vm::compileProgram(parse("s = a(i)"));
  ASSERT_TRUE(Raw.ok());
  vm::OptimizeOptions OO;
  OO.FreezeConstants = true;
  vm::Code Opt = vm::optimize(Raw, OO);
  ASSERT_TRUE(Opt.ok());

  const vm::StmtCode &S = Opt.statements()[0];
  EXPECT_EQ(countOp(S, vm::Op::SumSpan), 1);
  EXPECT_EQ(countOp(S, vm::Op::LoopBegin), 0);

  std::map<std::string, taco::Tensor<double>> Ops;
  Ops.emplace("a", filled({9}, 3));
  expectOptIdentical(parse("s = a(i)"), Ops, {});
}

TEST(VmOptimizerTest, ElementwiseStatementBecomesMapSpan) {
  vm::Code Raw = vm::compileProgram(parse("out(i) = a(i) + b(i)"));
  ASSERT_TRUE(Raw.ok());
  vm::OptimizeOptions OO;
  OO.FreezeConstants = true;
  vm::Code Opt = vm::optimize(Raw, OO);
  ASSERT_TRUE(Opt.ok());

  const vm::StmtCode &S = Opt.statements()[0];
  ASSERT_EQ(countOp(S, vm::Op::MapSpan), 1);
  const vm::Inst &Map = *std::find_if(
      S.Instrs.begin(), S.Instrs.end(),
      [](const vm::Inst &I) { return I.K == vm::Op::MapSpan; });
  EXPECT_EQ(Map.Dst, static_cast<int32_t>(vm::MapOp::Add));

  std::map<std::string, taco::Tensor<double>> Ops;
  Ops.emplace("a", filled({6}, 4));
  Ops.emplace("b", filled({6}, 5));
  expectOptIdentical(parse("out(i) = a(i) + b(i)"), Ops, {6});
}

TEST(VmOptimizerTest, MapSpanHandlesTransposedOperandViaStride) {
  // a(i,j) = b(j,i) reads b with a non-unit stride along the span slot;
  // MapSpan accesses carry their own stride, so this still fuses — and
  // still matches the scalar walk bit for bit.
  vm::Code Raw = vm::compileProgram(parse("a(i,j) = b(j,i)"));
  ASSERT_TRUE(Raw.ok());
  vm::OptimizeOptions OO;
  OO.FreezeConstants = true;
  vm::Code Opt = vm::optimize(Raw, OO);
  EXPECT_EQ(countOp(Opt.statements()[0], vm::Op::MapSpan), 1);

  std::map<std::string, taco::Tensor<double>> Ops;
  Ops.emplace("b", filled({3, 4}, 1));
  expectOptIdentical(parse("a(i,j) = b(j,i)"), Ops, {4, 3});
}

TEST(VmOptimizerTest, MapSpanVisitsEachCellOnce) {
  // The span covers the innermost output dimension; the odometer over the
  // dimensions before it must run each span once, so compare() calls
  // CellOk exactly once per output cell at every rank.
  struct Case {
    const char *Source;
    std::vector<int64_t> Shape;
  };
  for (const Case &C : {Case{"a(i,j) = b(i,j) + c(i,j)", {3, 5}},
                        Case{"a(i,j,k) = b(i,j,k) * c(i,j,k)", {2, 3, 4}}}) {
    vm::OptimizeOptions OO;
    OO.FreezeConstants = true;
    vm::Code Opt = vm::optimize(vm::compileProgram(parse(C.Source)), OO);
    ASSERT_EQ(countOp(Opt.statements()[0], vm::Op::MapSpan), 1) << C.Source;

    std::map<std::string, taco::Tensor<double>> Ops;
    Ops.emplace("b", filled(C.Shape, 1));
    Ops.emplace("c", filled(C.Shape, 2));
    expectOptIdentical(parse(C.Source), Ops, C.Shape);

    vm::Interpreter<double> Interp(Opt);
    ASSERT_TRUE(Interp.bindMap(Ops, C.Shape)) << Interp.error();
    taco::EinsumResult<double> Want = Interp.evaluate();
    ASSERT_TRUE(Want.Ok);
    size_t Calls = 0;
    EXPECT_EQ(Interp.compare(Want.Value.flat(),
                             [&Calls](double Got, double Expected) {
                               ++Calls;
                               return Got == Expected;
                             }),
              taco::EinsumCompare::Match)
        << C.Source;
    EXPECT_EQ(Calls, Want.Value.flat().size()) << C.Source;
  }
}

TEST(VmOptimizerTest, ThreeOperandExpressionStaysScalar) {
  // Two binary ops exceed the tiny shapes MapSpan recognizes; the
  // statement must stay a scalar stream and still evaluate correctly.
  vm::Code Raw = vm::compileProgram(parse("out(i) = a(i) + b(i) + c(i)"));
  ASSERT_TRUE(Raw.ok());
  vm::OptimizeOptions OO;
  OO.FreezeConstants = true;
  vm::Code Opt = vm::optimize(Raw, OO);
  EXPECT_EQ(countOp(Opt.statements()[0], vm::Op::MapSpan), 0);

  std::map<std::string, taco::Tensor<double>> Ops;
  Ops.emplace("a", filled({6}, 1));
  Ops.emplace("b", filled({6}, 2));
  Ops.emplace("c", filled({6}, 3));
  expectOptIdentical(parse("out(i) = a(i) + b(i) + c(i)"), Ops, {6});
}

//===----------------------------------------------------------------------===
// Loop-invariant load hoisting.
//===----------------------------------------------------------------------===

TEST(VmOptimizerTest, InvariantLoadHoistsAboveTheReductionLoop) {
  // The compiler already factors invariant subtrees out of reductions, so
  // a naturally compiled stream has no hoistable load. Build one by hand:
  // inject a scalar access into the dot-product loop (the shape lifted
  // candidates or later rewrites can produce).
  taco::Program P = parse("s = a(i) * b(i)");
  vm::Code Code = vm::compileProgram(P);
  ASSERT_TRUE(Code.ok());
  vm::StmtCode &S = Code.mutableStatements()[0];

  vm::AccessInfo Scalar;
  Scalar.Name = "c"; // c() — no index slots, so loop-invariant
  S.Accesses.push_back(Scalar);
  const int32_t ScalarOrd = static_cast<int32_t>(S.Accesses.size()) - 1;
  auto MulAcc = std::find_if(
      S.Instrs.begin(), S.Instrs.end(),
      [](const vm::Inst &I) { return I.K == vm::Op::MulAcc; });
  ASSERT_NE(MulAcc, S.Instrs.end());
  // r0 += a*b  becomes  rC = load c(); rP = b*rC; r0 += a*rP.
  const int32_t RC = S.NumRegs++, RP = S.NumRegs++;
  const int32_t B = MulAcc->B;
  MulAcc->B = RP;
  auto At = MulAcc - S.Instrs.begin();
  S.Instrs.insert(S.Instrs.begin() + At,
                  {{vm::Op::Load, RC, ScalarOrd, -1, -1},
                   {vm::Op::Mul, RP, B, RC, -1}});

  vm::OptimizeOptions HoistOnly;
  HoistOnly.FuseSpans = false;
  HoistOnly.EliminateDead = false;
  HoistOnly.DedupConstants = false;
  vm::Code Opt = vm::optimize(Code, HoistOnly);
  ASSERT_TRUE(Opt.ok());

  const vm::StmtCode &OS = Opt.statements()[0];
  auto Pos = [&](auto Pred) {
    return std::find_if(OS.Instrs.begin(), OS.Instrs.end(), Pred) -
           OS.Instrs.begin();
  };
  auto LoadC = Pos([&](const vm::Inst &I) {
    return I.K == vm::Op::Load && I.A == ScalarOrd;
  });
  auto LoadA = Pos([](const vm::Inst &I) {
    return I.K == vm::Op::Load && I.A == 0;
  });
  auto Loop = Pos([](const vm::Inst &I) { return I.K == vm::Op::LoopBegin; });
  ASSERT_LT(LoadC, static_cast<ptrdiff_t>(OS.Instrs.size()));
  ASSERT_LT(Loop, static_cast<ptrdiff_t>(OS.Instrs.size()));
  EXPECT_LT(LoadC, Loop); // the invariant load moved above the loop
  EXPECT_GT(LoadA, Loop); // the varying loads stayed inside

  std::map<std::string, taco::Tensor<double>> Ops;
  Ops.emplace("a", filled({7}, 1));
  Ops.emplace("b", filled({7}, 2));
  Ops.emplace("c", taco::Tensor<double>::scalar(3.5));
  vm::Interpreter<double> RawI(Code), OptI(Opt);
  ASSERT_TRUE(RawI.bindMap(Ops, {})) << RawI.error();
  ASSERT_TRUE(OptI.bindMap(Ops, {})) << OptI.error();
  taco::EinsumResult<double> Want = RawI.evaluate(), Got = OptI.evaluate();
  ASSERT_TRUE(Want.Ok);
  ASSERT_TRUE(Got.Ok);
  EXPECT_EQ(Want.Value.flat(), Got.Value.flat());
}

TEST(VmOptimizerTest, HoistKeepsNestedLoopBodiesIntact) {
  // Regression test: hoisting over a loop whose children include a nested
  // loop but nothing hoistable must put the (moved-from) children back —
  // an early continue used to leave the inner loop as an empty shell,
  // silently dropping the whole reduction body.
  vm::Code Raw = vm::compileProgram(parse("s = m(i,j)"));
  ASSERT_TRUE(Raw.ok());
  vm::OptimizeOptions HoistOnly;
  HoistOnly.FuseSpans = false;
  HoistOnly.EliminateDead = false;
  HoistOnly.DedupConstants = false;
  vm::Code Opt = vm::optimize(Raw, HoistOnly);
  ASSERT_TRUE(Opt.ok());

  const vm::StmtCode &S = Opt.statements()[0];
  EXPECT_EQ(countOp(S, vm::Op::Load), 1);
  EXPECT_EQ(countOp(S, vm::Op::AccAdd), 1);
  EXPECT_EQ(countOp(S, vm::Op::LoopBegin), 2);
  EXPECT_EQ(S.Instrs.size(), Raw.statements()[0].Instrs.size());

  std::map<std::string, taco::Tensor<double>> Ops;
  Ops.emplace("m", filled({3, 4}, 6));
  expectOptIdentical(parse("s = m(i,j)"), Ops, {});
}

//===----------------------------------------------------------------------===
// Dead-register elimination on a hand-edited stream.
//===----------------------------------------------------------------------===

TEST(VmOptimizerTest, DeadPureInstructionIsEliminated) {
  taco::Program P = parse("out(i) = a(i)");
  vm::Code Code = vm::compileProgram(P);
  ASSERT_TRUE(Code.ok());

  // Append a pure instruction whose result nothing reads.
  vm::StmtCode &S = Code.mutableStatements()[0];
  const int Dead = S.NumRegs++;
  S.Instrs.push_back({vm::Op::Add, Dead, S.Root, S.Root, -1});

  vm::OptimizeOptions DceOnly;
  DceOnly.HoistLoads = false;
  DceOnly.FuseSpans = false;
  DceOnly.DedupConstants = false;
  vm::Code Opt = vm::optimize(Code, DceOnly);
  ASSERT_TRUE(Opt.ok());
  const vm::StmtCode &OS = Opt.statements()[0];
  EXPECT_EQ(countOp(OS, vm::Op::Add), 0);
  EXPECT_EQ(OS.NumRegs, 1);

  std::map<std::string, taco::Tensor<double>> Ops;
  Ops.emplace("a", filled({5}, 7));
  vm::Interpreter<double> Interp(Opt);
  ASSERT_TRUE(Interp.bindMap(Ops, {5})) << Interp.error();
  taco::EinsumResult<double> Got = Interp.evaluate();
  ASSERT_TRUE(Got.Ok);
  EXPECT_EQ(Got.Value.flat(), Ops.at("a").flat());
}

//===----------------------------------------------------------------------===
// Constant dedup: frozen vs live constants.
//===----------------------------------------------------------------------===

TEST(VmOptimizerTest, EqualConstantsMergeOnlyWhenFrozen) {
  // Two distinct ConstantExpr leaves with equal value. Frozen, they merge
  // into one register (and one Consts entry after the dead-constant
  // sweep). Unfrozen — the validator's constant odometer may retune each
  // leaf independently — they must stay separate.
  taco::Program P = parse("out(i) = a(i) * 2 + 2");
  vm::Code Code = vm::compileProgram(P);
  ASSERT_TRUE(Code.ok());
  ASSERT_EQ(Code.statements()[0].Consts.size(), 2u);

  vm::OptimizeOptions Frozen;
  Frozen.FreezeConstants = true;
  vm::Code Merged = vm::optimize(Code, Frozen);
  EXPECT_EQ(Merged.statements()[0].Consts.size(), 1u);

  vm::OptimizeOptions Live; // FreezeConstants = false
  vm::Code Kept = vm::optimize(Code, Live);
  EXPECT_EQ(Kept.statements()[0].Consts.size(), 2u);

  std::map<std::string, taco::Tensor<double>> Ops;
  Ops.emplace("a", filled({4}, 8));
  expectOptIdentical(P, Ops, {4});
}

//===----------------------------------------------------------------------===
// Idempotence: optimizing twice changes nothing.
//===----------------------------------------------------------------------===

TEST(VmOptimizerTest, OptimizeIsIdempotent) {
  for (const char *Src :
       {"s = a(i) * b(i)", "r(i) = m(i,j) * v(j)", "out(i) = a(i) + b(i)",
        "a(i,j) = b(i,k) * c(k,j)", "s = m(i,j)"}) {
    taco::Program P = parse(Src);
    vm::OptimizeOptions OO;
    OO.FreezeConstants = true;
    vm::Code Once = vm::optimize(vm::compileProgram(P), OO);
    vm::Code Twice = vm::optimize(Once, OO);
    EXPECT_EQ(vm::disassemble(Once), vm::disassemble(Twice)) << Src;
  }
}

//===----------------------------------------------------------------------===
// Disassembly: what `stagg disasm` prints.
//===----------------------------------------------------------------------===

TEST(VmOptimizerTest, DisassembleShowsSpansAndRawLoops) {
  taco::Program P = parse("s = x(i) * y(i)");
  vm::Code Raw = vm::compileProgram(P);
  std::string RawText = vm::disassemble(Raw);
  EXPECT_NE(RawText.find("LoopBegin"), std::string::npos);
  EXPECT_NE(RawText.find("MulAcc"), std::string::npos);
  EXPECT_NE(RawText.find("x(i)"), std::string::npos);

  vm::OptimizeOptions OO;
  OO.FreezeConstants = true;
  std::string OptText = vm::disassemble(vm::optimize(Raw, OO));
  EXPECT_NE(OptText.find("DotSpan"), std::string::npos);
  EXPECT_EQ(OptText.find("LoopBegin"), std::string::npos);
}

//===----------------------------------------------------------------------===
// Registry-wide opt-vs-noopt bit identity.
//===----------------------------------------------------------------------===

TEST(VmOptimizerTest, RegistrySweepOptVsNoOptBitIdentity) {
  int Swept = 0;
  vm::OptimizeOptions OO;
  OO.FreezeConstants = true;
  for (const bench::Benchmark &B : bench::allBenchmarks()) {
    taco::ParseStatementsResult GT = taco::parseTacoStatements(B.GroundTruth);
    ASSERT_TRUE(GT.ok()) << B.Name << ": " << GT.Error;
    vm::Code Raw = vm::compileStatements(GT.Programs);
    ASSERT_TRUE(Raw.ok()) << B.Name << ": " << Raw.error();
    vm::Code Opt = vm::optimize(Raw, OO);
    ASSERT_TRUE(Opt.ok()) << B.Name << ": " << Opt.error();

    std::map<std::string, int64_t> SizeMap;
    int64_t Dim = 3;
    for (const bench::ArgSpec &Arg : B.Args)
      if (Arg.K == bench::ArgSpec::Kind::SizeScalar)
        SizeMap[Arg.Name] = Dim++ % 4 + 2;
    std::map<std::string, taco::Tensor<double>> Ops;
    std::string OutName;
    int Salt = 1;
    for (const bench::ArgSpec &Arg : B.Args) {
      if (Arg.IsOutput)
        OutName = Arg.Name;
      if (Arg.K == bench::ArgSpec::Kind::Array)
        Ops.emplace(Arg.Name,
                    filled(validate::resolveShape(Arg, SizeMap), Salt++));
      else if (Arg.K == bench::ArgSpec::Kind::SizeScalar)
        Ops.emplace(Arg.Name, taco::Tensor<double>::scalar(
                                  static_cast<double>(SizeMap[Arg.Name])));
      else
        Ops.emplace(Arg.Name, taco::Tensor<double>::scalar(Salt++ % 5 + 1));
    }
    ASSERT_FALSE(OutName.empty()) << B.Name;

    auto Resolve =
        [&](const std::string &Name) -> const taco::Tensor<double> * {
      auto It = Ops.find(Name);
      return It == Ops.end() ? nullptr : &It->second;
    };
    vm::Interpreter<double> RawI(Raw), OptI(Opt);
    taco::Tensor<double> RawOut, OptOut;
    ASSERT_TRUE(RawI.run(Resolve, OutName, RawOut))
        << B.Name << ": " << RawI.error();
    ASSERT_TRUE(OptI.run(Resolve, OutName, OptOut))
        << B.Name << ": " << OptI.error();
    EXPECT_EQ(RawOut.shape(), OptOut.shape()) << B.Name;
    EXPECT_EQ(RawOut.flat(), OptOut.flat()) << B.Name;
    ++Swept;
  }
  EXPECT_GE(Swept, 80); // the full registry, not a subset
}

// Verifier verdicts, TestsRun, and counterexamples are identical with the
// optimizer on and off — swept over the registry with each kernel's own
// ground truth, plus one deliberately wrong candidate for the witness text.
TEST(VmOptimizerTest, VerifierVerdictsMatchWithAndWithoutOpt) {
  int Swept = 0;
  for (const bench::Benchmark &B : bench::allBenchmarks()) {
    taco::ParseStatementsResult GT = taco::parseTacoStatements(B.GroundTruth);
    ASSERT_TRUE(GT.ok()) << B.Name << ": " << GT.Error;
    cfront::CParseResult Fn = cfront::parseCFunction(B.CSource);
    ASSERT_TRUE(Fn.ok()) << B.Name << ": " << Fn.Error;

    verify::VerifyOptions WithOpt, NoOpt;
    WithOpt.UseVmOpt = true;
    NoOpt.UseVmOpt = false;
    verify::VerifyResult Opt, Raw;
    if (GT.Programs.size() == 1) {
      Opt = verify::verifyEquivalence(B, *Fn.Function, GT.Programs[0],
                                      WithOpt);
      Raw = verify::verifyEquivalence(B, *Fn.Function, GT.Programs[0], NoOpt);
    } else {
      Opt = verify::verifyEquivalence(B, *Fn.Function, GT.Programs, WithOpt);
      Raw = verify::verifyEquivalence(B, *Fn.Function, GT.Programs, NoOpt);
    }
    EXPECT_TRUE(Opt.Equivalent) << B.Name << ": " << Opt.Counterexample;
    EXPECT_EQ(Opt.Equivalent, Raw.Equivalent) << B.Name;
    EXPECT_EQ(Opt.TestsRun, Raw.TestsRun) << B.Name;
    EXPECT_EQ(Opt.Counterexample, Raw.Counterexample) << B.Name;
    ++Swept;
  }
  EXPECT_GE(Swept, 80);

  const bench::Benchmark *B = bench::findBenchmark("blas_gemv_ptr");
  ASSERT_NE(B, nullptr);
  cfront::CParseResult Fn = cfront::parseCFunction(B->CSource);
  ASSERT_TRUE(Fn.ok());
  taco::Program Wrong = parse("Result(i) = Mat1(j,i) * Mat2(j)");
  verify::VerifyOptions WithOpt, NoOpt;
  WithOpt.UseVmOpt = true;
  NoOpt.UseVmOpt = false;
  verify::VerifyResult Opt =
      verify::verifyEquivalence(*B, *Fn.Function, Wrong, WithOpt);
  verify::VerifyResult Raw =
      verify::verifyEquivalence(*B, *Fn.Function, Wrong, NoOpt);
  EXPECT_FALSE(Opt.Equivalent);
  EXPECT_EQ(Opt.TestsRun, Raw.TestsRun);
  EXPECT_EQ(Opt.Counterexample, Raw.Counterexample);
}

} // namespace
