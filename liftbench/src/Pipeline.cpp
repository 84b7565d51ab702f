//===- liftbench/src/Pipeline.cpp - The lift pipeline, span by span -------===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//

#include "Pipeline.h"

#include "analysis/Checker.h"
#include "analysis/KernelAnalysis.h"
#include "analysis/KernelModel.h"
#include "cfront/Parser.h"
#include "grammar/DimensionList.h"
#include "grammar/Template.h"
#include "llm/Prompt.h"
#include "llm/ResponseParser.h"
#include "search/BottomUp.h"
#include "search/TopDown.h"
#include "support/Timer.h"
#include "taco/Semantics.h"
#include "validate/Validator.h"

#include <cstdio>
#include <stdexcept>

using namespace stagg;

namespace liftbench {

std::map<std::string, int64_t> Trace::selfTimes(size_t From) const {
  std::vector<int64_t> Self(Spans.size() - From);
  for (size_t I = From; I < Spans.size(); ++I)
    Self[I - From] = Spans[I].EndNs - Spans[I].StartNs;
  for (size_t I = From; I < Spans.size(); ++I) {
    int P = Spans[I].Parent;
    if (P >= static_cast<int>(From))
      Self[static_cast<size_t>(P) - From] -= Spans[I].EndNs - Spans[I].StartNs;
  }
  std::map<std::string, int64_t> Out;
  for (size_t I = From; I < Spans.size(); ++I)
    Out[Spans[I].Name] += Self[I - From];
  return Out;
}

bool Trace::write(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fputs("{\"traceEvents\":[", F);
  int64_t Origin = Spans.empty() ? 0 : Spans.front().StartNs;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"span\":%zu,\"parent\":%d}}",
                 I ? "," : "", S.Name, (S.StartNs - Origin) / 1e3,
                 (S.EndNs - S.StartNs) / 1e3,
                 static_cast<unsigned long long>(S.Id), I, S.Parent);
  }
  std::fputs("\n]}\n", F);
  return std::fclose(F) == 0;
}

core::LiftResult tracedLift(const bench::Benchmark &B,
                            llm::CandidateOracle &Oracle,
                            const core::StaggConfig &Config, Trace &T,
                            uint64_t Id, LiftCounters &Counters) {
  if (Config.Search.Threads != 1)
    throw std::invalid_argument("tracedLift needs a single search worker");
  Scope Lift(T, "lift", Id);
  core::LiftResult Result;
  Timer Clock;

  cfront::CParseResult Parsed = [&] {
    Scope S(T, "cfront.parse", Id);
    return cfront::parseCFunction(B.CSource);
  }();
  if (!Parsed.ok()) {
    Result.FailReason = "C parse error: " + Parsed.Error;
    Result.Seconds = Result.ParseSeconds = Clock.seconds();
    return Result;
  }
  const cfront::CFunction &Fn = *Parsed.Function;

  analysis::KernelModel Model = [&] {
    Scope S(T, "analysis.model", Id);
    return analysis::buildKernelModel(Fn);
  }();
  const analysis::KernelSummary &Summary = Model.Summary;
  analysis::CheckReport Check = [&] {
    Scope S(T, "analysis.check", Id);
    analysis::CheckOptions CheckOpts;
    for (const bench::ArgSpec &Arg : B.Args) {
      if (Arg.K != bench::ArgSpec::Kind::Array)
        continue;
      std::vector<analysis::Poly> Extents;
      for (const std::string &Dim : Arg.Shape)
        Extents.push_back(analysis::shapeExtentPoly(Dim));
      CheckOpts.Shapes.emplace(Arg.Name, std::move(Extents));
      if (Arg.IsOutput)
        CheckOpts.OutputParams.insert(Arg.Name);
    }
    return analysis::checkKernel(Model, CheckOpts);
  }();
  Result.CheckerSafe = Check.BoundsProvenSafe;
  Result.CheckerFindings = static_cast<int>(Check.Findings.size());
  Result.ParseSeconds = Clock.seconds();

  std::vector<std::string> Lines = [&] {
    Scope S(T, "llm.propose", Id);
    llm::OracleTask Task;
    Task.Query = &B;
    Task.Prompt = llm::buildPrompt(B.CSource, Config.NumCandidates);
    Task.NumCandidates = Config.NumCandidates;
    return Oracle.propose(Task);
  }();
  Result.OracleSeconds = Clock.seconds() - Result.ParseSeconds;

  llm::ParsedResponses Responses = [&] {
    Scope S(T, "llm.parse", Id);
    return llm::parseResponses(Lines);
  }();
  Result.CandidatesParsed = static_cast<int>(Responses.Programs.size());
  Result.CandidatesDiscarded = Responses.Discarded;

  T.begin("grammar.build", Id);
  std::vector<grammar::Templatized> Templates;
  for (const taco::Program &P : Responses.Programs) {
    if (!taco::checkWellFormed(P).empty())
      continue;
    Templates.push_back(grammar::templatize(P));
  }
  if (Templates.empty()) {
    T.end();
    Result.FailReason = "no syntactically valid LLM candidates";
    Result.Seconds = Clock.seconds();
    Result.GrammarSeconds =
        Result.Seconds - Result.ParseSeconds - Result.OracleSeconds;
    return Result;
  }
  std::vector<int> DimList =
      grammar::predictDimensionList(Templates, Summary.LhsDim);
  Result.DimList = DimList;
  grammar::TemplateGrammar Grammar = grammar::buildTemplateGrammar(
      Templates, DimList, Summary.LhsDim, Config.Grammar);
  T.end();

  std::vector<validate::IoExample> Examples = [&] {
    Scope S(T, "validate.examples", Id);
    Rng ExampleRng(Config.ExampleSeed);
    return validate::generateExamples(B, Fn, Config.NumIoExamples,
                                      ExampleRng);
  }();
  if (Examples.empty()) {
    Result.FailReason = "failed to execute the legacy kernel";
    Result.Seconds = Clock.seconds();
    Result.GrammarSeconds =
        Result.Seconds - Result.ParseSeconds - Result.OracleSeconds;
    return Result;
  }
  Result.GrammarSeconds =
      Clock.seconds() - Result.ParseSeconds - Result.OracleSeconds;

  verify::VerifyOptions Verify = Config.Verify;
  Verify.TrustStaticBounds = Check.BoundsProvenSafe;
  Verify.UseVm = Config.UseVm;
  Verify.UseVmOpt = Config.UseVmOpt;

  // One worker, so one probe state (core::liftBenchmark keeps one per
  // search worker).
  std::unique_ptr<validate::Validator> V;
  verify::ReferenceCache VerifyCache;
  taco::Program Concrete;
  search::TemplateProbeFactory Factory = [&](int) {
    V = std::make_unique<validate::Validator>(
        B, Examples, Summary.Constants, Config.UseVm, Config.UseVmOpt);
    return search::TemplateProbe([&](const taco::Program &Template) {
      std::vector<validate::Instantiation> Valid = [&] {
        Scope S(T, "validate.validate", Id);
        return V->validate(Template);
      }();
      ++Counters.ValidateCalls;
      Counters.Pass += static_cast<int64_t>(Valid.size());
      for (validate::Instantiation &Inst : Valid) {
        if (!Config.SkipVerification) {
          verify::VerifyResult VR = [&] {
            Scope S(T, "verify.verify", Id);
            return verify::verifyEquivalence(B, Fn, Inst.Concrete, Verify,
                                             &VerifyCache);
          }();
          ++Counters.VerifyCalls;
          if (!VR.Equivalent) {
            ++Counters.VerifyRejects;
            continue;
          }
        }
        Concrete = std::move(Inst.Concrete);
        return true;
      }
      return false;
    });
  };

  search::SearchResult SR = [&] {
    Scope S(T, "search", Id);
    return Config.Kind == core::SearchKind::TopDown
               ? search::runTopDown(Grammar, Config.Search, Factory)
               : search::runBottomUp(Grammar, Config.Search, Factory);
  }();
  if (V)
    Counters.Instantiations += V->instantiationsTried();
  Counters.RefCacheHits += VerifyCache.hits();
  Counters.RefCacheLookups += VerifyCache.hits() + VerifyCache.misses();
  Counters.Attempts += SR.Attempts;
  Counters.Expansions += SR.Expansions;

  Result.Solved = SR.Solved;
  Result.Verified = SR.Solved && !Config.SkipVerification;
  Result.Template = std::move(SR.SolvedTemplate);
  if (SR.Solved)
    Result.Concrete = std::move(Concrete);
  Result.Attempts = SR.Attempts;
  Result.Expansions = SR.Expansions;
  Result.FailReason = SR.Solved ? "" : SR.FailReason;
  Result.Seconds = Clock.seconds();
  Result.SearchSeconds = Result.Seconds - Result.ParseSeconds -
                         Result.OracleSeconds - Result.GrammarSeconds;
  return Result;
}

} // namespace liftbench
