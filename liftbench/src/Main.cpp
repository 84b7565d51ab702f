//===- liftbench/src/Main.cpp - The benchmark driver ----------------------===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiled half of the benchmark; liftbench/run.py builds it, starts
/// the processes and assembles the result line. Subcommands:
///
///   lift          the lift_search / lift_quick end-to-end run: untimed
///                 warm-up pass, prints "ready <set-up CPU seconds at
///                 reference speed>", then timed passes
///   layers        the traced run: identity check over every registry
///                 kernel, then alternating untraced and traced passes
///   serve-warm    lifts every hit kernel once, filling the server's journal
///   serve-client  the serve traffic against a running server
///   expect-inline regenerates liftbench/inline_expected.csv
///
/// Each prints one JSON object as its last stdout line and exits 1 when an
/// output differs from its expectation (the mismatches go to stderr).
///
//===----------------------------------------------------------------------===//

#include "Calibration.h"
#include "Pipeline.h"
#include "ServeClient.h"
#include "Workload.h"

#include "api/KernelIngest.h"
#include "llm/SimulatedLlm.h"
#include "support/Json.h"
#include "support/Timer.h"
#include "taco/Printer.h"
#include "validate/IoExamples.h"
#include "vm/Compiler.h"
#include "vm/Interpreter.h"
#include "vm/Optimizer.h"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sched.h>
#include <set>
#include <string>

using namespace stagg;
using namespace stagg::support;
using namespace liftbench;

namespace {

struct Args {
  std::string Command;
  std::map<std::string, std::string> Values;
  std::set<std::string> Flags;

  std::string get(const std::string &Key, const std::string &Default) const {
    auto It = Values.find(Key);
    return It == Values.end() ? Default : It->second;
  }
  double num(const std::string &Key, double Default) const {
    auto It = Values.find(Key);
    return It == Values.end() ? Default : std::stod(It->second);
  }
};

Args parseArgs(int Argc, char **Argv) {
  Args A;
  if (Argc > 1)
    A.Command = Argv[1];
  for (int I = 2; I < Argc; ++I) {
    std::string Key = Argv[I];
    if (I + 1 < Argc && std::string(Argv[I + 1]).rfind("--", 0) != 0)
      A.Values[Key] = Argv[++I];
    else
      A.Flags.insert(Key);
  }
  return A;
}

/// Everything read from the expectation files.
struct Context {
  std::vector<Expectation> Rows;
  std::map<std::string, Expectation> ByName;
  KernelSplit Split;
  std::map<std::string, std::string> Inline;
  std::vector<std::string> ColdPool; ///< lift_quick kernels with an inline
                                     ///< expectation, registry order.
};

bool loadContext(const Args &A, Context &Ctx, std::string &Error) {
  bool Ok = false;
  std::string Path = A.get("--expected", "tests/expected_sweep.csv");
  std::string Csv = readFile(Path, Ok);
  if (!Ok) {
    Error = "cannot read " + Path;
    return false;
  }
  Ctx.Rows = parseExpectations(Csv, Error);
  if (!Error.empty()) {
    Error = Path + ": " + Error;
    return false;
  }
  for (const Expectation &E : Ctx.Rows) {
    if (!bench::findBenchmark(E.Name)) {
      Error = Path + ": '" + E.Name + "' is not a registry kernel";
      return false;
    }
    Ctx.ByName[E.Name] = E;
  }
  Ctx.Split = splitKernels(Ctx.Rows, Error);
  if (!Error.empty()) {
    Error = Path + ": " + Error;
    return false;
  }
  for (const std::string &Name : Ctx.Split.Drift)
    std::cerr << "liftbench: note: " << Name
              << "'s expected attempts crossed " << SearchMinAttempts
              << "; it stays in its fixed workload\n";
  std::string InlinePath =
      A.get("--inline-expected", "liftbench/inline_expected.csv");
  std::string InlineCsv = readFile(InlinePath, Ok);
  if (!Ok) {
    Error = "cannot read " + InlinePath;
    return false;
  }
  Ctx.Inline = parseInlineExpectations(InlineCsv, Error);
  if (!Error.empty()) {
    Error = InlinePath + ": " + Error;
    return false;
  }
  for (const std::string &Name : Ctx.Split.Quick)
    if (Ctx.Inline.count(Name))
      Ctx.ColdPool.push_back(Name);
  return true;
}

double peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0;
  return 0;
}

Json metric(double Value, const char *Unit) {
  Json M = Json::object();
  M.set("value", Json::number(Value));
  M.set("unit", Json::str(Unit));
  return M;
}

/// Prints the result line and returns the exit code.
int finish(Json Metrics, int64_t Attempted, int64_t Failed,
           const std::vector<std::string> &Mismatches) {
  for (const std::string &M : Mismatches)
    std::cerr << "liftbench: MISMATCH " << M << "\n";
  Json Out = Json::object();
  Out.set("correct", Json::boolean(Mismatches.empty()));
  Out.set("attempted", Json::integer(Attempted));
  Out.set("failed", Json::integer(Failed));
  Out.set("metrics", std::move(Metrics));
  std::cout << Out.dump() << std::endl;
  return Mismatches.empty() ? 0 : 1;
}

int fatal(const std::string &Message) {
  std::cerr << "liftbench: " << Message << "\n";
  return 2;
}

/// Moves the calling thread from CPU to CPU, one step per pass. On a shared
/// machine each CPU slows down and recovers on its own, as neighbours come
/// and go (a single-threaded lift_search pass measured 0.58 s on one CPU and
/// 0.86 s on another at the same minute). The scheduler would keep a
/// one-thread run on a single CPU, so its speed would be that CPU's; moving
/// on before every pass makes each run sample all the CPUs it may use.
class CpuRotation {
public:
  explicit CpuRotation(size_t Start) : Next(Start) {
    cpu_set_t Allowed;
    if (::sched_getaffinity(0, sizeof(Allowed), &Allowed) == 0)
      for (int C = 0; C < CPU_SETSIZE; ++C)
        if (CPU_ISSET(C, &Allowed))
          Cpus.push_back(C);
  }

  /// Moves to the next allowed CPU; a failure leaves the thread where it is.
  void next() {
    if (Cpus.size() < 2)
      return;
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(Cpus[Next++ % Cpus.size()], &One);
    ::sched_setaffinity(0, sizeof(One), &One);
  }

private:
  std::vector<int> Cpus;
  size_t Next;
};

const std::vector<std::string> *liftKernels(const Context &Ctx,
                                            const std::string &Workload) {
  if (Workload == "lift_search")
    return &Ctx.Split.Search;
  if (Workload == "lift_quick")
    return &Ctx.Split.Quick;
  return nullptr;
}

//===-- lift --------------------------------------------------------------===//

int runLift(const Args &A, const Context &Ctx) {
  std::string Workload = A.get("--workload", "");
  const std::vector<std::string> *Names = liftKernels(Ctx, Workload);
  if (!Names)
    return fatal("lift: unknown workload '" + Workload + "'");
  uint64_t Seed = std::stoull(A.get("--seed", "1"));
  double Seconds = A.num("--seconds", 10);

  std::vector<const bench::Benchmark *> Kernels;
  for (const std::string &N : *Names)
    Kernels.push_back(bench::findBenchmark(N));
  llm::SimulatedLlm Oracle(OracleSeed);
  core::StaggConfig Config = liftConfig();
  std::vector<std::string> Mismatches;
  int64_t Unsolved = 0;
  auto Check = [&](const bench::Benchmark &B, const core::LiftResult &R) {
    std::string Why = checkLift(Ctx.ByName.at(B.Name), R);
    if (!Why.empty())
      Mismatches.push_back(Why);
    Unsolved += !R.Solved;
  };

  // Set-up: one untimed pass fills the allocator and instruction caches.
  // Successive set-up spawns of one run start on successive CPUs.
  CpuRotation Cpus(static_cast<size_t>(A.num("--cpu-offset", 0)));
  Cpus.next();
  for (const bench::Benchmark *B : Kernels)
    Check(*B, core::liftBenchmark(*B, Oracle, Config));
  // Set-up is everything up to here: process start and the warm-up pass.
  // Its CPU time is scaled to the reference machine by the median of three
  // calibrations, which are not part of it.
  double SetupCpu = processCpuSeconds();
  std::vector<double> SetupScales;
  for (int I = 0; I < 3; ++I)
    SetupScales.push_back(referenceScale());
  char Setup[32];
  std::snprintf(Setup, sizeof(Setup), "%.9f", SetupCpu * median(SetupScales));
  std::cout << "ready " << Setup << std::endl;
  if (A.Flags.count("--setup-only"))
    return finish(Json::object(), static_cast<int64_t>(Kernels.size()),
                  static_cast<int64_t>(Mismatches.size()), Mismatches);

  // Timed passes, each in its own seeded order, until the time is up and
  // the p90 has at least MinBeyond samples above it. Each pass is timed in
  // CPU time and scaled to the reference machine by a calibration run just
  // before it, on the same CPU (see Calibration.h).
  const size_t Need = samplesNeeded(0.9);
  std::vector<double> PassSeconds, LiftMs, RawPassSeconds, Scales;
  Unsolved = 0;
  Timer Total;
  for (uint64_t Pass = 0;
       Total.seconds() < Seconds || LiftMs.size() < Need || Pass < 3;
       ++Pass) {
    std::vector<size_t> Order = seededOrder(Kernels.size(), Seed, Pass);
    std::vector<core::LiftResult> Results;
    Cpus.next();
    double Scale = referenceScale();
    double PassStart = processCpuSeconds();
    for (size_t I : Order) {
      double LiftStart = processCpuSeconds();
      Results.push_back(core::liftBenchmark(*Kernels[I], Oracle, Config));
      LiftMs.push_back((processCpuSeconds() - LiftStart) * Scale * 1e3);
    }
    RawPassSeconds.push_back(processCpuSeconds() - PassStart);
    PassSeconds.push_back(RawPassSeconds.back() * Scale);
    Scales.push_back(Scale);
    for (size_t J = 0; J < Order.size(); ++J)
      Check(*Kernels[Order[J]], Results[J]);
  }

  Percentile P50 = percentile(LiftMs, 0.5), P90 = percentile(LiftMs, 0.9);
  std::cerr << "liftbench: " << Workload << ": " << PassSeconds.size()
            << " passes, " << LiftMs.size() << " lifts (p90 has " << P90.Beyond
            << " samples beyond it), " << Unsolved
            << " unsolved as expected; a pass took " << median(RawPassSeconds)
            << " s of CPU time (median) on CPUs running at "
            << median(Scales) << " times the reference speed\n";
  Json M = Json::object();
  M.set("sweep_cpu_s", metric(median(PassSeconds), "s"));
  M.set("lift_cpu_p50_ms", metric(P50.Value, "ms"));
  M.set("lift_cpu_p90_ms", metric(P90.Value, "ms"));
  M.set("peak_rss_mb", metric(peakRssMb(), "MB"));
  return finish(std::move(M), static_cast<int64_t>(LiftMs.size()),
                static_cast<int64_t>(Mismatches.size()), Mismatches);
}

//===-- layers ------------------------------------------------------------===//

bool sameLift(const core::LiftResult &X, const core::LiftResult &Y) {
  return X.Solved == Y.Solved && X.Attempts == Y.Attempts &&
         X.Expansions == Y.Expansions &&
         taco::printProgram(X.Concrete) == taco::printProgram(Y.Concrete) &&
         X.FailReason == Y.FailReason;
}

/// Operands of an execute payload, bound the way the serve endpoint binds
/// them.
std::map<std::string, taco::Tensor<double>>
payloadOperands(const bench::Benchmark &B, const ExecPayload &P) {
  std::map<std::string, taco::Tensor<double>> Ops;
  for (const bench::ArgSpec &Arg : B.Args) {
    if (Arg.K == bench::ArgSpec::Kind::Array) {
      taco::Tensor<double> T(validate::resolveShape(Arg, P.Sizes));
      auto It = P.Arrays.find(Arg.Name);
      if (It != P.Arrays.end())
        T.flat() = It->second;
      Ops.emplace(Arg.Name, std::move(T));
    } else if (Arg.K == bench::ArgSpec::Kind::SizeScalar) {
      Ops.emplace(Arg.Name, taco::Tensor<double>::scalar(static_cast<double>(
                                P.Sizes.at(Arg.Name))));
    } else {
      Ops.emplace(Arg.Name, taco::Tensor<double>::scalar(P.Scalars.at(Arg.Name)));
    }
  }
  return Ops;
}

int runLayers(const Args &A, const Context &Ctx) {
  std::string Workload = A.get("--workload", "");
  uint64_t Seed = std::stoull(A.get("--seed", "1"));
  double Seconds = A.num("--seconds", 10);
  llm::SimulatedLlm Oracle(OracleSeed);
  core::StaggConfig Config = liftConfig();
  std::vector<std::string> Mismatches;

  // Identity check: the rebuilt pipeline must reproduce core::liftBenchmark
  // on every registry kernel, or its spans describe another program.
  {
    Trace Scratch;
    LiftCounters Ignored;
    for (const Expectation &E : Ctx.Rows) {
      const bench::Benchmark &B = *bench::findBenchmark(E.Name);
      core::LiftResult Ref = core::liftBenchmark(B, Oracle, Config);
      core::LiftResult Traced =
          tracedLift(B, Oracle, Config, Scratch, 0, Ignored);
      auto Describe = [](const core::LiftResult &R) {
        return "'" + liftDetail(R) + "' (" + std::to_string(R.Attempts) +
               " attempts, " + std::to_string(R.Expansions) + " expansions)";
      };
      if (!sameLift(Ref, Traced))
        Mismatches.push_back("identity check: the traced pipeline lifts " +
                             B.Name + " to " + Describe(Traced) +
                             ", core::liftBenchmark to " + Describe(Ref));
    }
  }

  const std::vector<std::string> *Names = liftKernels(Ctx, Workload);
  if (!Names)
    return fatal("layers: unknown workload '" + Workload + "'");
  std::vector<const bench::Benchmark *> Kernels;
  for (const std::string &N : *Names)
    Kernels.push_back(bench::findBenchmark(N));

  // lift_quick also carries the serving path's in-process layers: ingest of
  // the renamed inline texts its serve traffic sends, and the VM on the
  // execute payloads.
  std::vector<std::pair<std::string, std::string>> Inline; // name, text
  ServeMix Mix;
  std::map<std::string, taco::Program> Lifted;
  if (Workload == "lift_quick") {
    for (size_t I = 0; I < Ctx.ColdPool.size(); ++I)
      Inline.emplace_back(
          Ctx.ColdPool[I],
          renameIdentifiers(bench::findBenchmark(Ctx.ColdPool[I])->CSource,
                            renamePrefix(Seed, I)));
    std::string Error;
    Mix = makeServeMix(Ctx.Split, Ctx.ColdPool, Seed, Error);
    if (!Error.empty())
      return fatal("layers: " + Error);
    for (const std::string &N : execKernels())
      Lifted[N] = core::liftBenchmark(*bench::findBenchmark(N), Oracle, Config)
                      .Concrete;
  }

  // Warm-up pass, then alternating untraced and traced passes in the same
  // seeded order.
  for (const bench::Benchmark *B : Kernels)
    core::liftBenchmark(*B, Oracle, Config);
  Trace T;
  std::vector<double> Untraced, Traced;
  std::map<std::string, std::vector<double>> PerPass;
  auto Record = [&](const std::string &Name, double V) {
    PerPass[Name].push_back(V);
  };
  CpuRotation Cpus(0);
  Timer Total;
  for (uint64_t Pass = 0; Total.seconds() < Seconds || Pass < 3; ++Pass) {
    std::vector<size_t> Order = seededOrder(Kernels.size(), Seed, Pass);
    // The untraced and the traced pass run on the same CPU.
    Cpus.next();
    Timer UntracedClock;
    for (size_t I : Order)
      core::liftBenchmark(*Kernels[I], Oracle, Config);
    Untraced.push_back(UntracedClock.seconds());

    size_t From = T.size();
    LiftCounters C;
    std::vector<core::LiftResult> Results;
    Timer TracedClock;
    for (size_t I : Order)
      Results.push_back(tracedLift(*Kernels[I], Oracle, Config, T,
                                   Pass * Kernels.size() + I, C));
    Traced.push_back(TracedClock.seconds());
    for (size_t J = 0; J < Order.size(); ++J) {
      std::string Why =
          checkLift(Ctx.ByName.at(Kernels[Order[J]]->Name), Results[J]);
      if (!Why.empty())
        Mismatches.push_back(Why);
    }

    for (size_t I = 0; I < Inline.size(); ++I) {
      Scope S(T, "api.ingest", (1ULL << 40) + Pass * Inline.size() + I);
      api::IngestResult In =
          api::ingestKernel(Inline[I].second, Inline[I].first);
      if (!In.ok())
        Mismatches.push_back(Inline[I].first + ": ingest failed: " + In.Error);
    }

    // The VM layer on the execute payloads: compile each lifted program
    // once per pass, run every payload.
    std::map<std::string, vm::Code> Compiled;
    for (size_t I = 0; I < Mix.Payloads.size(); ++I) {
      const ExecPayload &P = Mix.Payloads[I];
      uint64_t Id = (2ULL << 40) + Pass * Mix.Payloads.size() + I;
      if (!Compiled.count(P.Kernel)) {
        Scope S(T, "vm.compile", Id);
        vm::OptimizeOptions Opt;
        Opt.FreezeConstants = true;
        Compiled[P.Kernel] =
            vm::optimize(vm::compileProgram(Lifted.at(P.Kernel)), Opt);
      }
      const bench::Benchmark &B = *bench::findBenchmark(P.Kernel);
      std::map<std::string, taco::Tensor<double>> Ops =
          payloadOperands(B, P);
      Scope S(T, "vm.execute", Id);
      vm::Interpreter<double> Interp(Compiled.at(P.Kernel));
      if (!Interp.bindMap(Ops, P.OutShape)) {
        Mismatches.push_back(P.Kernel + ": VM bind failed: " + Interp.error());
        continue;
      }
      taco::EinsumResult<double> Out = Interp.evaluate();
      if (!Out.Ok || Out.Value.flat() != P.Expected)
        Mismatches.push_back(P.Kernel + ": VM output differs from cfront");
    }

    std::map<std::string, int64_t> Self = T.selfTimes(From);
    auto Ms = [&](const char *Span) {
      auto It = Self.find(Span);
      return It == Self.end() ? 0.0 : It->second / 1e6;
    };
    Record("cfront.parse_ms", Ms("cfront.parse"));
    Record("analysis.model_ms", Ms("analysis.model"));
    Record("analysis.check_ms", Ms("analysis.check"));
    Record("llm.propose_ms", Ms("llm.propose"));
    Record("llm.parse_ms", Ms("llm.parse"));
    Record("grammar.build_ms", Ms("grammar.build"));
    Record("validate.examples_ms", Ms("validate.examples"));
    Record("search.enumerate_ms", Ms("search"));
    Record("validate.validate_ms", Ms("validate.validate"));
    Record("verify.verify_ms", Ms("verify.verify"));
    Record("core.other_ms", Ms("lift"));
    Record("api.ingest_ms", Ms("api.ingest"));
    Record("vm.compile_ms", Ms("vm.compile"));
    Record("vm.execute_ms", Ms("vm.execute"));
    Record("search.expansions", static_cast<double>(C.Expansions));
    Record("search.attempts", static_cast<double>(C.Attempts));
    Record("validate.calls", static_cast<double>(C.ValidateCalls));
    Record("validate.instantiations", static_cast<double>(C.Instantiations));
    Record("validate.pass", static_cast<double>(C.Pass));
    Record("validate.pass_ratio",
           C.Instantiations ? double(C.Pass) / double(C.Instantiations) : 0);
    Record("verify.calls", static_cast<double>(C.VerifyCalls));
    Record("verify.rejects", static_cast<double>(C.VerifyRejects));
    Record("verify.ref_cache_hit_ratio",
           C.RefCacheLookups ? double(C.RefCacheHits) / double(C.RefCacheLookups)
                             : 0);
  }

  std::string TraceOut = A.get("--trace-out", "");
  if (!TraceOut.empty() && !T.write(TraceOut))
    return fatal("cannot write " + TraceOut);

  Json M = Json::object();
  for (const auto &KV : PerPass) {
    bool IsTime = KV.first.size() > 3 &&
                  KV.first.compare(KV.first.size() - 3, 3, "_ms") == 0;
    bool IsRatio = KV.first.find("ratio") != std::string::npos;
    M.set(KV.first, metric(median(KV.second),
                           IsTime ? "ms" : IsRatio ? "ratio" : "count"));
  }
  M.set("trace.overhead_frac",
        metric(median(Traced) / median(Untraced) - 1, "ratio"));
  std::cerr << "liftbench: layers " << Workload << ": " << Traced.size()
            << " traced and " << Untraced.size() << " untraced passes over "
            << Kernels.size() << " kernels; untraced sweep "
            << median(Untraced) << " s, traced " << median(Traced) << " s\n";
  return finish(std::move(M),
                static_cast<int64_t>(Ctx.Rows.size() +
                                     Kernels.size() * (Traced.size() +
                                                       Untraced.size())),
                static_cast<int64_t>(Mismatches.size()), Mismatches);
}

//===-- serve -------------------------------------------------------------===//

ClientOptions clientOptions(const Args &A) {
  ClientOptions O;
  O.Port = static_cast<int>(A.num("--port", 0));
  O.Conns = static_cast<int>(A.num("--conns", 4));
  O.Seconds = A.num("--seconds", 15);
  return O;
}

ClientExpectations clientExpectations(const Context &Ctx) {
  ClientExpectations E;
  E.Registry = Ctx.ByName;
  E.InlineExprs = Ctx.Inline;
  return E;
}

int runServeWarm(const Args &A, const Context &Ctx) {
  std::string Error;
  ServeMix Mix = makeServeMix(Ctx.Split, Ctx.ColdPool,
                              std::stoull(A.get("--seed", "1")), Error);
  if (!Error.empty())
    return fatal(Error);
  std::vector<ServeRequest> Requests;
  for (const std::string &Name : Mix.HitKernels) {
    ServeRequest R;
    R.Kind = RequestKind::Hit;
    R.Kernel = Name;
    R.Id = static_cast<int64_t>(Requests.size());
    R.Frame = "{\"v\":2,\"id\":" + std::to_string(R.Id) +
              ",\"requests\":[{\"name\":\"" + Name + "\"}]}";
    Requests.push_back(std::move(R));
  }
  ClientReport R =
      runWarmup(Requests, Mix, clientExpectations(Ctx), clientOptions(A));
  if (!R.Error.empty())
    return fatal("serve-warm: " + R.Error);
  return finish(Json::object(), static_cast<int64_t>(R.Done.size()),
                static_cast<int64_t>(R.Mismatches.size()), R.Mismatches);
}

int runServeClient(const Args &A, const Context &Ctx) {
  std::string Error;
  ServeMix Mix = makeServeMix(Ctx.Split, Ctx.ColdPool,
                              std::stoull(A.get("--seed", "1")), Error);
  if (!Error.empty())
    return fatal(Error);
  std::string TraceOut = A.get("--trace-out", "");
  Trace T;
  ClientReport R = runServeTraffic(Mix, clientExpectations(Ctx),
                                   clientOptions(A),
                                   TraceOut.empty() ? nullptr : &T);
  if (!R.Error.empty())
    return fatal("serve-client: " + R.Error);
  if (!TraceOut.empty() && !T.write(TraceOut))
    return fatal("cannot write " + TraceOut);

  std::vector<double> Open, Late, Wait;
  std::map<RequestKind, std::vector<double>> ByKind;
  int64_t Failed = 0, OpenCount = 0, ClosedCount = 0;
  for (const Completed &C : R.Done) {
    Failed += C.Failed;
    (C.Open ? OpenCount : ClosedCount) += 1;
    if (C.Failed)
      continue;
    if (C.Open) {
      Open.push_back(C.LatencyMs);
      Late.push_back(C.LateMs);
      ByKind[C.Kind].push_back(C.LatencyMs);
    }
    if (C.ServerLiftMs >= 0)
      Wait.push_back(C.RoundTripMs - C.ServerLiftMs);
  }
  JsonParseResult Stats = parseJson(R.StatsJson);
  auto Ratio = [&](const char *Object) {
    const Json *O = Stats.ok() ? Stats.Value.find(Object) : nullptr;
    const Json *H = O ? O->find("hits") : nullptr;
    const Json *Mi = O ? O->find("misses") : nullptr;
    double Hits = H ? H->asNumber() : 0, Misses = Mi ? Mi->asNumber() : 0;
    return Hits + Misses > 0 ? Hits / (Hits + Misses) : 0.0;
  };
  const Json *Cache = Stats.ok() ? Stats.Value.find("cache") : nullptr;
  const Json *Loaded = Cache ? Cache->find("loaded") : nullptr;

  Percentile P90 = percentile(Open, 0.9), P99 = percentile(Open, 0.99),
             W99 = percentile(Wait, 0.99);
  std::cerr << "liftbench: serve: " << OpenCount << " open-loop and "
            << ClosedCount << " closed-loop requests, "
            << R.BlockSeconds.size() << " closed-loop blocks of "
            << Mix.blockSize() << "; p90 has " << P90.Beyond
            << " samples beyond it, p99 " << P99.Beyond << ", wait p99 "
            << W99.Beyond << "; generator late by " << median(Late)
            << " ms median, " << percentile(Late, 0.99).Value << " ms p99\n";
  Json M = Json::object();
  M.set("serve.sat_rps",
        metric(static_cast<double>(Mix.blockSize()) / median(R.BlockSeconds),
               "1/s"));
  M.set("serve.p50_ms", metric(percentile(Open, 0.5).Value, "ms"));
  M.set("serve.p90_ms", metric(P90.Value, "ms"));
  M.set("serve.p99_ms", metric(P99.Value, "ms"));
  M.set("serve.hit_p50_ms",
        metric(percentile(ByKind[RequestKind::Hit], 0.5).Value, "ms"));
  M.set("serve.cold_p50_ms",
        metric(percentile(ByKind[RequestKind::Cold], 0.5).Value, "ms"));
  M.set("serve.exec_p50_ms",
        metric(percentile(ByKind[RequestKind::Exec], 0.5).Value, "ms"));
  M.set("serve.wait_ms_p50", metric(percentile(Wait, 0.5).Value, "ms"));
  M.set("serve.wait_ms_p99", metric(W99.Value, "ms"));
  M.set("serve.cache_hit_ratio", metric(Ratio("cache"), "ratio"));
  M.set("serve.journal_loaded",
        metric(Loaded ? Loaded->asNumber() : 0, "count"));
  M.set("vm.cache_hit_ratio", metric(Ratio("vm_cache"), "ratio"));
  M.set("client.late_ms", metric(percentile(Late, 0.99).Value, "ms"));
  return finish(std::move(M), static_cast<int64_t>(R.Done.size()), Failed,
                R.Mismatches);
}

//===-- expect-inline -----------------------------------------------------===//

/// Lifts every lift_quick kernel as renamed inline text under several
/// prefixes, the way `stagg serve` lifts it, and prints the kernels whose
/// un-renamed expression is the same under all of them. Kernels that ingest
/// into a search-heavy lift (the lift_search rule) are left out, so the
/// serve tail measures serving rather than search.
int runExpectInline(const Context &Ctx) {
  llm::SimulatedLlm Oracle(OracleSeed);
  core::StaggConfig Config = liftConfig();
  std::cout << "kernel,expr\n";
  for (const std::string &Name : Ctx.Split.Quick) {
    const bench::Benchmark &Reg = *bench::findBenchmark(Name);
    std::set<std::string> Exprs;
    std::string Why;
    for (uint64_t Trial = 0; Trial < 8 && Why.empty(); ++Trial) {
      std::string Prefix = renamePrefix(0xA11CE + Trial, Trial * 977);
      api::IngestResult In =
          api::ingestKernel(renameIdentifiers(Reg.CSource, Prefix), Name);
      if (!In.ok()) {
        Why = "ingest: " + In.Error;
        break;
      }
      core::LiftResult R = core::liftBenchmark(In.Kernel, Oracle, Config);
      if (Trial == 0)
        std::cerr << "liftbench: " << Name << ": " << R.Attempts
                  << " attempts, " << R.Seconds * 1e3 << " ms\n";
      if (!R.Verified)
        Why = "not verified: " + R.FailReason;
      else if (R.Attempts >= SearchMinAttempts)
        Why = "search-heavy as inline text (" + std::to_string(R.Attempts) +
              " attempts)";
      Exprs.insert(undoRenaming(liftDetail(R), Prefix));
    }
    if (Why.empty() && Exprs.size() != 1)
      Why = "the expression depends on the renaming";
    if (!Why.empty()) {
      std::cerr << "liftbench: left out " << Name << ": " << Why << "\n";
      continue;
    }
    std::string Expr = *Exprs.begin();
    if (Expr.find_first_of(",\"") != std::string::npos) {
      std::string Quoted;
      for (char C : Expr)
        Quoted += C == '"' ? std::string("\"\"") : std::string(1, C);
      Expr = "\"" + Quoted + "\"";
    }
    std::cout << Name << "," << Expr << "\n";
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);
  Context Ctx;
  std::string Error;
  if (!loadContext(A, Ctx, Error))
    return fatal(Error);
  try {
    if (A.Command == "lift")
      return runLift(A, Ctx);
    if (A.Command == "layers")
      return runLayers(A, Ctx);
    if (A.Command == "serve-warm")
      return runServeWarm(A, Ctx);
    if (A.Command == "serve-client")
      return runServeClient(A, Ctx);
    if (A.Command == "expect-inline")
      return runExpectInline(Ctx);
  } catch (const std::exception &E) {
    return fatal(E.what());
  }
  return fatal("usage: liftbench lift|layers|serve-warm|serve-client|"
               "expect-inline [--key value ...]");
}
