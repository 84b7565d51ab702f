//===- liftbench/src/Workload.cpp - Workloads, inputs and the gate --------===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//

#include "Workload.h"

#include "cfront/Interp.h"
#include "cfront/Parser.h"
#include "support/Json.h"
#include "taco/Printer.h"
#include "validate/IoExamples.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <set>
#include <sstream>

using namespace stagg;
using stagg::support::Json;

namespace liftbench {

namespace {

/// splitmix64: the benchmark's own generator, so its inputs never move when
/// the program's RNG changes.
struct SplitMix {
  uint64_t State;
  explicit SplitMix(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9E3779B97F4A7C15ULL);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, N).
  uint64_t below(uint64_t N) { return next() % N; }
  /// Uniform in (0, 1].
  double unit() { return (static_cast<double>(next() >> 11) + 1.0) * 0x1.0p-53; }
};

uint64_t mix(uint64_t A, uint64_t B) {
  return SplitMix(A * 0x2545F4914F6CDD1DULL ^ B).next();
}

std::vector<std::vector<std::string>> parseCsv(const std::string &Text,
                                               std::string &Error) {
  std::vector<std::vector<std::string>> Rows;
  std::vector<std::string> Row;
  std::string Field;
  bool Quoted = false, AnyField = false;
  for (size_t I = 0; I < Text.size(); ++I) {
    char C = Text[I];
    if (Quoted) {
      if (C == '"' && I + 1 < Text.size() && Text[I + 1] == '"') {
        Field += '"';
        ++I;
      } else if (C == '"') {
        Quoted = false;
      } else {
        Field += C;
      }
      continue;
    }
    if (C == '"') {
      Quoted = AnyField = true;
    } else if (C == ',') {
      Row.push_back(std::move(Field));
      Field.clear();
      AnyField = true;
    } else if (C == '\n' || C == '\r') {
      if (AnyField || !Field.empty()) {
        Row.push_back(std::move(Field));
        Rows.push_back(std::move(Row));
      }
      Row.clear();
      Field.clear();
      AnyField = false;
    } else {
      Field += C;
      AnyField = true;
    }
  }
  if (Quoted)
    Error = "unterminated quoted field";
  else if (AnyField || !Field.empty()) {
    Row.push_back(std::move(Field));
    Rows.push_back(std::move(Row));
  }
  return Rows;
}

const std::set<std::string> &reservedWords() {
  static const std::set<std::string> Words = {
      "auto",     "break",   "case",     "char",     "const",   "continue",
      "default",  "do",      "double",   "else",     "enum",    "extern",
      "float",    "for",     "goto",     "if",       "inline",  "int",
      "long",     "register", "restrict", "return",  "short",   "signed",
      "sizeof",   "static",  "struct",   "switch",   "typedef", "union",
      "unsigned", "void",    "volatile", "while",    "size_t",  "int64_t",
      "int32_t",  "uint64_t", "uint32_t", "__restrict", "max",  "min",
      "fmax",     "fmaxf",   "fmin",     "fminf",    "Const",   "bool"};
  return Words;
}

bool identStart(char C) {
  return std::isalpha(static_cast<unsigned char>(C)) || C == '_';
}
bool identChar(char C) {
  return std::isalnum(static_cast<unsigned char>(C)) || C == '_';
}

/// Calls \p OnIdent(Identifier) for every identifier of \p Text and copies
/// everything else through; numeric literals (including suffixes such as
/// 2.0f) are never split into identifiers.
template <typename Fn>
std::string mapIdentifiers(const std::string &Text, Fn OnIdent) {
  std::string Out;
  Out.reserve(Text.size() + Text.size() / 4);
  for (size_t I = 0; I < Text.size();) {
    char C = Text[I];
    if (std::isdigit(static_cast<unsigned char>(C))) {
      size_t J = I;
      while (J < Text.size() && (identChar(Text[J]) || Text[J] == '.'))
        ++J;
      Out.append(Text, I, J - I);
      I = J;
    } else if (identStart(C)) {
      size_t J = I;
      while (J < Text.size() && identChar(Text[J]))
        ++J;
      Out += OnIdent(Text.substr(I, J - I));
      I = J;
    } else {
      Out += C;
      ++I;
    }
  }
  return Out;
}

} // namespace

core::StaggConfig liftConfig() {
  core::StaggConfig Config;
  Config.Search.Threads = 1;
  return Config;
}

std::vector<Expectation> parseExpectations(const std::string &Csv,
                                           std::string &Error) {
  std::vector<std::vector<std::string>> Rows = parseCsv(Csv, Error);
  std::vector<Expectation> Out;
  if (!Error.empty())
    return Out;
  if (Rows.empty() || Rows[0].size() != 6 || Rows[0][0] != "benchmark" ||
      Rows[0][3] != "attempts") {
    Error = "expected header benchmark,category,solved,attempts,expansions,"
            "detail";
    return Out;
  }
  for (size_t I = 1; I < Rows.size(); ++I) {
    const std::vector<std::string> &R = Rows[I];
    if (R.size() != 6) {
      Error = "row " + std::to_string(I + 1) + " has " +
              std::to_string(R.size()) + " fields";
      Out.clear();
      return Out;
    }
    Expectation E;
    E.Name = R[0];
    E.Solved = R[2] == "1";
    E.Attempts = std::atoi(R[3].c_str());
    E.Expansions = std::atoll(R[4].c_str());
    E.Detail = R[5];
    Out.push_back(std::move(E));
  }
  return Out;
}

std::map<std::string, std::string>
parseInlineExpectations(const std::string &Csv, std::string &Error) {
  std::vector<std::vector<std::string>> Rows = parseCsv(Csv, Error);
  std::map<std::string, std::string> Out;
  if (!Error.empty())
    return Out;
  if (Rows.empty() || Rows[0] != std::vector<std::string>{"kernel", "expr"}) {
    Error = "expected header kernel,expr";
    return Out;
  }
  for (size_t I = 1; I < Rows.size(); ++I) {
    if (Rows[I].size() != 2) {
      Error = "row " + std::to_string(I + 1) + " needs two fields";
      Out.clear();
      return Out;
    }
    Out[Rows[I][0]] = Rows[I][1];
  }
  return Out;
}

const std::vector<std::string> &searchKernels() {
  static const std::vector<std::string> Names = {
      "blas_axpby",      "blas_axpy",          "dk_axpy_ptr",
      "dk_l2_dist",      "dk_weighted_sum",    "dsp_gain_offset",
      "dsp_wdiff",       "fused_scale_shift",  "misc_gemv_pair",
      "misc_mm3_chain",  "misc_residual_gemv", "misc_saxpy2",
      "ptr_saxpy_walk"};
  return Names;
}

KernelSplit splitKernels(const std::vector<Expectation> &Rows,
                         std::string &Error) {
  const std::vector<std::string> &Listed = searchKernels();
  std::set<std::string> Search(Listed.begin(), Listed.end());
  KernelSplit S;
  for (const Expectation &E : Rows) {
    bool InSearch = Search.erase(E.Name) > 0;
    (InSearch ? S.Search : S.Quick).push_back(E.Name);
    if (InSearch != (E.Attempts >= SearchMinAttempts))
      S.Drift.push_back(E.Name);
  }
  if (!Search.empty())
    Error = "lift_search kernel '" + *Search.begin() +
            "' has no expected row";
  return S;
}

std::vector<size_t> seededOrder(size_t N, uint64_t Seed, uint64_t Round) {
  std::vector<size_t> Order(N);
  for (size_t I = 0; I < N; ++I)
    Order[I] = I;
  SplitMix R(mix(Seed, Round + 1));
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[R.below(I)]);
  return Order;
}

Percentile percentile(std::vector<double> Samples, double Q) {
  Percentile P;
  P.Count = Samples.size();
  if (Samples.empty())
    return P;
  std::sort(Samples.begin(), Samples.end());
  // Nearest rank: the ceil(Q * n)-th smallest sample (1-based). The small
  // epsilon keeps exact products such as 0.9 * 100 from rounding up.
  size_t Rank = static_cast<size_t>(std::ceil(Q * P.Count - 1e-9));
  Rank = std::min(std::max<size_t>(Rank, 1), P.Count);
  P.Value = Samples[Rank - 1];
  P.Beyond = P.Count - Rank;
  P.Supported = P.Beyond >= MinBeyond;
  return P;
}

size_t samplesNeeded(double Q) {
  size_t N = 1;
  while (percentile(std::vector<double>(N, 0.0), Q).Beyond < MinBeyond)
    ++N;
  return N;
}

double median(std::vector<double> Samples) {
  if (Samples.empty())
    return 0;
  std::sort(Samples.begin(), Samples.end());
  size_t N = Samples.size();
  return N % 2 ? Samples[N / 2] : 0.5 * (Samples[N / 2 - 1] + Samples[N / 2]);
}

std::string renameIdentifiers(const std::string &Text,
                              const std::string &Prefix) {
  return mapIdentifiers(Text, [&](const std::string &Id) {
    return reservedWords().count(Id) ? Id : Prefix + Id;
  });
}

std::string undoRenaming(const std::string &Text, const std::string &Prefix) {
  return mapIdentifiers(Text, [&](const std::string &Id) {
    return Id.compare(0, Prefix.size(), Prefix) == 0 ? Id.substr(Prefix.size())
                                                     : Id;
  });
}

std::string renamePrefix(uint64_t Seed, uint64_t Index) {
  // "q" + six hex digits of the seed's hash + the request index: unique per
  // request within a run, different across seeds, and never the start of
  // an identifier in the registry's C texts.
  char Hex[16];
  std::snprintf(Hex, sizeof(Hex), "%06llx",
                static_cast<unsigned long long>(mix(Seed, 0) & 0xFFFFFF));
  return "q" + std::string(Hex) + "n" + std::to_string(Index) + "_";
}

const std::vector<std::string> &execKernels() {
  // Division-free lift_quick kernels covering every output rank: an
  // elementwise max, an outer product, a column reduction, plain and affine
  // matrix-vector products, a matrix-matrix product, a rank-3 contraction
  // and a scalar dot product.
  static const std::vector<std::string> Names = {
      "blas_gemm",  "dsp_matvec",        "blas_dot",    "misc_affine",
      "relu_forward", "dsp_ten3_contract", "dsp_outer", "misc_colsum"};
  return Names;
}

ExecPayload makeExecPayload(const bench::Benchmark &B, uint64_t Seed,
                            uint64_t Index) {
  ExecPayload P;
  P.Kernel = B.Name;
  SplitMix R(mix(mix(Seed, 0xE7EC), Index));

  // One extent for every size parameter, chosen so the largest operand
  // holds roughly a thousand cells.
  size_t MaxRank = 0;
  for (const bench::ArgSpec &A : B.Args)
    MaxRank = std::max(MaxRank, A.Shape.size());
  static const int64_t Extent[] = {1, 256, 24, 10, 6};
  int64_t S = Extent[std::min<size_t>(MaxRank, 4)];
  for (const bench::ArgSpec &A : B.Args)
    if (A.K == bench::ArgSpec::Kind::SizeScalar)
      P.Sizes[A.Name] = S;

  cfront::ExecEnv<double> Env;
  Env.IntScalars = P.Sizes;
  std::string OutName;
  for (const bench::ArgSpec &A : B.Args) {
    if (A.K == bench::ArgSpec::Kind::Array) {
      std::vector<int64_t> Shape = validate::resolveShape(A, P.Sizes);
      int64_t Cells = 1;
      for (int64_t D : Shape)
        Cells *= D;
      std::vector<double> Values(static_cast<size_t>(Cells), 0.0);
      if (A.IsOutput) {
        OutName = A.Name;
        P.OutShape = Shape;
      } else {
        for (double &V : Values)
          V = static_cast<double>(static_cast<int64_t>(R.below(7)) - 3);
        P.Arrays[A.Name] = Values;
      }
      Env.Arrays[A.Name] = std::move(Values);
    } else if (A.K == bench::ArgSpec::Kind::NumScalar) {
      double V = static_cast<double>(1 + R.below(3));
      P.Scalars[A.Name] = V;
      Env.NumScalars[A.Name] = V;
    }
  }
  cfront::CParseResult Parsed = cfront::parseCFunction(B.CSource);
  if (!Parsed.ok()) {
    P.Error = "C parse error: " + Parsed.Error;
    return P;
  }
  cfront::ExecStatus St = cfront::runCFunction(*Parsed.Function, Env);
  if (!St.Ok) {
    P.Error = "reference run failed: " + St.Error;
    return P;
  }
  P.Expected = Env.Arrays[OutName];
  return P;
}

const char *kindName(RequestKind K) {
  switch (K) {
  case RequestKind::Hit:
    return "hit";
  case RequestKind::Cold:
    return "cold";
  case RequestKind::Exec:
    return "exec";
  }
  return "?";
}

namespace {

std::string batchFrame(int64_t Id, Json Item) {
  Json Frame = Json::object();
  Frame.set("v", Json::integer(2));
  Frame.set("id", Json::integer(Id));
  Json Items = Json::array();
  Items.push(std::move(Item));
  Frame.set("requests", std::move(Items));
  return Frame.dump();
}

std::string execFrame(int64_t Id, const ExecPayload &P) {
  Json Sizes = Json::object();
  for (const auto &KV : P.Sizes)
    Sizes.set(KV.first, Json::integer(KV.second));
  Json Inputs = Json::object();
  for (const auto &KV : P.Arrays) {
    Json A = Json::array();
    for (double V : KV.second)
      A.push(Json::integer(static_cast<int64_t>(V)));
    Inputs.set(KV.first, std::move(A));
  }
  for (const auto &KV : P.Scalars)
    Inputs.set(KV.first, Json::integer(static_cast<int64_t>(KV.second)));
  Json Exec = Json::object();
  Exec.set("name", Json::str(P.Kernel));
  Exec.set("sizes", std::move(Sizes));
  Exec.set("inputs", std::move(Inputs));
  Json Frame = Json::object();
  Frame.set("v", Json::integer(2));
  Frame.set("id", Json::integer(Id));
  Frame.set("execute", std::move(Exec));
  return Frame.dump();
}

} // namespace

std::vector<ServeRequest> ServeMix::block(uint64_t Block) const {
  const size_t P = ColdKernels.size();
  std::vector<ServeRequest> Out;
  Out.reserve(blockSize());
  std::vector<size_t> HitOrder = seededOrder(HitKernels.size(), Seed,
                                             0x1000 + Block);
  for (size_t I = 0; I < 3 * P; ++I) {
    ServeRequest R;
    R.Kind = RequestKind::Hit;
    // Successive blocks continue the cycle through the hit set, so every
    // hit kernel recurs at the same rate.
    size_t Slot = (Block * 3 * P + I) % HitKernels.size();
    R.Kernel = HitKernels[HitOrder[Slot]];
    Out.push_back(std::move(R));
  }
  for (size_t I = 0; I < P; ++I) {
    ServeRequest R;
    R.Kind = RequestKind::Cold;
    R.Kernel = ColdKernels[I];
    R.Prefix = renamePrefix(Seed, Block * P + I);
    Out.push_back(std::move(R));
  }
  for (size_t I = 0; I < P; ++I) {
    ServeRequest R;
    R.Kind = RequestKind::Exec;
    R.ExecIndex = static_cast<int>((Block * P + I) % Payloads.size());
    R.Kernel = Payloads[static_cast<size_t>(R.ExecIndex)].Kernel;
    Out.push_back(std::move(R));
  }
  std::vector<size_t> Order = seededOrder(Out.size(), Seed, 0x2000 + Block);
  std::vector<ServeRequest> Shuffled;
  Shuffled.reserve(Out.size());
  int64_t Id = static_cast<int64_t>(Block * blockSize());
  for (size_t I : Order) {
    ServeRequest R = std::move(Out[I]);
    R.Id = Id++;
    if (R.Kind == RequestKind::Hit) {
      Json Item = Json::object();
      Item.set("name", Json::str(R.Kernel));
      R.Frame = batchFrame(R.Id, std::move(Item));
    } else if (R.Kind == RequestKind::Cold) {
      Json Item = Json::object();
      Item.set("kernel", Json::str(renameIdentifiers(
                             bench::findBenchmark(R.Kernel)->CSource,
                             R.Prefix)));
      Item.set("name", Json::str(R.Kernel));
      R.Frame = batchFrame(R.Id, std::move(Item));
    } else {
      R.Frame = execFrame(R.Id, Payloads[static_cast<size_t>(R.ExecIndex)]);
    }
    Shuffled.push_back(std::move(R));
  }
  return Shuffled;
}

ServeMix makeServeMix(const KernelSplit &Split,
                      const std::vector<std::string> &ColdPool, uint64_t Seed,
                      std::string &Error) {
  ServeMix M;
  M.Seed = Seed;
  M.HitKernels = Split.Quick;
  M.ColdKernels = ColdPool;
  if (M.ColdKernels.empty()) {
    Error = "the inline kernel pool is empty";
    return M;
  }
  // Two input sets per execute kernel, cycled by the requests.
  for (uint64_t Variant = 0; Variant < 2; ++Variant)
    for (const std::string &Name : execKernels()) {
      const bench::Benchmark *B = bench::findBenchmark(Name);
      if (!B) {
        Error = "unknown execute kernel '" + Name + "'";
        return M;
      }
      M.Payloads.push_back(
          makeExecPayload(*B, Seed, M.Payloads.size()));
      if (!M.Payloads.back().Error.empty()) {
        Error = Name + ": " + M.Payloads.back().Error;
        return M;
      }
    }
  return M;
}

std::vector<double> poissonGaps(size_t N, double Rate, uint64_t Seed) {
  SplitMix R(mix(Seed, 0x9015));
  std::vector<double> Gaps(N);
  for (double &G : Gaps)
    G = -std::log(R.unit()) / Rate;
  return Gaps;
}

std::string liftDetail(const core::LiftResult &R) {
  return R.Solved ? taco::printProgram(R.Concrete) : R.FailReason;
}

std::string checkLiftFields(const Expectation &E, bool Solved, int Attempts,
                            int64_t Expansions, const std::string &Detail) {
  std::ostringstream Diff;
  if (Solved != E.Solved)
    Diff << " solved " << Solved << " != " << E.Solved << ";";
  if (Attempts != E.Attempts)
    Diff << " attempts " << Attempts << " != " << E.Attempts << ";";
  if (Expansions != E.Expansions)
    Diff << " expansions " << Expansions << " != " << E.Expansions << ";";
  if (Detail != E.Detail)
    Diff << " detail '" << Detail << "' != '" << E.Detail << "';";
  std::string D = Diff.str();
  return D.empty() ? D : E.Name + ":" + D;
}

std::string checkLift(const Expectation &E, const core::LiftResult &R) {
  return checkLiftFields(E, R.Solved, R.Attempts, R.Expansions,
                         liftDetail(R));
}

std::string readFile(const std::string &Path, bool &Ok) {
  std::ifstream In(Path, std::ios::binary);
  Ok = static_cast<bool>(In);
  std::ostringstream S;
  S << In.rdbuf();
  return S.str();
}

} // namespace liftbench
