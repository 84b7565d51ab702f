//===- liftbench/src/Calibration.cpp - Host speed reference ---------------===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//

#include "Calibration.h"

#include <cstdint>
#include <memory>
#include <queue>
#include <string>
#include <time.h>
#include <unordered_map>
#include <vector>

namespace liftbench {

double processCpuSeconds() {
  timespec T;
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T);
  return static_cast<double>(T.tv_sec) + 1e-9 * static_cast<double>(T.tv_nsec);
}

namespace {

/// Keeps the compiler from dropping the work.
volatile uint64_t Sink;

struct Rng {
  uint64_t S;
  uint64_t next() {
    S ^= S << 13;
    S ^= S >> 7;
    S ^= S << 17;
    return S;
  }
  uint32_t below(uint32_t N) { return static_cast<uint32_t>(next() % N); }
};

struct Node {
  int Op = 0;
  std::unique_ptr<Node> L, R;
};

std::unique_ptr<Node> buildTree(Rng &G, int Depth) {
  auto N = std::make_unique<Node>();
  N->Op = static_cast<int>(G.below(4));
  if (Depth > 0 && G.below(4) != 0) {
    N->L = buildTree(G, Depth - 1);
    if (G.below(2))
      N->R = buildTree(G, Depth - 1);
  }
  return N;
}

uint64_t hashTree(const Node *N) {
  if (!N)
    return 17;
  uint64_t H = static_cast<uint64_t>(N->Op) * 0x9E3779B97F4A7C15ull;
  H ^= hashTree(N->L.get()) + 0x7F4A7C15ull + (H << 6) + (H >> 2);
  H ^= hashTree(N->R.get()) * 31;
  return H;
}

uint64_t trees() {
  Rng G{0x1234567ull};
  uint64_t Acc = 0;
  for (int I = 0; I < 7000; ++I)
    Acc += hashTree(buildTree(G, 7).get());
  return Acc;
}

enum class Op : uint8_t { Load, Mul, Add, Store, Loop };

uint64_t bytecode() {
  // out[i] += a[i] * b[i], as a load/mul/add/store loop per cell.
  const std::vector<Op> Code = {Op::Load, Op::Load, Op::Mul, Op::Load,
                                Op::Add,  Op::Store, Op::Loop};
  std::vector<double> A(64), B(64), Out(64);
  for (size_t I = 0; I < A.size(); ++I) {
    A[I] = static_cast<double>(I % 7);
    B[I] = static_cast<double>(I % 5);
  }
  double Reg[3] = {0, 0, 0};
  for (int Rep = 0; Rep < 4500; ++Rep) {
    size_t Cell = 0;
    int Loads = 0;
    for (size_t Pc = 0; Cell < A.size();) {
      switch (Code[Pc]) {
      case Op::Load:
        Reg[Loads] = Loads == 0 ? A[Cell] : Loads == 1 ? B[Cell] : Out[Cell];
        ++Loads;
        ++Pc;
        break;
      case Op::Mul:
        Reg[0] *= Reg[1];
        ++Pc;
        break;
      case Op::Add:
        Reg[0] += Reg[2];
        ++Pc;
        break;
      case Op::Store:
        Out[Cell] = Reg[0];
        ++Pc;
        break;
      case Op::Loop:
        ++Cell;
        Loads = 0;
        Pc = 0;
        break;
      }
    }
  }
  return static_cast<uint64_t>(Out[63]);
}

uint64_t hashes() {
  Rng G{0xBADC0FFEEull};
  std::unordered_map<std::string, uint64_t> M;
  uint64_t Acc = 0;
  for (int I = 0; I < 45000; ++I) {
    std::string Key = "k" + std::to_string(G.below(8000));
    auto It = M.find(Key);
    if (It == M.end())
      M.emplace(std::move(Key), static_cast<uint64_t>(I));
    else
      Acc += It->second;
  }
  return Acc + M.size();
}

uint64_t queue() {
  Rng G{0xFEEDull};
  std::priority_queue<std::pair<double, uint64_t>> Q;
  uint64_t Acc = 0;
  for (int I = 0; I < 80000; ++I) {
    Q.emplace(static_cast<double>(G.below(1u << 20)), G.next());
    if (I % 3 == 2) {
      Acc += Q.top().second;
      Q.pop();
    }
  }
  return Acc + Q.size();
}

} // namespace

double referenceScale() {
  double Start = processCpuSeconds();
  Sink = trees() + bytecode() + hashes() + queue();
  return ReferenceCalibrationSeconds / (processCpuSeconds() - Start);
}

} // namespace liftbench
