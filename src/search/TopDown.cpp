//===- search/TopDown.cpp - Top-down weighted A* enumeration --------------===//

#include "search/TopDown.h"

#include "search/CostModel.h"
#include "search/Frontier.h"
#include "search/Penalty.h"
#include "search/TemplateState.h"
#include "support/Timer.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

using namespace stagg;
using namespace stagg::search;

namespace {

/// A queued state. The item holds one reference to State.
struct Item {
  double F = 0;
  double C = 0;
  uint64_t Seq = 0;
  DerivationState *State = nullptr;
};

/// Min-heap ordering on F with FIFO tie-breaking (std::*_heap builds a
/// max-heap, so the comparison is inverted).
struct ItemGreater {
  bool operator()(const Item &A, const Item &B) const {
    if (A.F != B.F)
      return A.F > B.F;
    return A.Seq > B.Seq;
  }
};

/// Algorithm 1 as a resumable generator: the probe call sites of the old
/// serial loop become yield points. Probe outcomes never touched the heap,
/// so the pop/expand order — and with it every counter — is exactly the
/// serial loop's regardless of who consumes the stream.
class TopDownEnumerator : public CandidateStream {
public:
  TopDownEnumerator(const grammar::TemplateGrammar &G,
                    const SearchConfig &Config, StateObserver Observer = {})
      : G(G), Config(Config), Costs(G), Symbols(G), Pool(Symbols),
        Observer(std::move(Observer)) {
    if (G.DimList.empty() || G.TensorRules.empty()) {
      Done = true;
      Reason = "empty grammar (no usable LLM candidates)";
      return;
    }
    admit(0, Pool.root());
  }

  bool next(Candidate &Out) override {
    if (Done)
      return false;
    while (!Heap.empty()) {
      if (Clock.seconds() > Config.TimeoutSeconds)
        return fail("timeout");
      if (Expansions >= Config.MaxExpansions ||
          Attempts >= Config.MaxAttempts)
        return fail("budget exhausted");

      std::pop_heap(Heap.begin(), Heap.end(), Cmp);
      Item Current = Heap.back();
      Heap.pop_back();
      ++Expansions;
      bool Yield = expand(Current);
      if (Yield) {
        // Complete template: yield it for validation + verification.
        Out.Ticket = NextTicket++;
        Out.Program = taco::Program(G.Lhs, treeToExpr(*Current.State));
        Out.AttemptsAtYield = ++Attempts;
        Out.ExpansionsAtYield = Expansions;
      }
      Pool.release(Current.State);
      if (Yield)
        return true;
    }
    return fail("search space exhausted");
  }

  const std::string &failReason() const override { return Reason; }
  int attempts() const override { return Attempts; }
  int64_t expansions() const override { return Expansions; }
  double seconds() const override { return Clock.seconds(); }

private:
  /// Pushes the children of a popped state, or returns true when the state
  /// is a complete template to yield.
  bool expand(const Item &Current) {
    DerivationState *State = Current.State;
    if (State->metrics().Depth > Config.MaxDepth)
      return false; // Algorithm 1, line 5.

    const OpenSlot *Slot = State->leftmost();
    if (!Slot)
      return true;

    if (Slot->K == OpenSlot::Kind::Op) {
      static const taco::BinOpKind Ops[] = {
          taco::BinOpKind::Add, taco::BinOpKind::Sub, taco::BinOpKind::Mul,
          taco::BinOpKind::Div};
      for (taco::BinOpKind Op : Ops)
        push(Current.C + Costs.costOp(Op), State, Production::op(Op));
      return false;
    }

    // EXPR hole: TENSOR / CONSTANT / EXPR OP EXPR.
    for (const grammar::TensorRule &Rule : G.TensorRules) {
      double RuleCost = Rule.IsConst ? Costs.costExprConst()
                                     : Costs.costExprTensor() + Rule.Cost;
      push(Current.C + RuleCost, State, Production::leaf(Rule));
    }
    push(Current.C + Costs.costExprBin(), State, Production::bin());
    // EXPR -> max(EXPR, EXPR), only when candidates supplied the
    // evidence — max-free grammars expand exactly the pre-max state space
    // in the same order.
    if (G.HasMaxRule)
      push(Current.C + Costs.costExprMax(), State, Production::max());
    return false;
  }

  void push(double C, DerivationState *Parent, const Production &P) {
    admit(C, Pool.derive(Parent, P));
  }

  /// Queues \p State (taking over the caller's reference) unless its
  /// penalty or cost is infinite.
  void admit(double C, DerivationState *State) {
    const StateMetrics &M = State->metrics();
    double Penalty = topDownPenalty(M, G, Config);
    if (Observer)
      Observer(*State, Penalty);
    if (std::isinf(Penalty)) {
      Pool.release(State);
      return;
    }
    double G2 = M.Holes * Costs.holeCharge() + M.OpHoles * Costs.opHoleCharge();
    Item It;
    It.F = C + G2 + Penalty;
    It.C = C;
    It.Seq = NextSeq++;
    It.State = State;
    if (std::isinf(It.F)) {
      Pool.release(State);
      return;
    }
    Heap.push_back(It);
    std::push_heap(Heap.begin(), Heap.end(), Cmp);
  }

  bool fail(const char *Why) {
    Done = true;
    Reason = Why;
    return false;
  }

  const grammar::TemplateGrammar &G;
  const SearchConfig &Config;
  Timer Clock;
  CostModel Costs;
  SymbolTable Symbols;
  DerivationPool Pool;
  StateObserver Observer;
  std::vector<Item> Heap;
  ItemGreater Cmp;
  uint64_t NextSeq = 0;
  uint64_t NextTicket = 0;
  int Attempts = 0;
  int64_t Expansions = 0;
  bool Done = false;
  std::string Reason;
};

} // namespace

std::unique_ptr<CandidateStream>
search::makeTopDownStream(const grammar::TemplateGrammar &G,
                          const SearchConfig &Config,
                          StateObserver Observer) {
  return std::make_unique<TopDownEnumerator>(G, Config, std::move(Observer));
}

SearchResult search::runTopDown(const grammar::TemplateGrammar &G,
                                const SearchConfig &Config,
                                const TemplateProbeFactory &Factory) {
  TopDownEnumerator Stream(G, Config);
  return runFrontier(Stream, Config, Factory);
}

SearchResult search::runTopDown(const grammar::TemplateGrammar &G,
                                const SearchConfig &Config,
                                const TemplateProbe &Probe) {
  return runTopDown(G, Config,
                    TemplateProbeFactory([&Probe](int) { return Probe; }));
}
