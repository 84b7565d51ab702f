//===- tests/SearchTest.cpp - Weighted A* searches (Alg. 1 & 2) -----------===//

#include "search/BottomUp.h"
#include "search/TopDown.h"

#include "analysis/KernelModel.h"
#include "benchsuite/Benchmark.h"
#include "cfront/Parser.h"
#include "grammar/DimensionList.h"
#include "grammar/Template.h"
#include "llm/Prompt.h"
#include "llm/ResponseParser.h"
#include "llm/SimulatedLlm.h"
#include "search/CostModel.h"
#include "search/Frontier.h"
#include "search/Penalty.h"
#include "search/TemplateState.h"
#include "taco/Parser.h"
#include "taco/Printer.h"
#include "taco/Semantics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>

using namespace stagg;
using namespace stagg::search;
using namespace stagg::grammar;

namespace {

TemplateGrammar makeGrammar(std::initializer_list<const char *> Sources,
                            int LhsDim,
                            GrammarOptions Options = GrammarOptions()) {
  std::vector<Templatized> T;
  for (const char *S : Sources) {
    taco::ParseResult R = taco::parseTacoProgram(S);
    EXPECT_TRUE(R.ok()) << S;
    T.push_back(templatize(*R.Prog));
  }
  T = dedupTemplates(T);
  return buildTemplateGrammar(T, predictDimensionList(T, LhsDim), LhsDim,
                              Options);
}

/// Probe accepting exactly one printed template.
TemplateProbe accepting(const std::string &Wanted) {
  return [Wanted](const taco::Program &P) {
    return taco::printProgram(P) == Wanted;
  };
}

} // namespace

TEST(CostModelTest, HeuristicChargesAreFinite) {
  TemplateGrammar G = makeGrammar({"r(i) = m(i,j) * v(j)"}, 1);
  CostModel Costs(G);
  EXPECT_GT(Costs.holeCharge(), 0);
  EXPECT_TRUE(std::isfinite(Costs.holeCharge()));
  EXPECT_TRUE(std::isfinite(Costs.opHoleCharge()));
  EXPECT_TRUE(std::isfinite(Costs.minTensorCost(1)));
  EXPECT_TRUE(std::isinf(Costs.minTensorCost(3))); // No 3-D rules.
}

TEST(CostModelTest, ConstCostInfiniteWithoutConstRule) {
  TemplateGrammar G = makeGrammar({"r(i) = m(i,j) * v(j)"}, 1);
  CostModel Costs(G);
  EXPECT_TRUE(std::isinf(Costs.costExprConst()));
}

TEST(TemplateState, LeftmostExpansionOrder) {
  TemplateGrammar G = makeGrammar({"r(i) = m(i) * v(i)"}, 1);
  const grammar::TensorRule &Rule = G.TensorRules.front();
  SymbolTable Symbols(G);
  DerivationPool Pool(Symbols);

  DerivationState *Root = Pool.root();
  ASSERT_NE(Root->leftmost(), nullptr);
  EXPECT_EQ(Root->leftmost()->K, OpenSlot::Kind::Expr);
  EXPECT_EQ(Root->leftmost()->Depth, 1);

  // EXPR OP EXPR: the left hole is leftmost, then the op slot, then the
  // right hole, all one level down.
  DerivationState *Bin = Pool.derive(Root, Production::bin());
  const OpenSlot *Slot = Bin->leftmost();
  ASSERT_NE(Slot, nullptr);
  EXPECT_EQ(Slot->K, OpenSlot::Kind::Expr);
  EXPECT_EQ(Slot->Depth, 2);
  ASSERT_NE(Slot->Next, nullptr);
  EXPECT_EQ(Slot->Next->K, OpenSlot::Kind::Op);
  ASSERT_NE(Slot->Next->Next, nullptr);
  EXPECT_EQ(Slot->Next->Next->K, OpenSlot::Kind::Expr);
  EXPECT_EQ(Slot->Next->Next->Next, nullptr);
  EXPECT_EQ(Bin->metrics().Depth, 2);

  // Fill the left child: now the op slot is leftmost.
  DerivationState *Left = Pool.derive(Bin, Production::leaf(Rule));
  ASSERT_NE(Left->leftmost(), nullptr);
  EXPECT_EQ(Left->leftmost()->K, OpenSlot::Kind::Op);

  DerivationState *Op = Pool.derive(Left, Production::op(taco::BinOpKind::Mul));
  ASSERT_NE(Op->leftmost(), nullptr);
  EXPECT_EQ(Op->leftmost()->K, OpenSlot::Kind::Expr);
  EXPECT_EQ(Op->leftmost(), Slot->Next->Next); // Shared with the Bin state.

  // Siblings share their parent: a second child leaves the first intact.
  DerivationState *Done = Pool.derive(Op, Production::leaf(Rule));
  DerivationState *Other = Pool.derive(Op, Production::bin());
  EXPECT_EQ(Done->leftmost(), nullptr);
  EXPECT_TRUE(Done->metrics().Complete);
  EXPECT_EQ(Done->parent(), Other->parent());
  EXPECT_EQ(taco::printProgram(taco::Program(G.Lhs, treeToExpr(*Done))),
            "a(i) = b(i) * b(i)");
  EXPECT_EQ(Other->metrics().Depth, 3);
  for (DerivationState *S : {Root, Bin, Left, Op, Done, Other})
    Pool.release(S);
}

TEST(TemplateState, ReleasedStatesAreRecycled) {
  TemplateGrammar G = makeGrammar({"r(i) = m(i) + v(i)"}, 1);
  SymbolTable Symbols(G);
  DerivationPool Pool(Symbols);
  DerivationState *Root = Pool.root();
  DerivationState *Child = Pool.derive(Root, Production::bin());
  Pool.release(Root); // The child still holds the root.
  EXPECT_EQ(Child->parent(), Root);
  Pool.release(Child); // Frees the child, then the root.
  DerivationState *Again = Pool.root();
  EXPECT_TRUE(Again == Root || Again == Child);
  Pool.release(Again);
}

TEST(TopDown, FindsMatVecTemplate) {
  TemplateGrammar G = makeGrammar({"r(i) = m(i,j) * v(j)",
                                   "r(i) = m(j,i) * v(j)"},
                                  1);
  SearchConfig Config;
  SearchResult R = runTopDown(G, Config, accepting("a(i) = b(i,j) * c(j)"));
  ASSERT_TRUE(R.Solved) << R.FailReason;
  EXPECT_EQ(taco::printProgram(R.SolvedTemplate), "a(i) = b(i,j) * c(j)");
  EXPECT_GT(R.Attempts, 0);
}

TEST(TopDown, FindsParenthesizedTemplate) {
  TemplateGrammar G = makeGrammar({"r(i) = (m(i) + v(i)) * w(i)",
                                   "r(i) = m(i) + v(i) * w(i)"},
                                  1);
  SearchConfig Config;
  SearchResult R =
      runTopDown(G, Config, accepting("a(i) = (b(i) + c(i)) * d(i)"));
  EXPECT_TRUE(R.Solved) << R.FailReason;
}

TEST(TopDown, HigherProbabilityTemplatesComeFirst) {
  // Mostly-mul candidates: the * completion must be attempted before /.
  TemplateGrammar G = makeGrammar({"r(i) = m(i) * v(i)",
                                   "r(i) = m(i) * v(j)",
                                   "r(i) = m(j) * v(i)",
                                   "r(i) = m(i) / v(i)"},
                                  1);
  SearchConfig Config;
  std::vector<std::string> Seen;
  TemplateProbe Recorder = [&](const taco::Program &P) {
    Seen.push_back(taco::printProgram(P));
    return false;
  };
  Config.MaxAttempts = 30;
  runTopDown(G, Config, Recorder);
  auto IndexOf = [&](const std::string &S) {
    for (size_t I = 0; I < Seen.size(); ++I)
      if (Seen[I] == S)
        return static_cast<int>(I);
    return 1000;
  };
  EXPECT_LT(IndexOf("a(i) = b(i) * c(i)"), IndexOf("a(i) = b(i) / c(i)"));
}

TEST(TopDown, RespectsDepthLimit) {
  TemplateGrammar G = makeGrammar({"r(i) = m(i) + v(i)"}, 1);
  SearchConfig Config;
  Config.MaxDepth = 1; // Only single leaves are reachable.
  Config.MaxAttempts = 50;
  std::vector<std::string> Seen;
  runTopDown(G, Config, [&](const taco::Program &P) {
    Seen.push_back(taco::printProgram(P));
    return false;
  });
  for (const std::string &S : Seen)
    EXPECT_EQ(S.find('+'), std::string::npos) << S;
}

TEST(TopDown, EmptyGrammarFailsGracefully) {
  TemplateGrammar Empty;
  SearchConfig Config;
  SearchResult R = runTopDown(Empty, Config, accepting("x"));
  EXPECT_FALSE(R.Solved);
  EXPECT_FALSE(R.FailReason.empty());
}

TEST(TopDown, AttemptBudgetStopsSearch) {
  TemplateGrammar G = makeGrammar({"r(i) = m(i) + v(i)"}, 1);
  SearchConfig Config;
  Config.MaxAttempts = 3;
  SearchResult R = runTopDown(G, Config, [](const taco::Program &) {
    return false;
  });
  EXPECT_FALSE(R.Solved);
  EXPECT_LE(R.Attempts, 3);
}

TEST(BottomUp, FindsChainTemplate) {
  TemplateGrammar G = makeGrammar({"r(i) = m(i,j) * v(j)",
                                   "r(i) = m(j,i) * v(j)"},
                                  1);
  SearchConfig Config;
  SearchResult R = runBottomUp(G, Config, accepting("a(i) = b(i,j) * c(j)"));
  ASSERT_TRUE(R.Solved) << R.FailReason;
}

TEST(BottomUp, CannotProduceParenthesizedShapes) {
  TemplateGrammar G = makeGrammar({"r(i) = (m(i) + v(i)) * w(i)"}, 1);
  SearchConfig Config;
  Config.TimeoutSeconds = 0.5;
  SearchResult R =
      runBottomUp(G, Config, accepting("a(i) = (b(i) + c(i)) * d(i)"));
  EXPECT_FALSE(R.Solved);
}

TEST(BottomUp, ChainLengthBoundedByDimensionList) {
  TemplateGrammar G = makeGrammar({"r(i) = m(i) + v(i)"}, 1); // |L| = 3.
  SearchConfig Config;
  Config.MaxAttempts = 500;
  int MaxLeaves = 0;
  runBottomUp(G, Config, [&](const taco::Program &P) {
    MaxLeaves = std::max(MaxLeaves, taco::countLeaves(*P.Rhs));
    return false;
  });
  EXPECT_LE(MaxLeaves, 2);
}

TEST(BottomUp, ProbesOnlyFullLengthChains) {
  // Algorithm 2 validates once the chain holds |L|-1 RHS tensors.
  TemplateGrammar G = makeGrammar({"r(i) = m(i) + v(i)"}, 1); // |L| = 3.
  SearchConfig Config;
  Config.MaxAttempts = 100;
  std::vector<int> LeafCounts;
  runBottomUp(G, Config, [&](const taco::Program &P) {
    LeafCounts.push_back(taco::countLeaves(*P.Rhs));
    return false;
  });
  ASSERT_FALSE(LeafCounts.empty());
  for (int Count : LeafCounts)
    EXPECT_EQ(Count, 2);
}

TEST(BottomUp, SolvesWithEqualProbabilities) {
  GrammarOptions Options;
  Options.EqualProbability = true;
  TemplateGrammar G = makeGrammar({"r(i) = m(i,j) * v(j)"}, 1, Options);
  SearchConfig Config;
  SearchResult R = runBottomUp(G, Config, accepting("a(i) = b(i,j) * c(j)"));
  EXPECT_TRUE(R.Solved) << R.FailReason;
}

TEST(TopDown, SolvesWithFullGrammar) {
  GrammarOptions Options;
  Options.FullGrammar = true;
  Options.EqualProbability = true;
  TemplateGrammar G = makeGrammar({"r(i) = m(i,j) * v(j)"}, 1, Options);
  SearchConfig Config;
  Config.TimeoutSeconds = 10;
  SearchResult R = runTopDown(G, Config, accepting("a(i) = b(i,j) * c(j)"));
  EXPECT_TRUE(R.Solved) << R.FailReason;
  EXPECT_GT(R.Attempts, 0);
}

//===----------------------------------------------------------------------===//
// Reference equivalence: the incremental derivation-state metrics against a
// full walk over the materialized template, on every registry grammar.
//===----------------------------------------------------------------------===//

namespace {

/// The registry kernel's grammar as the pipeline builds it (CLI defaults:
/// ten candidates from the simulated oracle at seed 20250411).
TemplateGrammar registryGrammar(const bench::Benchmark &B,
                                GrammarOptions Options = GrammarOptions()) {
  cfront::CParseResult Parsed = cfront::parseCFunction(B.CSource);
  EXPECT_TRUE(Parsed.ok()) << B.Name;
  if (!Parsed.ok())
    return TemplateGrammar();
  analysis::KernelModel Model = analysis::buildKernelModel(*Parsed.Function);
  llm::SimulatedLlm Oracle(20250411);
  llm::OracleTask Task;
  Task.Query = &B;
  Task.Prompt = llm::buildPrompt(B.CSource, 10);
  Task.NumCandidates = 10;
  llm::ParsedResponses Responses = llm::parseResponses(Oracle.propose(Task));
  std::vector<Templatized> Templates;
  for (const taco::Program &P : Responses.Programs)
    if (taco::checkWellFormed(P).empty())
      Templates.push_back(templatize(P));
  int LhsDim = Model.Summary.LhsDim;
  return buildTemplateGrammar(Templates,
                              predictDimensionList(Templates, LhsDim), LhsDim,
                              Options);
}

/// The canonical-order check as it was before symbols were interned: the
/// distinct symbols per dimension class must be the class's first N
/// symbols (global alphabetical order for the full grammar).
bool referenceCanonicalOrder(const std::vector<std::string> &TensorOrder,
                             const TemplateGrammar &G) {
  if (!G.PositionalSymbols) {
    for (size_t I = 0; I < TensorOrder.size(); ++I)
      if (TensorOrder[I] != tensorSymbolForPosition(static_cast<int>(I) + 2))
        return false;
    return true;
  }
  std::map<int, std::vector<std::string>> ClassSymbols;
  for (size_t Position = 2; Position <= G.DimList.size(); ++Position)
    ClassSymbols[G.DimList[Position - 1]].push_back(
        tensorSymbolForPosition(static_cast<int>(Position)));
  std::map<int, std::vector<std::string>> Used;
  for (const std::string &Symbol : TensorOrder) {
    if (Symbol.size() != 1 || Symbol[0] < 'b')
      return false;
    size_t Position = static_cast<size_t>(Symbol[0] - 'a') + 1;
    if (Position < 2 || Position > G.DimList.size())
      return false;
    Used[G.DimList[Position - 1]].push_back(Symbol);
  }
  for (const auto &[Dim, Sequence] : Used) {
    const std::vector<std::string> &Canon = ClassSymbols[Dim];
    if (Sequence.size() > Canon.size())
      return false;
    for (size_t I = 0; I < Sequence.size(); ++I)
      if (Sequence[I] != Canon[I])
        return false;
  }
  return true;
}

/// Metrics of a partial template by a full walk over its materialized
/// derivation, as the tree-based search computed them on every push.
struct ReferenceMetrics {
  StateMetrics M;
  std::vector<std::string> TensorOrder;
  OpenSlot::Kind FirstOpen = OpenSlot::Kind::Expr;
  int FirstOpenDepth = 0; ///< 0 when the template is complete.

  ReferenceMetrics(const std::vector<Production> &Steps,
                   const TemplateGrammar &G, const SymbolTable &Symbols)
      : Steps(Steps) {
    walk(1);
    M.Complete = M.Holes == 0 && M.OpHoles == 0;
    for (const std::string &Symbol : TensorOrder)
      if (int Id = Symbols.id(Symbol); Id >= 0)
        M.Tensors.Used |= 1u << Id;
    M.Tensors.Canonical = referenceCanonicalOrder(TensorOrder, G);
  }

private:
  void open(OpenSlot::Kind K, int Depth) {
    if (FirstOpenDepth == 0) {
      FirstOpen = K;
      FirstOpenDepth = Depth;
    }
  }

  /// Walks one subtree; returns its rule when the subtree is a lone leaf.
  const TensorRule *walk(int Depth) {
    M.Depth = std::max(M.Depth, Depth);
    if (At == Steps.size()) {
      ++M.Holes;
      open(OpenSlot::Kind::Expr, Depth);
      return nullptr;
    }
    const Production &P = Steps[At++];
    switch (P.K) {
    case Production::Kind::Leaf: {
      ++M.Leaves;
      const TensorRule *R = P.Rule;
      if (R->IsConst) {
        ++M.ConstLeaves;
        return R;
      }
      if (std::find(R->Indices.begin(), R->Indices.end(), "i") !=
          R->Indices.end())
        ++M.TensorsWithI;
      if (std::find(TensorOrder.begin(), TensorOrder.end(), R->Symbol) ==
          TensorOrder.end())
        TensorOrder.push_back(R->Symbol);
      return R;
    }
    case Production::Kind::Bin: {
      const TensorRule *Lhs = walk(Depth + 1);
      bool OpKnown = At < Steps.size();
      taco::BinOpKind Op = taco::BinOpKind::Add;
      if (OpKnown) {
        EXPECT_EQ(Steps[At].K, Production::Kind::Op);
        Op = Steps[At++].Op;
        M.OpsUsed |= opBit(Op);
      } else {
        ++M.OpHoles;
        open(OpenSlot::Kind::Op, Depth + 1);
      }
      const TensorRule *Rhs = walk(Depth + 1);
      if (OpKnown && Op != taco::BinOpKind::Mul && Lhs && Lhs == Rhs &&
          !Lhs->IsConst)
        M.DegenerateOp = true;
      return nullptr;
    }
    case Production::Kind::Max: {
      const TensorRule *Lhs = walk(Depth + 1);
      const TensorRule *Rhs = walk(Depth + 1);
      if (Lhs && Lhs == Rhs && !Lhs->IsConst)
        M.DegenerateOp = true;
      return nullptr;
    }
    case Production::Kind::Op:
      ADD_FAILURE() << "op production outside a binary node";
      return nullptr;
    }
    return nullptr;
  }

  const std::vector<Production> &Steps;
  size_t At = 0;
};

void expectSameMetrics(const StateMetrics &Got, const StateMetrics &Want,
                       const std::string &Where) {
  EXPECT_EQ(Got.Leaves, Want.Leaves) << Where;
  EXPECT_EQ(Got.Holes, Want.Holes) << Where;
  EXPECT_EQ(Got.OpHoles, Want.OpHoles) << Where;
  EXPECT_EQ(Got.Depth, Want.Depth) << Where;
  EXPECT_EQ(Got.ConstLeaves, Want.ConstLeaves) << Where;
  EXPECT_EQ(Got.TensorsWithI, Want.TensorsWithI) << Where;
  EXPECT_EQ(Got.Complete, Want.Complete) << Where;
  EXPECT_EQ(Got.Tensors.Used, Want.Tensors.Used) << Where;
  EXPECT_EQ(Got.Tensors.Canonical, Want.Tensors.Canonical) << Where;
  EXPECT_EQ(Got.OpsUsed, Want.OpsUsed) << Where;
  EXPECT_EQ(Got.DegenerateOp, Want.DegenerateOp) << Where;
}

/// Every ordered selection of distinct symbols from \p Pool, up to \p Max.
void forEachOrder(const std::vector<std::string> &Pool, size_t Max,
                  std::vector<std::string> &Order,
                  const std::function<void()> &Visit) {
  Visit();
  if (Order.size() == Max)
    return;
  for (const std::string &Symbol : Pool) {
    if (std::find(Order.begin(), Order.end(), Symbol) != Order.end())
      continue;
    Order.push_back(Symbol);
    forEachOrder(Pool, Max, Order, Visit);
    Order.pop_back();
  }
}

} // namespace

TEST(TemplateState, IncrementalMetricsMatchFullWalkOnRegistryGrammars) {
  constexpr int64_t Pops = 2000;
  int64_t Audited = 0;
  for (const bench::Benchmark &B : bench::allBenchmarks()) {
    TemplateGrammar G = registryGrammar(B);
    if (G.DimList.empty() || G.TensorRules.empty())
      continue;
    SymbolTable Symbols(G);
    SearchConfig Config;
    Config.MaxExpansions = Pops;
    int Mismatches = 0;
    auto Observer = [&](const DerivationState &State, double Penalty) {
      ++Audited;
      if (Mismatches > 10)
        return; // One kernel's report is enough to debug from.
      std::vector<Production> Steps = derivation(State);
      ReferenceMetrics Ref(Steps, G, Symbols);
      std::string Where = B.Name + " after " + std::to_string(Steps.size()) +
                          " productions";
      expectSameMetrics(State.metrics(), Ref.M, Where);
      double Want = topDownPenalty(Ref.M, G, Config);
      EXPECT_EQ(Penalty, Want) << Where;
      const OpenSlot *Slot = State.leftmost();
      if (Ref.FirstOpenDepth == 0) {
        EXPECT_EQ(Slot, nullptr) << Where;
      } else if (Slot) {
        EXPECT_EQ(Slot->K, Ref.FirstOpen) << Where;
        if (Slot->K == OpenSlot::Kind::Expr) {
          EXPECT_EQ(Slot->Depth, Ref.FirstOpenDepth) << Where;
        }
        int Open = 0;
        for (const OpenSlot *S = Slot; S; S = S->Next)
          ++Open;
        EXPECT_EQ(Open, Ref.M.Holes + Ref.M.OpHoles) << Where;
      } else {
        ADD_FAILURE() << Where << ": no open nonterminal";
      }
      if (::testing::Test::HasFailure())
        ++Mismatches;
    };
    std::unique_ptr<CandidateStream> Stream =
        makeTopDownStream(G, Config, Observer);
    Candidate Out;
    while (Stream->next(Out)) {
    }
    EXPECT_LE(Stream->expansions(), Pops) << B.Name;
  }
  EXPECT_GT(Audited, 0);
}

TEST(TemplateState, InternedCanonicalOrderMatchesMapCheck) {
  int64_t Checked = 0;
  for (const bench::Benchmark &B : bench::allBenchmarks()) {
    for (bool Full : {false, true}) {
      GrammarOptions Options;
      Options.FullGrammar = Full;
      TemplateGrammar G = registryGrammar(B, Options);
      if (G.DimList.empty())
        continue;
      SymbolTable Symbols(G);
      // The grammar's symbols, one past its last position, and symbols no
      // grammar positions.
      std::vector<std::string> Pool = {"a", "Const"};
      for (size_t Position = 2; Position <= G.DimList.size() + 1 &&
                                Position <= 6;
           ++Position)
        Pool.push_back(tensorSymbolForPosition(static_cast<int>(Position)));
      std::vector<std::string> Order;
      forEachOrder(Pool, 4, Order, [&] {
        SymbolOrder Interned;
        for (const std::string &Symbol : Order)
          Symbols.note(Interned, Symbols.id(Symbol));
        ++Checked;
        EXPECT_EQ(Interned.Canonical, referenceCanonicalOrder(Order, G))
            << B.Name << (Full ? " (full grammar)" : "") << ": "
            << ::testing::PrintToString(Order);
      });
    }
  }
  EXPECT_GT(Checked, 0);
}
