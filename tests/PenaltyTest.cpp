//===- tests/PenaltyTest.cpp - Penalty functions (§5.1, §5.2) -------------===//

#include "search/Penalty.h"

#include "grammar/DimensionList.h"
#include "taco/Parser.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

using namespace stagg;
using namespace stagg::search;
using namespace stagg::grammar;

namespace {

/// Builds a grammar from candidate sources (shared fixture helper).
TemplateGrammar makeGrammar(std::initializer_list<const char *> Sources,
                            int LhsDim) {
  std::vector<Templatized> T;
  for (const char *S : Sources) {
    taco::ParseResult R = taco::parseTacoProgram(S);
    EXPECT_TRUE(R.ok()) << S;
    T.push_back(templatize(*R.Prog));
  }
  T = dedupTemplates(T);
  return buildTemplateGrammar(T, predictDimensionList(T, LhsDim), LhsDim,
                              GrammarOptions());
}

StateMetrics metricsFor(const TemplateGrammar &G, const std::string &Expr,
                        bool Complete = true) {
  SymbolTable Symbols(G);
  StateMetrics M;
  taco::ParseExprResult R = taco::parseTacoExpr(Expr);
  EXPECT_TRUE(R.ok()) << Expr;
  M.Complete = Complete;
  M.Leaves = taco::countLeaves(*R.E);
  std::function<void(const taco::Expr &)> Scan = [&](const taco::Expr &E) {
    switch (E.kind()) {
    case taco::Expr::Kind::Access: {
      const auto &A = taco::exprCast<taco::AccessExpr>(E);
      for (const std::string &V : A.indices())
        if (V == "i") {
          ++M.TensorsWithI;
          break;
        }
      Symbols.note(M.Tensors, Symbols.id(A.name()));
      return;
    }
    case taco::Expr::Kind::Constant:
      ++M.ConstLeaves;
      return;
    case taco::Expr::Kind::Binary: {
      const auto &B = taco::exprCast<taco::BinaryExpr>(E);
      M.OpsUsed |= opBit(B.op());
      Scan(B.lhs());
      Scan(B.rhs());
      return;
    }
    default:
      return;
    }
  };
  Scan(*R.E);
  return M;
}

/// Folds \p Symbols, in order, into an interned SymbolOrder.
SymbolOrder orderOf(const TemplateGrammar &G,
                    std::initializer_list<const char *> Symbols) {
  SymbolTable Table(G);
  SymbolOrder Order;
  for (const char *Symbol : Symbols)
    Table.note(Order, Table.id(Symbol));
  return Order;
}

} // namespace

TEST(Penalty, CanonicalTensorOrder) {
  // The full grammar: every symbol is equivalent, so order is global.
  std::vector<Templatized> T = {
      templatize(*taco::parseTacoProgram("r(i) = m(i) + v(i)").Prog)};
  GrammarOptions Full;
  Full.FullGrammar = true;
  TemplateGrammar G =
      buildTemplateGrammar(T, predictDimensionList(T, 1), 1, Full);
  EXPECT_TRUE(orderOf(G, {}).Canonical);
  EXPECT_TRUE(orderOf(G, {"b"}).Canonical);
  EXPECT_TRUE(orderOf(G, {"b", "c", "d"}).Canonical);
  EXPECT_TRUE(orderOf(G, {"b", "c", "b", "d"}).Canonical);
  EXPECT_FALSE(orderOf(G, {"c"}).Canonical);
  EXPECT_FALSE(orderOf(G, {"b", "d"}).Canonical);
  EXPECT_FALSE(orderOf(G, {"c", "b"}).Canonical);
  EXPECT_FALSE(orderOf(G, {"b", "a"}).Canonical);
  EXPECT_EQ(orderOf(G, {"b", "d", "b"}).Used, 0b101u);
}

TEST(Penalty, CanonicalOrderIsPerDimensionClass) {
  // L = [1, 0, 1, 1]: `b` is 0-D, `c` and `d` are 1-D.
  TemplateGrammar G = makeGrammar({"r(i) = 2 * m(i) + v(i)"}, 1);
  ASSERT_EQ(G.DimList, (std::vector<int>{1, 0, 1, 1}));
  EXPECT_TRUE(orderOf(G, {"c"}).Canonical); // `c` is the first 1-D symbol.
  EXPECT_TRUE(orderOf(G, {"c", "b", "d"}).Canonical);
  EXPECT_FALSE(orderOf(G, {"d"}).Canonical);
  EXPECT_FALSE(orderOf(G, {"d", "c"}).Canonical);
  EXPECT_FALSE(orderOf(G, {"e"}).Canonical); // Beyond the dimension list.
}

TEST(Penalty, A2ChargesWrongLength) {
  TemplateGrammar G = makeGrammar({"r(i) = m(i,j) * v(j)"}, 1); // |L| = 3.
  SearchConfig Config;
  Config.PenaltyA5 = false; // Isolate a2 (a single leaf also violates a5).
  StateMetrics TooShort = metricsFor(G, "b(i,j)");
  EXPECT_EQ(topDownPenalty(TooShort, G, Config), 100);
  StateMetrics Right = metricsFor(G, "b(i,j) * c(j)");
  EXPECT_EQ(topDownPenalty(Right, G, Config), 0);
}

TEST(Penalty, A2SkippedWhileStillReachable) {
  TemplateGrammar G = makeGrammar({"r(i) = m(i,j) * v(j)"}, 1);
  SearchConfig Config;
  StateMetrics Partial = metricsFor(G, "b(i,j)", /*Complete=*/false);
  Partial.Holes = 1; // One hole can still complete the template.
  EXPECT_EQ(topDownPenalty(Partial, G, Config), 0);
}

TEST(Penalty, A3PrunesOutOfOrderTensors) {
  TemplateGrammar G = makeGrammar({"r(i) = m(i) + v(i)"}, 1);
  SearchConfig Config;
  StateMetrics Bad = metricsFor(G, "c(i) + b(i)");
  EXPECT_TRUE(std::isinf(topDownPenalty(Bad, G, Config)));
  Config.PenaltyA3 = false;
  EXPECT_FALSE(std::isinf(topDownPenalty(Bad, G, Config)));
}

TEST(Penalty, A4PrunesDegenerateCompleteTemplates) {
  TemplateGrammar G = makeGrammar({"r(i) = m(i) - v(i)"}, 1);
  SearchConfig Config;
  StateMetrics M = metricsFor(G, "b(i) - c(i)");
  M.DegenerateOp = true; // e.g. b(i) - b(i).
  EXPECT_TRUE(std::isinf(topDownPenalty(M, G, Config)));
  M.Complete = false; // Partial templates are not charged by a4.
  EXPECT_FALSE(std::isinf(topDownPenalty(M, G, Config)));
}

TEST(Penalty, A5RequiresHalfTheLearnedOps) {
  // Candidates use four operators with solid evidence each; a complete
  // template must employ at least floor(4/2) = 2 of them.
  TemplateGrammar G = makeGrammar({"r(i) = m(i) + v(i) + v(i)",
                                   "r(i) = m(i) * v(i) * v(i)",
                                   "r(i) = m(i) - v(i) - v(i)",
                                   "r(i) = m(i) / v(i) / v(i)"},
                                  1);
  ASSERT_EQ(G.LearnedOps.size(), 4u);
  SearchConfig Config;
  Config.PenaltyA2 = false; // Isolate a5.
  StateMetrics OneOp = metricsFor(G, "b(i) + c(i)");
  EXPECT_TRUE(std::isinf(topDownPenalty(OneOp, G, Config)));
  StateMetrics TwoOps = metricsFor(G, "b(i) + c(i) * c(j)");
  EXPECT_FALSE(std::isinf(topDownPenalty(TwoOps, G, Config)));
}

TEST(Penalty, A5IgnoresNoiseOperators) {
  // A single spurious '+' among mostly-'*' candidates must not force every
  // solution to use two operators.
  TemplateGrammar G = makeGrammar({"r(i) = m(i,j) * v(j)",
                                   "r(i) = m(j,i) * v(j)",
                                   "r(i) = m(i,j) + v(j)"},
                                  1);
  ASSERT_EQ(G.LearnedOps.size(), 1u);
  SearchConfig Config;
  StateMetrics OneOp = metricsFor(G, "b(i,j) * c(j)");
  EXPECT_FALSE(std::isinf(topDownPenalty(OneOp, G, Config)));
}

TEST(Penalty, A1BiasesConstantGrammars) {
  TemplateGrammar G = makeGrammar({"r(i) = m(i) * 2 + v(i) + w(i)"}, 1);
  ASSERT_TRUE(G.HasConstRule);
  SearchConfig Config;
  // Four leaves, no constant, single i-indexed tensor counted twice is fine;
  // missing constant triggers the +10 bias.
  StateMetrics M = metricsFor(G, "b(i) + c(i) + d(i) + b(j)");
  double P = topDownPenalty(M, G, Config);
  EXPECT_GE(P, 10);
  Config.PenaltyA1 = false;
  EXPECT_LT(topDownPenalty(M, G, Config), P);
}

TEST(Penalty, BottomUpAlphabeticalOrderIsSoft) {
  TemplateGrammar G = makeGrammar({"r(i) = m(i) + v(i)"}, 1);
  SearchConfig Config;
  OpSet Add = opBit(taco::BinOpKind::Add);
  double Bad = bottomUpPenalty(orderOf(G, {"c", "b"}), Add, 2, G, Config);
  EXPECT_EQ(Bad, 100);
  double Good = bottomUpPenalty(orderOf(G, {"b", "c"}), Add, 2, G, Config);
  EXPECT_EQ(Good, 0);
}

TEST(Penalty, BottomUpB2PrunesOpPoorFullChains) {
  TemplateGrammar G = makeGrammar({"r(i) = m(i) + v(i) + v(i)",
                                   "r(i) = m(i) * v(i) * v(i)",
                                   "r(i) = m(i) - v(i) - v(i)",
                                   "r(i) = m(i) / v(i) / v(i)"},
                                  1);
  ASSERT_EQ(G.LearnedOps.size(), 4u);
  ASSERT_EQ(G.DimList.size(), 4u); // Occurrence-counted: [1,1,1,1].
  SearchConfig Config;
  // Full-length chain with a single distinct op < floor(4/2).
  SymbolOrder Chain = orderOf(G, {"b", "c", "d"});
  OpSet Add = opBit(taco::BinOpKind::Add);
  double P = bottomUpPenalty(Chain, Add, 3, G, Config);
  EXPECT_TRUE(std::isinf(P));
  Config.PenaltyB2 = false;
  EXPECT_FALSE(std::isinf(bottomUpPenalty(Chain, Add, 3, G, Config)));
}

TEST(Penalty, DropAllSwitches) {
  SearchConfig Config;
  Config.dropAllTopDownPenalties();
  EXPECT_FALSE(Config.PenaltyA1 || Config.PenaltyA2 || Config.PenaltyA3 ||
               Config.PenaltyA4 || Config.PenaltyA5);
  Config.dropAllBottomUpPenalties();
  EXPECT_FALSE(Config.PenaltyB1 || Config.PenaltyB2);
}
