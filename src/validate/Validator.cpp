//===- validate/Validator.cpp - Template validation (§6) ------------------===//

#include "validate/Validator.h"

#include "taco/Einsum.h"
#include "taco/Semantics.h"
#include "vm/Compiler.h"
#include "vm/Interpreter.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <functional>
#include <string_view>

using namespace stagg;
using namespace stagg::validate;
using namespace stagg::taco;

taco::Program validate::instantiateTemplate(
    const Program &Template,
    const std::map<std::string, std::string> &SymbolBinding,
    const std::vector<int64_t> &ConstantValues) {
  size_t ConstAt = 0;
  std::function<ExprPtr(const Expr &)> Rewrite =
      [&](const Expr &E) -> ExprPtr {
    switch (E.kind()) {
    case Expr::Kind::Access: {
      const auto &A = exprCast<AccessExpr>(E);
      auto It = SymbolBinding.find(A.name());
      std::string Name = It != SymbolBinding.end() ? It->second : A.name();
      return std::make_unique<AccessExpr>(Name, A.indices());
    }
    case Expr::Kind::Constant: {
      const auto &C = exprCast<ConstantExpr>(E);
      if (!C.isSymbolic())
        return C.clone();
      assert(ConstAt < ConstantValues.size() && "missing constant value");
      return std::make_unique<ConstantExpr>(ConstantValues[ConstAt++]);
    }
    case Expr::Kind::Binary: {
      const auto &B = exprCast<BinaryExpr>(E);
      ExprPtr Lhs = Rewrite(B.lhs());
      ExprPtr Rhs = Rewrite(B.rhs());
      return std::make_unique<BinaryExpr>(B.op(), std::move(Lhs),
                                          std::move(Rhs));
    }
    case Expr::Kind::Negate:
      return std::make_unique<NegateExpr>(
          Rewrite(exprCast<NegateExpr>(E).operand()));
    case Expr::Kind::Max: {
      const auto &M = exprCast<MaxExpr>(E);
      ExprPtr Lhs = Rewrite(M.lhs());
      ExprPtr Rhs = Rewrite(M.rhs());
      return std::make_unique<MaxExpr>(std::move(Lhs), std::move(Rhs));
    }
    }
    return nullptr;
  };

  auto LhsIt = SymbolBinding.find(Template.Lhs.name());
  AccessExpr Lhs(LhsIt != SymbolBinding.end() ? LhsIt->second
                                              : Template.Lhs.name(),
                 Template.Lhs.indices());
  return Program(std::move(Lhs),
                 Template.Rhs ? Rewrite(*Template.Rhs) : nullptr);
}

/// The keys are packed end to end in one buffer and found through an
/// open-addressing table of key numbers, so an entry costs its text and a
/// few bytes of index instead of a hash node and a heap string. The largest
/// registry lifts keep a few thousand keys.
class Validator::RejectedKeys {
public:
  size_t size() const { return Ends.size(); }

  bool contains(std::string_view Key) const {
    return !Table.empty() && Table[slot(Key)] != 0;
  }

  /// \p Key must not be present yet.
  void insert(std::string_view Key) {
    if (2 * (Ends.size() + 1) > Table.size()) {
      Table.assign(std::max<size_t>(64, 2 * Table.size()), 0);
      for (uint32_t I = 0; I < Ends.size(); ++I)
        Table[slot(key(I))] = I + 1;
    }
    Text.append(Key);
    Ends.push_back(static_cast<uint32_t>(Text.size()));
    Table[slot(Key)] = static_cast<uint32_t>(Ends.size());
  }

private:
  std::string_view key(uint32_t I) const {
    uint32_t Begin = I == 0 ? 0 : Ends[I - 1];
    return std::string_view(Text).substr(Begin, Ends[I] - Begin);
  }

  /// The slot holding \p Key, or the empty slot where it would go.
  size_t slot(std::string_view Key) const {
    const size_t Mask = Table.size() - 1;
    size_t At = std::hash<std::string_view>()(Key) & Mask;
    while (Table[At] != 0 && key(Table[At] - 1) != Key)
      At = (At + 1) & Mask;
    return At;
  }

  std::string Text;             ///< Every key, end to end.
  std::vector<uint32_t> Ends;   ///< Key I ends at Ends[I] in Text.
  std::vector<uint32_t> Table;  ///< Key number + 1; 0 is empty.
};

Validator::Validator(const bench::Benchmark &B, std::vector<IoExample> Examples,
                     std::vector<int64_t> Constants, bool, bool)
    : B(B), Examples(std::move(Examples)), Constants(std::move(Constants)),
      Rejected(std::make_unique<RejectedKeys>()) {
  // An empty pool would make constant templates uninstantiable even though
  // the grammar can propose them; keep the degenerate default of the source
  // having no literals.
  if (this->Constants.empty())
    this->Constants.push_back(1);

  size_t NumArgs = B.Args.size();
  for (size_t A = 0; A < NumArgs; ++A) {
    const bench::ArgSpec &Arg = B.Args[A];
    if (Arg.IsOutput && OutArg < 0)
      OutArg = static_cast<int>(A);
    size_t Rank = static_cast<size_t>(Arg.rank());
    if (ArgsOfRank.size() <= Rank)
      ArgsOfRank.resize(Rank + 1);
    ArgsOfRank[Rank].push_back(static_cast<int>(A));
  }

  PerExample.resize(this->Examples.size());
  for (size_t E = 0; E < this->Examples.size(); ++E) {
    const IoExample &Ex = this->Examples[E];
    ExampleEval &Eval = PerExample[E];
    Eval.Operands.resize(NumArgs);
    Eval.Operand.assign(NumArgs, nullptr);
    Eval.Shapes.resize(NumArgs);
    for (size_t A = 0; A < NumArgs; ++A) {
      const bench::ArgSpec &Arg = B.Args[A];
      Eval.Shapes[A] = resolveShape(Arg, Ex.Sizes);
      // A missing operand stays null: evaluating a candidate that reads it
      // fails as "unbound".
      if (Arg.K == bench::ArgSpec::Kind::Array) {
        auto It = Ex.Inputs.Arrays.find(Arg.Name);
        if (It == Ex.Inputs.Arrays.end())
          continue;
        Tensor<double> T(Eval.Shapes[A]);
        T.flat() = It->second;
        Eval.Operands[A] = std::move(T);
      } else if (Arg.K == bench::ArgSpec::Kind::SizeScalar) {
        auto It = Ex.Sizes.find(Arg.Name);
        if (It == Ex.Sizes.end())
          continue;
        Eval.Operands[A] =
            Tensor<double>::scalar(static_cast<double>(It->second));
      } else {
        auto It = Ex.Inputs.NumScalars.find(Arg.Name);
        if (It == Ex.Inputs.NumScalars.end())
          continue;
        Eval.Operands[A] = Tensor<double>::scalar(It->second);
      }
      Eval.Operand[A] = &Eval.Operands[A];
    }
    if (OutArg >= 0)
      Eval.OutShape = Eval.Shapes[static_cast<size_t>(OutArg)];
  }
}

Validator::~Validator() = default;

size_t Validator::rejectedTemplates() const { return Rejected->size(); }

namespace {

/// The per-cell acceptance shared by runsConsistently and the validator's
/// fast path — the bit-identical contract between them depends on there
/// being exactly one definition. Inputs are small integers, so everything
/// except division is exact; division gets a relative tolerance.
bool cellsMatch(double A, double E) {
  if (!std::isfinite(A) || !std::isfinite(E))
    return false;
  double Tolerance = 1e-9 * std::max({1.0, std::fabs(A), std::fabs(E)});
  return std::fabs(A - E) <= Tolerance;
}

} // namespace

bool validate::runsConsistently(const bench::Benchmark &B,
                                const Program &Concrete,
                                const std::vector<IoExample> &Examples) {
  const bench::ArgSpec *OutArg = B.outputArg();

  // Names of tensors actually read by the RHS. A symbol bound to the output
  // argument (Fig. 8's S2) reads the *initial* output buffer, so the output
  // name can legitimately appear here too.
  std::vector<std::string> RhsNames;
  std::function<void(const Expr &)> Collect = [&](const Expr &E) {
    switch (E.kind()) {
    case Expr::Kind::Access: {
      const std::string &Name = exprCast<AccessExpr>(E).name();
      if (std::find(RhsNames.begin(), RhsNames.end(), Name) == RhsNames.end())
        RhsNames.push_back(Name);
      return;
    }
    case Expr::Kind::Binary: {
      const auto &Bin = exprCast<BinaryExpr>(E);
      Collect(Bin.lhs());
      Collect(Bin.rhs());
      return;
    }
    case Expr::Kind::Negate:
      Collect(exprCast<NegateExpr>(E).operand());
      return;
    case Expr::Kind::Max: {
      const auto &M = exprCast<MaxExpr>(E);
      Collect(M.lhs());
      Collect(M.rhs());
      return;
    }
    case Expr::Kind::Constant:
      return;
    }
  };
  Collect(*Concrete.Rhs);

  for (const IoExample &Ex : Examples) {
    std::map<std::string, Tensor<double>> Operands;
    for (const std::string &Name : RhsNames) {
      const bench::ArgSpec *Arg = B.findArg(Name);
      if (!Arg)
        return false;
      if (Arg->K == bench::ArgSpec::Kind::Array) {
        Tensor<double> T(resolveShape(*Arg, Ex.Sizes));
        T.flat() = Ex.Inputs.Arrays.at(Arg->Name);
        Operands.emplace(Arg->Name, std::move(T));
      } else if (Arg->K == bench::ArgSpec::Kind::SizeScalar) {
        Operands.emplace(Arg->Name, Tensor<double>::scalar(static_cast<double>(
                                        Ex.Sizes.at(Arg->Name))));
      } else {
        Operands.emplace(Arg->Name, Tensor<double>::scalar(
                                        Ex.Inputs.NumScalars.at(Arg->Name)));
      }
    }

    std::vector<int64_t> OutShape = resolveShape(*OutArg, Ex.Sizes);
    EinsumResult<double> R = evalEinsum<double>(Concrete, Operands, OutShape);
    if (!R.Ok)
      return false;
    const std::vector<double> &Got = R.Value.flat();
    const std::vector<double> &Want = Ex.Expected.flat();
    if (Got.size() != Want.size())
      return false;
    for (size_t I = 0; I < Got.size(); ++I)
      if (!cellsMatch(Got[I], Want[I]))
        return false;
  }
  return true;
}

namespace {

/// The template with every symbolic constant replaced by a mutable literal
/// node, so the constant odometer can sweep assignments in place instead of
/// re-cloning the template.
struct ConstantSlots {
  Program Concrete;
  std::vector<ConstantExpr *> Nodes; ///< In leaf (substitution) order.
};

ExprPtr withConstantSlots(const Expr &E, std::vector<ConstantExpr *> &Nodes) {
  switch (E.kind()) {
  case Expr::Kind::Access:
    return E.clone();
  case Expr::Kind::Constant: {
    const auto &C = exprCast<ConstantExpr>(E);
    if (!C.isSymbolic())
      return C.clone();
    auto Node = std::make_unique<ConstantExpr>(0);
    Nodes.push_back(Node.get());
    return Node;
  }
  case Expr::Kind::Binary: {
    const auto &B = exprCast<BinaryExpr>(E);
    ExprPtr Lhs = withConstantSlots(B.lhs(), Nodes);
    ExprPtr Rhs = withConstantSlots(B.rhs(), Nodes);
    return std::make_unique<BinaryExpr>(B.op(), std::move(Lhs),
                                        std::move(Rhs));
  }
  case Expr::Kind::Negate:
    return std::make_unique<NegateExpr>(
        withConstantSlots(exprCast<NegateExpr>(E).operand(), Nodes));
  case Expr::Kind::Max: {
    const auto &M = exprCast<MaxExpr>(E);
    ExprPtr Lhs = withConstantSlots(M.lhs(), Nodes);
    ExprPtr Rhs = withConstantSlots(M.rhs(), Nodes);
    return std::make_unique<MaxExpr>(std::move(Lhs), std::move(Rhs));
  }
  }
  return nullptr;
}

void appendAccess(const AccessExpr &A, std::string &Key) {
  Key += A.name();
  if (A.order() == 0)
    return;
  char Sep = '(';
  for (const std::string &Var : A.indices()) {
    Key += Sep;
    Key += Var;
    Sep = ',';
  }
  Key += ')';
}

/// Appends the canonical text of \p E to \p Key: fully parenthesized, with
/// the operands of every `+` and `*` ordered by their own canonical text, so
/// commutative twins write the same key. The operands are written in place
/// and swapped by rotation, so no node builds a temporary string.
void appendCanonical(const Expr &E, std::string &Key) {
  switch (E.kind()) {
  case Expr::Kind::Access:
    appendAccess(exprCast<AccessExpr>(E), Key);
    return;
  case Expr::Kind::Constant: {
    const auto &C = exprCast<ConstantExpr>(E);
    if (C.isSymbolic()) {
      Key += '$';
      return;
    }
    char Digits[24];
    Key += '#';
    Key.append(Digits,
               std::to_chars(Digits, Digits + sizeof(Digits), C.value()).ptr);
    return;
  }
  case Expr::Kind::Binary: {
    const auto &Bin = exprCast<BinaryExpr>(E);
    Key += '(';
    const size_t Lhs = Key.size();
    appendCanonical(Bin.lhs(), Key);
    const size_t Op = Key.size();
    Key += binOpSpelling(Bin.op());
    const size_t Rhs = Key.size();
    appendCanonical(Bin.rhs(), Key);
    const size_t RhsLen = Key.size() - Rhs;
    if ((Bin.op() == BinOpKind::Add || Bin.op() == BinOpKind::Mul) &&
        Key.compare(Rhs, RhsLen, Key, Lhs, Op - Lhs) < 0) {
      // "L op R" -> "R L op" -> "R op L".
      std::rotate(Key.begin() + Lhs, Key.begin() + Rhs, Key.end());
      std::rotate(Key.begin() + Lhs + RhsLen, Key.end() - (Rhs - Op),
                  Key.end());
    }
    Key += ')';
    return;
  }
  case Expr::Kind::Negate:
    Key += "(-";
    appendCanonical(exprCast<NegateExpr>(E).operand(), Key);
    Key += ')';
    return;
  case Expr::Kind::Max: {
    const auto &M = exprCast<MaxExpr>(E);
    Key += "max{";
    appendCanonical(M.lhs(), Key);
    Key += ',';
    appendCanonical(M.rhs(), Key);
    Key += '}';
    return;
  }
  }
}

/// Index of \p Name in \p Names, appending it when absent.
int intern(std::vector<const std::string *> &Names, const std::string &Name) {
  for (size_t I = 0; I < Names.size(); ++I)
    if (*Names[I] == Name)
      return static_cast<int>(I);
  Names.push_back(&Name);
  return static_cast<int>(Names.size()) - 1;
}

} // namespace

/// Flat, index-keyed tables of one validate() call. Vectors keep their
/// capacity across calls, so a warm Validator allocates only for the
/// compiled template and the instantiations that pass.
struct Validator::Scratch {
  /// Distinct RHS tensor symbols in order of first appearance (the order
  /// tensorInventory reports them), pointing into the template.
  std::vector<const std::string *> Symbols;
  std::vector<int> SymbolRank; ///< Rank of each symbol's first access.
  /// Access leaves in walk order, with their symbol and index-variable ids
  /// (LeafVars[VarsAt[L] ...] for Leaves[L]->order() positions).
  std::vector<const AccessExpr *> Leaves;
  std::vector<int> LeafSymbol;
  std::vector<size_t> VarsAt;
  std::vector<int> LeafVars;
  std::vector<const std::string *> Vars;
  std::vector<int> LhsVars;
  int ConstLeaves = 0;

  /// BaseExtents[E * NumVars + V]: extents pinned by the output shape.
  std::vector<int64_t> BaseExtents;
  std::vector<int64_t> Local;

  /// The symbols still to bind (everything but the LHS symbol), their
  /// shape-compatible argument options (Options[OptionsAt[S] ...]), and the
  /// unpinned (var, extent) pairs each option imposes per example:
  /// Constraints[ConstraintsAt[O * NumExamples + E] ...] for option O
  /// (an index into Options).
  std::vector<int> Bound;
  std::vector<size_t> OptionsAt;
  std::vector<int> Options;
  std::vector<size_t> ConstraintsAt;
  std::vector<std::pair<int, int64_t>> Constraints;

  std::vector<size_t> Pick;
  std::vector<size_t> ConstPick;
  std::vector<int64_t> ConstValues;
  std::vector<int64_t> JointExtent;
  std::vector<uint64_t> JointStamp;
  std::vector<uint64_t> BoundEpoch;
  std::vector<char> BindOk;
  /// The template's canonical key (appendCanonical), rewritten per call.
  std::string Key;

  void collect(const Expr &E) {
    switch (E.kind()) {
    case Expr::Kind::Access: {
      const auto &A = exprCast<AccessExpr>(E);
      size_t Before = Symbols.size();
      int Symbol = intern(Symbols, A.name());
      if (Symbols.size() != Before)
        SymbolRank.push_back(static_cast<int>(A.order()));
      Leaves.push_back(&A);
      LeafSymbol.push_back(Symbol);
      VarsAt.push_back(LeafVars.size());
      for (const std::string &Var : A.indices())
        LeafVars.push_back(intern(Vars, Var));
      return;
    }
    case Expr::Kind::Binary: {
      const auto &Bin = exprCast<BinaryExpr>(E);
      collect(Bin.lhs());
      collect(Bin.rhs());
      return;
    }
    case Expr::Kind::Negate:
      collect(exprCast<NegateExpr>(E).operand());
      return;
    case Expr::Kind::Max: {
      const auto &M = exprCast<MaxExpr>(E);
      collect(M.lhs());
      collect(M.rhs());
      return;
    }
    case Expr::Kind::Constant:
      if (exprCast<ConstantExpr>(E).isSymbolic())
        ++ConstLeaves; // Each leaf is substituted independently.
      return;
    }
  }

  /// Walks \p Template into the symbol, leaf and variable tables.
  void reset(const Program &Template) {
    Symbols.clear();
    SymbolRank.clear();
    Leaves.clear();
    LeafSymbol.clear();
    VarsAt.clear();
    LeafVars.clear();
    Vars.clear();
    LhsVars.clear();
    ConstLeaves = 0;
    collect(*Template.Rhs);
    for (const std::string &Var : Template.Lhs.indices())
      LhsVars.push_back(intern(Vars, Var));
  }
};

std::vector<Instantiation>
Validator::validate(const Program &Template, size_t MaxResults) const {
  std::vector<Instantiation> Valid;
  if (!Template.Rhs || Examples.empty() || OutArg < 0)
    return Valid;
  const bench::ArgSpec &Out = B.Args[static_cast<size_t>(OutArg)];

  // The LHS symbol is pinned to the output argument; ranks must agree.
  if (static_cast<int>(Template.Lhs.order()) != Out.rank())
    return Valid;

  if (!Work)
    Work = std::make_unique<Scratch>();
  Scratch &W = *Work;
  W.reset(Template);
  const size_t NumExamples = Examples.size();
  const size_t NumVars = W.Vars.size();
  const size_t NumLeaves = W.Leaves.size();
  const int LhsSymbol = [&] {
    for (size_t S = 0; S < W.Symbols.size(); ++S)
      if (*W.Symbols[S] == Template.Lhs.name())
        return static_cast<int>(S);
    return -1;
  }();

  // Base extents per example: variables pinned by the output shape, both
  // through the LHS and through RHS occurrences of the LHS symbol (which
  // read the output argument). A conflict here dooms every binding — the
  // einsum evaluator would reject each one on that example.
  W.BaseExtents.assign(NumExamples * NumVars, -1);
  for (size_t E = 0; E < NumExamples; ++E) {
    const std::vector<int64_t> &OutShape = PerExample[E].OutShape;
    int64_t *Base = W.BaseExtents.data() + E * NumVars;
    auto Pin = [&](const int *Vars, size_t Count) {
      if (Count != OutShape.size())
        return false;
      for (size_t I = 0; I < Count; ++I) {
        int64_t &Slot = Base[Vars[I]];
        if (Slot >= 0 && Slot != OutShape[I])
          return false;
        Slot = OutShape[I];
      }
      return true;
    };
    if (!Pin(W.LhsVars.data(), W.LhsVars.size()))
      return Valid;
    for (size_t L = 0; L < NumLeaves; ++L)
      if (W.LeafSymbol[L] == LhsSymbol &&
          !Pin(W.LeafVars.data() + W.VarsAt[L], W.Leaves[L]->order()))
        return Valid;
  }

  // Candidate arguments per symbol, filtered by rank (Fig. 8's "discard
  // substitutions that bind tensors to scalars and vice versa") and by
  // shape compatibility: an option whose extents conflict — internally,
  // across the symbol's repeated accesses, or against the output-pinned
  // variables — in any example can never produce a valid instantiation,
  // because the einsum evaluator rejects exactly that conflict.
  W.Bound.clear();
  W.OptionsAt.clear();
  W.Options.clear();
  W.ConstraintsAt.clear();
  W.Constraints.clear();
  W.Local.resize(NumVars);
  for (size_t S = 0; S < W.Symbols.size(); ++S) {
    if (static_cast<int>(S) == LhsSymbol)
      continue;
    W.Bound.push_back(static_cast<int>(S));
    W.OptionsAt.push_back(W.Options.size());
    size_t Rank = static_cast<size_t>(W.SymbolRank[S]);
    if (Rank >= ArgsOfRank.size())
      return Valid;
    for (int Arg : ArgsOfRank[Rank]) {
      size_t ConstraintsBefore = W.Constraints.size();
      size_t AtBefore = W.ConstraintsAt.size();
      bool Compatible = true;
      for (size_t E = 0; E < NumExamples && Compatible; ++E) {
        W.ConstraintsAt.push_back(W.Constraints.size());
        std::fill(W.Local.begin(), W.Local.end(), -1);
        const std::vector<int64_t> &Shape =
            PerExample[E].Shapes[static_cast<size_t>(Arg)];
        const int64_t *Base = W.BaseExtents.data() + E * NumVars;
        for (size_t L = 0; L < NumLeaves && Compatible; ++L) {
          if (W.LeafSymbol[L] != static_cast<int>(S))
            continue;
          if (W.Leaves[L]->order() != Shape.size()) {
            Compatible = false;
            break;
          }
          const int *Vars = W.LeafVars.data() + W.VarsAt[L];
          for (size_t P = 0; P < Shape.size(); ++P) {
            size_t Var = static_cast<size_t>(Vars[P]);
            if (Base[Var] >= 0) {
              if (Base[Var] != Shape[P]) {
                Compatible = false;
                break;
              }
              continue;
            }
            int64_t &Slot = W.Local[Var];
            if (Slot >= 0) {
              if (Slot != Shape[P]) {
                Compatible = false;
                break;
              }
              continue;
            }
            Slot = Shape[P];
            W.Constraints.emplace_back(Vars[P], Shape[P]);
          }
        }
      }
      if (!Compatible) {
        W.Constraints.resize(ConstraintsBefore);
        W.ConstraintsAt.resize(AtBefore);
        continue;
      }
      W.Options.push_back(Arg);
    }
    if (W.Options.size() == W.OptionsAt.back())
      return Valid;
  }
  W.OptionsAt.push_back(W.Options.size());
  W.ConstraintsAt.push_back(W.Constraints.size());
  const size_t NumBound = W.Bound.size();

  // Only templates that got this far are memoized, so the memo holds the
  // few templates whose rejection costs a compile and an evaluation, not
  // the many the filters above reject for free.
  W.Key.clear();
  appendAccess(Template.Lhs, W.Key);
  W.Key += '=';
  appendCanonical(*Template.Rhs, W.Key);
  if (Rejected->contains(W.Key))
    return Valid;

  // The template is compiled *once* and evaluated directly under each
  // symbol binding: instantiation only renames tensors and fills constant
  // values, neither of which changes the compiled structure, reduction
  // placement, or evaluation order — so verdicts are bit-identical to
  // evaluating the instantiated program. When the template has symbolic
  // constants they become mutable literal nodes (in a one-time clone) the
  // constant odometer rewrites in place; otherwise the template itself is
  // compiled, clone-free.
  ConstantSlots Slots;
  if (W.ConstLeaves > 0)
    Slots.Concrete = Program(Template.Lhs,
                             withConstantSlots(*Template.Rhs, Slots.Nodes));
  const Program &EvalProgram = W.ConstLeaves > 0 ? Slots.Concrete : Template;
  // The VM lowering delegates slot assignment and reduction placement to
  // the reference evaluator's structure compiler (taco/Einsum.h), so the
  // bytecode evaluates cell-for-cell in the reference order. A template
  // that does not lower has no instantiations.
  const vm::Code VmProgram = vm::compileProgram(EvalProgram);
  if (!VmProgram.ok())
    return Valid;

  W.Pick.assign(NumBound, 0);
  auto OptionOf = [&W](size_t I) {
    return W.OptionsAt[I] + W.Pick[I];
  };
  size_t CurExample = 0;
  auto Resolve = [&](const std::string &Name) -> const Tensor<double> * {
    const ExampleEval &Eval = PerExample[CurExample];
    if (Name == Template.Lhs.name())
      return Eval.Operand[static_cast<size_t>(OutArg)];
    for (size_t I = 0; I < NumBound; ++I)
      if (*W.Symbols[static_cast<size_t>(W.Bound[I])] == Name)
        return Eval.Operand[static_cast<size_t>(W.Options[OptionOf(I)])];
    return nullptr;
  };

  // Cross-symbol consistency scratch, generation-stamped so the joint check
  // allocates nothing per binding.
  W.JointExtent.assign(NumVars, -1);
  W.JointStamp.assign(NumVars, 0);
  uint64_t Generation = 0;
  auto BindingShapesConsistent = [&]() {
    for (size_t E = 0; E < NumExamples; ++E) {
      ++Generation;
      for (size_t I = 0; I < NumBound; ++I) {
        size_t At = OptionOf(I) * NumExamples + E;
        for (size_t C = W.ConstraintsAt[At]; C < W.ConstraintsAt[At + 1];
             ++C) {
          auto [Var, Extent] = W.Constraints[C];
          size_t V = static_cast<size_t>(Var);
          if (W.JointStamp[V] == Generation) {
            if (W.JointExtent[V] != Extent)
              return false;
            continue;
          }
          W.JointStamp[V] = Generation;
          W.JointExtent[V] = Extent;
        }
      }
    }
    return true;
  };

  // Odometer over symbol bindings x constant assignments, exactly the naive
  // enumeration order; shape-incompatible bindings are skipped wholesale
  // (their entire constant block would have failed evaluation).
  const size_t NumConsts = static_cast<size_t>(W.ConstLeaves);
  W.ConstPick.assign(NumConsts, 0);
  W.ConstValues.assign(NumConsts, 0);
  std::vector<vm::Interpreter<double>> Evaluators(
      NumExamples, vm::Interpreter<double>(VmProgram));
  // Examples are (re)bound lazily per binding, preserving the fail-fast
  // behavior of the naive loop: a binding rejected on the first example
  // never pays for the others.
  uint64_t BindEpoch = 0;
  W.BoundEpoch.assign(NumExamples, 0);
  W.BindOk.assign(NumExamples, 0);
  auto EnsureBound = [&](size_t E) -> bool {
    if (W.BoundEpoch[E] == BindEpoch)
      return W.BindOk[E];
    W.BoundEpoch[E] = BindEpoch;
    CurExample = E;
    W.BindOk[E] = Evaluators[E].bind(Resolve, PerExample[E].OutShape);
    return W.BindOk[E];
  };

  for (;;) {
    if (BindingShapesConsistent()) {
      ++BindEpoch;
      for (bool More = true; More;) {
        for (size_t I = 0; I < NumConsts; ++I) {
          W.ConstValues[I] = Constants[W.ConstPick[I]];
          Slots.Nodes[I]->setValue(W.ConstValues[I]);
        }

        ++Tried;
        bool Consistent = true;
        for (size_t E = 0; E < NumExamples; ++E) {
          if (!EnsureBound(E)) {
            Consistent = false;
            break;
          }
          Evaluators[E].refreshConstants();
          if (Evaluators[E].compare(Examples[E].Expected.flat(), cellsMatch) !=
              taco::EinsumCompare::Match) {
            Consistent = false;
            break;
          }
        }

        if (Consistent) {
          Instantiation Inst;
          Inst.SymbolBinding[Template.Lhs.name()] = Out.Name;
          for (size_t I = 0; I < NumBound; ++I)
            Inst.SymbolBinding[*W.Symbols[static_cast<size_t>(W.Bound[I])]] =
                B.Args[static_cast<size_t>(W.Options[OptionOf(I)])].Name;
          Inst.Concrete = instantiateTemplate(Template, Inst.SymbolBinding,
                                              W.ConstValues);
          Inst.ConstantValues = W.ConstValues;
          Valid.push_back(std::move(Inst));
          if (Valid.size() >= MaxResults)
            return Valid;
        }

        // Advance the constant odometer.
        size_t Axis = NumConsts;
        bool Wrapped = true;
        while (Axis > 0) {
          --Axis;
          if (++W.ConstPick[Axis] < Constants.size()) {
            Wrapped = false;
            break;
          }
          W.ConstPick[Axis] = 0;
        }
        if (NumConsts == 0 || Wrapped)
          More = false;
      }
    }

    // Advance the symbol odometer.
    size_t Axis = NumBound;
    bool Wrapped = true;
    while (Axis > 0) {
      --Axis;
      if (W.OptionsAt[Axis] + ++W.Pick[Axis] < W.OptionsAt[Axis + 1]) {
        Wrapped = false;
        break;
      }
      W.Pick[Axis] = 0;
    }
    if (NumBound == 0 || Wrapped) {
      if (Valid.empty())
        Rejected->insert(W.Key);
      return Valid;
    }
  }
}
