//===- search/TemplateState.h - Partial template derivations ----*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The top-down search state. Expansion always rewrites the *leftmost*
/// nonterminal (matching the leftmost-derivation convention used when
/// learning weights), so a partial template is fully determined by the
/// productions applied so far. A state is therefore one node of a shared
/// derivation tree: its parent state, the production it applied, the open
/// nonterminals still to expand (a persistent stack, leftmost on top) and
/// its penalty metrics, updated from the parent's at the expanded hole.
/// Children share their parent; nothing is cloned, and the TACO expression
/// is only replayed for complete templates.
///
//===----------------------------------------------------------------------===//

#ifndef STAGG_SEARCH_TEMPLATESTATE_H
#define STAGG_SEARCH_TEMPLATESTATE_H

#include "grammar/Pcfg.h"
#include "taco/Ast.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace stagg {
namespace search {

/// A set of operators, one bit per taco::BinOpKind.
using OpSet = uint8_t;

inline OpSet opBit(taco::BinOpKind Op) {
  return static_cast<OpSet>(1u << static_cast<unsigned>(Op));
}

/// The distinct non-constant tensor symbols of a template, reduced to what
/// penalties a3/b1 read: which interned symbols occur (one bit per
/// SymbolTable id) and whether their order of first appearance is
/// canonical.
struct SymbolOrder {
  uint32_t Used = 0;
  bool Canonical = true;
};

/// The tensor symbols of one grammar interned as small ints, each with its
/// dimension class and rank within that class, plus per-rule facts the
/// penalties read. Built once per search; every query is allocation-free.
///
/// Canonical order (penalties a3/b1): with the refined grammar, symbols
/// are interchangeable only within a dimension class, so the distinct
/// symbols of each class must appear as that class's first N symbols in
/// minting (alphabetical) order; a template may use the 1-D symbol `c`
/// without the 0-D symbol `b`, but using `e` before `c` (both 1-D)
/// duplicates an already-enumerated structure. With the full grammar every
/// symbol is equivalent and the order is global: `b`, `c`, `d`, ...
class SymbolTable {
public:
  explicit SymbolTable(const grammar::TemplateGrammar &G);

  /// Interned id of \p Symbol, its bit in SymbolOrder::Used; -1 when the
  /// grammar gives the symbol no position (such a symbol is never in
  /// canonical order).
  int id(const std::string &Symbol) const;

  /// Interned id of a non-constant rule's symbol. \p R must belong to the
  /// grammar the table was built from.
  int id(const grammar::TensorRule &R) const { return Rules[index(R)].Id; }

  /// True when non-constant rule \p R reads the first canonical index `i`.
  bool readsI(const grammar::TensorRule &R) const {
    return Rules[index(R)].ReadsI;
  }

  /// Records one occurrence of symbol \p Id (from id()) in \p Order.
  void note(SymbolOrder &Order, int Id) const;

private:
  struct RuleFacts {
    int Id = -1;
    bool ReadsI = false;
  };

  size_t index(const grammar::TensorRule &R) const {
    return static_cast<size_t>(&R - FirstRule);
  }

  const grammar::TensorRule *FirstRule = nullptr;
  std::vector<RuleFacts> Rules;
  /// Highest symbol id the grammar positions (-1 for none).
  int MaxId = -1;
  /// Per id: the bit of the previous symbol of its class, 0 for the first.
  std::vector<uint32_t> Requires;
};

/// Structural metrics consumed by the penalty functions.
struct StateMetrics {
  int Leaves = 0;        ///< Tensor/constant leaves placed so far.
  int Holes = 0;         ///< Unexpanded EXPR holes.
  int OpHoles = 0;       ///< Unexpanded OP slots.
  int Depth = 1;         ///< Paper depth (accesses depth 1, holes too).
  int ConstLeaves = 0;   ///< Leaves that are the symbolic constant.
  int TensorsWithI = 0;  ///< Leaves indexed by the first canonical variable.
  bool Complete = false; ///< No nonterminals remain.

  /// Distinct non-constant tensor symbols and their order (a3).
  SymbolOrder Tensors;

  /// Distinct operators already fixed.
  OpSet OpsUsed = 0;

  /// True if some binary node with + - or / has structurally identical
  /// access leaves on both sides, or some max has (penalty a4).
  bool DegenerateOp = false;
};

/// One production of the template grammar, applied to the leftmost
/// nonterminal.
struct Production {
  enum class Kind : uint8_t {
    Leaf, ///< EXPR -> TENSOR or CONSTANT (Rule set).
    Bin,  ///< EXPR -> EXPR OP EXPR.
    Max,  ///< EXPR -> max(EXPR, EXPR); only when the grammar has the rule.
    Op,   ///< OP -> op.
  };

  Kind K = Kind::Leaf;
  taco::BinOpKind Op = taco::BinOpKind::Add;
  const grammar::TensorRule *Rule = nullptr;

  static Production leaf(const grammar::TensorRule &R) {
    return {Kind::Leaf, taco::BinOpKind::Add, &R};
  }
  static Production bin() { return {Kind::Bin, taco::BinOpKind::Add, nullptr}; }
  static Production max() { return {Kind::Max, taco::BinOpKind::Add, nullptr}; }
  static Production op(taco::BinOpKind Op) { return {Kind::Op, Op, nullptr}; }
};

/// One open nonterminal: a node of the persistent stack of a state's
/// unexpanded nonterminals, leftmost on top. A node lives in the state
/// whose production opened it, and every state keeps its ancestors alive,
/// so descendants share the node.
struct OpenSlot {
  enum class Kind : uint8_t { Expr, Op };
  Kind K = Kind::Expr;
  int Depth = 1;                  ///< Paper depth of the EXPR hole.
  const OpenSlot *Next = nullptr; ///< The next open nonterminal to the right.
};

/// A partial template as a node of the shared derivation tree.
class DerivationState {
public:
  /// The state this one was derived from; null for the root (a lone hole).
  const DerivationState *parent() const { return Parent; }

  /// The production that derived this state from its parent.
  const Production &production() const { return Applied; }

  /// The leftmost open nonterminal; null when the template is complete.
  const OpenSlot *leftmost() const { return Top; }

  const StateMetrics &metrics() const { return M; }

private:
  friend class DerivationPool;

  DerivationState *Parent = nullptr; ///< Also the pool's free-list link.
  const OpenSlot *Top = nullptr;
  OpenSlot Opened[3];
  Production Applied;
  StateMetrics M;
  uint32_t Refs = 0;
};

/// Owns the states of one search. States are reference counted: the
/// caller holds one reference to each state root() or derive() returns,
/// and every child holds one on its parent. A state whose count drops to
/// zero releases its parent and is recycled, so the live states are those
/// still queued plus their ancestors. The counts are not atomic: a pool is
/// single-owner, like the CandidateStream that uses it. Destroying the pool
/// frees every state at once, referenced or not.
class DerivationPool {
public:
  explicit DerivationPool(const SymbolTable &Symbols) : Symbols(Symbols) {}
  DerivationPool(const DerivationPool &) = delete;
  DerivationPool &operator=(const DerivationPool &) = delete;

  /// The initial state: one EXPR hole at depth 1.
  DerivationState *root();

  /// Applies \p P to the leftmost nonterminal of \p Parent, which must
  /// have one that \p P can rewrite. The child's metrics are the parent's
  /// updated at the expanded hole.
  DerivationState *derive(DerivationState *Parent, const Production &P);

  /// Drops one reference to \p S.
  void release(DerivationState *S);

private:
  DerivationState *allocate();

  const SymbolTable &Symbols;
  std::vector<std::unique_ptr<DerivationState[]>> Chunks;
  size_t UsedInChunk = 0;
  DerivationState *FreeList = nullptr;
};

/// The productions that derived \p S from the root, in leftmost-derivation
/// order (a preorder of the template tree).
std::vector<Production> derivation(const DerivationState &S);

/// Replays a complete derivation into a TACO expression. Must only be
/// called when \p S has no open nonterminals.
taco::ExprPtr treeToExpr(const DerivationState &S);

} // namespace search
} // namespace stagg

#endif // STAGG_SEARCH_TEMPLATESTATE_H
