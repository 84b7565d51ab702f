//===- search/TemplateState.cpp - Partial template derivations ------------===//

#include "search/TemplateState.h"

#include <algorithm>
#include <cassert>

using namespace stagg;
using namespace stagg::search;
using namespace stagg::taco;

SymbolTable::SymbolTable(const grammar::TemplateGrammar &G)
    : FirstRule(G.TensorRules.data()) {
  // Positional symbols are `b`, `c`, ...: id 0 is position 2 of the
  // dimension list. The full grammar orders every letter globally; the
  // refined one only the positions it has, each within its class.
  MaxId = G.PositionalSymbols ? static_cast<int>(G.DimList.size()) - 2
                              : 'z' - 'b';
  Requires.assign(static_cast<size_t>(std::max(MaxId + 1, 0)), 0);
  for (int Id = 1; Id <= MaxId; ++Id) {
    int Prev = Id - 1;
    if (G.PositionalSymbols) {
      int Dim = G.DimList[static_cast<size_t>(Id) + 1];
      while (Prev >= 0 && G.DimList[static_cast<size_t>(Prev) + 1] != Dim)
        --Prev;
    }
    if (Prev >= 0)
      Requires[static_cast<size_t>(Id)] = 1u << Prev;
  }

  Rules.resize(G.TensorRules.size());
  for (size_t I = 0; I < G.TensorRules.size(); ++I) {
    const grammar::TensorRule &R = G.TensorRules[I];
    if (R.IsConst)
      continue;
    Rules[I].Id = id(R.Symbol);
    Rules[I].ReadsI = std::find(R.Indices.begin(), R.Indices.end(), "i") !=
                      R.Indices.end();
  }
}

int SymbolTable::id(const std::string &Symbol) const {
  if (Symbol.size() != 1 || Symbol[0] < 'b' || Symbol[0] > 'z')
    return -1;
  int Id = Symbol[0] - 'b';
  return Id <= MaxId ? Id : -1;
}

void SymbolTable::note(SymbolOrder &Order, int Id) const {
  if (Id < 0) {
    Order.Canonical = false;
    return;
  }
  uint32_t Bit = 1u << Id;
  if (Order.Used & Bit)
    return;
  // In a canonical order the used symbols of each class are its first N,
  // so a new symbol keeps the order canonical exactly when its
  // predecessor in the class is already used.
  uint32_t Needed = Requires[static_cast<size_t>(Id)];
  if ((Order.Used & Needed) != Needed)
    Order.Canonical = false;
  Order.Used |= Bit;
}

DerivationState *DerivationPool::allocate() {
  // Recycled states keep stale fields; root() and derive() overwrite
  // every field a state reads.
  if (FreeList) {
    DerivationState *S = FreeList;
    FreeList = S->Parent;
    return S;
  }
  constexpr size_t ChunkSize = 1024;
  if (Chunks.empty() || UsedInChunk == ChunkSize) {
    Chunks.push_back(std::make_unique<DerivationState[]>(ChunkSize));
    UsedInChunk = 0;
  }
  return &Chunks.back()[UsedInChunk++];
}

DerivationState *DerivationPool::root() {
  DerivationState *S = allocate();
  *S = DerivationState();
  S->Refs = 1;
  S->Opened[0] = OpenSlot{OpenSlot::Kind::Expr, 1, nullptr};
  S->Top = &S->Opened[0];
  S->M.Holes = 1;
  return S;
}

DerivationState *DerivationPool::derive(DerivationState *Parent,
                                        const Production &P) {
  const OpenSlot *Slot = Parent->Top;
  assert(Slot && "derive on a complete state");
  DerivationState *S = allocate();
  S->Parent = Parent;
  ++Parent->Refs;
  S->Refs = 1;
  S->Applied = P;
  StateMetrics &M = S->M;
  M = Parent->M;

  switch (P.K) {
  case Production::Kind::Leaf: {
    assert(Slot->K == OpenSlot::Kind::Expr && "leaf on an op slot");
    S->Top = Slot->Next;
    --M.Holes;
    ++M.Leaves;
    const grammar::TensorRule &R = *P.Rule;
    if (R.IsConst) {
      ++M.ConstLeaves;
      break;
    }
    if (Symbols.readsI(R))
      ++M.TensorsWithI;
    Symbols.note(M.Tensors, Symbols.id(R));
    // Penalty a4. The derivation of a subtree is contiguous, so this leaf
    // completes `x op x` when the three productions before it are that
    // node's Bin, its left leaf and its op, and completes `max(x, x)` when
    // the two before it are the Max and its left leaf.
    const DerivationState *Prev = Parent;
    const DerivationState *Left =
        Prev->Parent && Prev->Applied.K == Production::Kind::Op ? Prev->Parent
                                                                : Prev;
    if (!Left->Parent || Left->Applied.K != Production::Kind::Leaf ||
        Left->Applied.Rule != &R)
      break;
    Production::Kind Node = Left->Parent->Parent
                                ? Left->Parent->Applied.K
                                : Production::Kind::Leaf;
    if (Left == Prev ? Node == Production::Kind::Max
                     : Node == Production::Kind::Bin &&
                           Prev->Applied.Op != BinOpKind::Mul)
      M.DegenerateOp = true;
    break;
  }
  case Production::Kind::Bin: {
    assert(Slot->K == OpenSlot::Kind::Expr && "bin on an op slot");
    int Depth = Slot->Depth + 1;
    S->Opened[2] = OpenSlot{OpenSlot::Kind::Expr, Depth, Slot->Next};
    S->Opened[1] = OpenSlot{OpenSlot::Kind::Op, Depth, &S->Opened[2]};
    S->Opened[0] = OpenSlot{OpenSlot::Kind::Expr, Depth, &S->Opened[1]};
    S->Top = &S->Opened[0];
    ++M.Holes;
    ++M.OpHoles;
    M.Depth = std::max(M.Depth, Depth);
    break;
  }
  case Production::Kind::Max: {
    assert(Slot->K == OpenSlot::Kind::Expr && "max on an op slot");
    int Depth = Slot->Depth + 1;
    S->Opened[1] = OpenSlot{OpenSlot::Kind::Expr, Depth, Slot->Next};
    S->Opened[0] = OpenSlot{OpenSlot::Kind::Expr, Depth, &S->Opened[1]};
    S->Top = &S->Opened[0];
    ++M.Holes;
    M.Depth = std::max(M.Depth, Depth);
    break;
  }
  case Production::Kind::Op:
    assert(Slot->K == OpenSlot::Kind::Op && "op on an expr hole");
    S->Top = Slot->Next;
    --M.OpHoles;
    M.OpsUsed |= opBit(P.Op);
    break;
  }
  M.Complete = M.Holes == 0 && M.OpHoles == 0;
  return S;
}

void DerivationPool::release(DerivationState *S) {
  while (S) {
    --S->Refs;
    if (S->Refs != 0)
      return;
    DerivationState *Parent = S->Parent;
    S->Parent = FreeList;
    FreeList = S;
    S = Parent;
  }
}

std::vector<Production> search::derivation(const DerivationState &S) {
  size_t Length = 0;
  for (const DerivationState *At = &S; At->parent(); At = At->parent())
    ++Length;
  std::vector<Production> Steps(Length);
  for (const DerivationState *At = &S; At->parent(); At = At->parent())
    Steps[--Length] = At->production();
  return Steps;
}

namespace {

ExprPtr replay(const std::vector<Production> &Steps, size_t &At) {
  assert(At < Steps.size() && "treeToExpr on an incomplete derivation");
  const Production &P = Steps[At++];
  switch (P.K) {
  case Production::Kind::Leaf:
    if (P.Rule->IsConst)
      return ConstantExpr::symbolic();
    return std::make_unique<AccessExpr>(P.Rule->Symbol, P.Rule->Indices);
  case Production::Kind::Bin: {
    ExprPtr Lhs = replay(Steps, At);
    assert(At < Steps.size() && Steps[At].K == Production::Kind::Op);
    BinOpKind Op = Steps[At++].Op;
    ExprPtr Rhs = replay(Steps, At);
    return std::make_unique<BinaryExpr>(Op, std::move(Lhs), std::move(Rhs));
  }
  case Production::Kind::Max: {
    ExprPtr Lhs = replay(Steps, At);
    ExprPtr Rhs = replay(Steps, At);
    return std::make_unique<MaxExpr>(std::move(Lhs), std::move(Rhs));
  }
  case Production::Kind::Op:
    break;
  }
  assert(false && "op production outside a binary node");
  return nullptr;
}

} // namespace

ExprPtr search::treeToExpr(const DerivationState &S) {
  assert(!S.leftmost() && "treeToExpr on an incomplete derivation");
  std::vector<Production> Steps = derivation(S);
  size_t At = 0;
  return replay(Steps, At);
}
