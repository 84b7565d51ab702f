//===- search/TopDown.h - Top-down weighted A* enumeration ------*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Algorithm 1 of the paper: weighted A\* over the template grammar,
/// expanding the leftmost nonterminal of partial templates, ordered by
/// f(x) = c(x) + g(x) + X(x), with a depth limit of 6.
///
//===----------------------------------------------------------------------===//

#ifndef STAGG_SEARCH_TOPDOWN_H
#define STAGG_SEARCH_TOPDOWN_H

#include "grammar/Pcfg.h"
#include "search/SearchTypes.h"

#include <functional>
#include <memory>

namespace stagg {
namespace search {

class DerivationState;

/// Sees every state the enumerator derives, with its penalty, before the
/// state is queued or pruned. Lets tests audit the incremental metrics.
using StateObserver =
    std::function<void(const DerivationState &State, double Penalty)>;

/// Runs the top-down enumeration. \p Probe is invoked on every complete
/// template; returning true ends the search successfully.
SearchResult runTopDown(const grammar::TemplateGrammar &G,
                        const SearchConfig &Config, const TemplateProbe &Probe);

/// Kept only for liftbench/; goes with the next benchmark change.
SearchResult runTopDown(const grammar::TemplateGrammar &G,
                        const SearchConfig &Config,
                        const TemplateProbeFactory &Factory);

/// The bare enumeration as a stream of complete candidates in probe order.
/// \p Observer, when set, is called on every derived state.
std::unique_ptr<CandidateStream>
makeTopDownStream(const grammar::TemplateGrammar &G, const SearchConfig &Config,
                  StateObserver Observer = {});

} // namespace search
} // namespace stagg

#endif // STAGG_SEARCH_TOPDOWN_H
