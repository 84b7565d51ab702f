//===- search/SearchTypes.cpp - The shared search loop --------------------===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//

#include "search/SearchTypes.h"

#include <utility>

using namespace stagg;
using namespace stagg::search;

SearchResult search::runSearch(CandidateStream &Stream,
                               const TemplateProbe &Probe) {
  SearchResult R;
  taco::Program Candidate;
  while (Stream.next(Candidate)) {
    if (Probe(Candidate)) {
      R.Solved = true;
      R.SolvedTemplate = std::move(Candidate);
      break;
    }
  }
  if (!R.Solved)
    R.FailReason = Stream.failReason();
  R.Attempts = Stream.attempts();
  R.Expansions = Stream.expansions();
  R.Seconds = Stream.seconds();
  return R;
}
