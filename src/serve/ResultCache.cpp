//===- serve/ResultCache.cpp - Kernel-text result cache -------------------===//

#include "serve/ResultCache.h"

#include "support/StringUtils.h"
#include "taco/Parser.h"
#include "taco/Printer.h"

#include <cstdio>
#include <filesystem>
#include <iomanip>
#include <sstream>

using namespace stagg;
using namespace stagg::serve;
using support::Json;

ResultCache::ResultCache(size_t Capacity, std::string JournalPath)
    : Capacity(Capacity), JournalPath(std::move(JournalPath)) {
  if (!this->JournalPath.empty() && Capacity > 0) {
    loadJournal();
    Journal.open(this->JournalPath, std::ios::app);
  }
}

std::string ResultCache::keyFor(const std::string &KernelSource) {
  return normalizeKernelText(KernelSource);
}

bool ResultCache::lookup(const std::string &Key, core::LiftResult &Out) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Index.find(Key);
  if (It == Index.end()) {
    ++Misses;
    return false;
  }
  ++Hits;
  Lru.splice(Lru.begin(), Lru, It->second);
  Out = It->second->Result;
  return true;
}

void ResultCache::insert(const std::string &Key,
                         const core::LiftResult &Result) {
  if (Capacity == 0)
    return;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Index.find(Key);
    if (It != Index.end()) {
      // A refresh carries the same deterministic result; nothing new for
      // the journal.
      It->second->Result = Result;
      Lru.splice(Lru.begin(), Lru, It->second);
      return;
    }
    if (Lru.size() >= Capacity) {
      Index.erase(Lru.back().Key);
      Lru.pop_back();
      ++Evictions;
    }
    Lru.push_front(Entry{Key, Result});
    Index[Key] = Lru.begin();
    ++Insertions;
  }
  // Write-through happens after the LRU lock is released: journalInsert
  // takes the journal mutex and then the LRU lock, never the reverse.
  journalInsert(Key, Result);
}

CacheStats ResultCache::stats() const {
  CacheStats Stats;
  Stats.Capacity = Capacity;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Stats.Hits = Hits;
    Stats.Misses = Misses;
    Stats.Evictions = Evictions;
    Stats.Insertions = Insertions;
    Stats.Entries = Lru.size();
  }
  std::lock_guard<std::mutex> Lock(JournalMutex);
  Stats.Loaded = LoadedCount;
  Stats.Compactions = CompactionCount;
  return Stats;
}

Json serve::liftResultToJson(const core::LiftResult &Result) {
  Json Out = Json::object();
  Out.set("solved", Json::boolean(Result.Solved));
  Out.set("verified", Json::boolean(Result.Verified));
  if (Result.Solved) {
    Out.set("template", Json::str(taco::printProgram(Result.Template)));
    Out.set("concrete", Json::str(taco::printProgram(Result.Concrete)));
  }
  Out.set("attempts", Json::integer(Result.Attempts));
  Out.set("expansions", Json::integer(Result.Expansions));
  Out.set("seconds", Json::number(Result.Seconds));
  Out.set("parse_s", Json::number(Result.ParseSeconds));
  Out.set("oracle_s", Json::number(Result.OracleSeconds));
  Out.set("grammar_s", Json::number(Result.GrammarSeconds));
  Out.set("search_s", Json::number(Result.SearchSeconds));
  Out.set("fail_reason", Json::str(Result.FailReason));
  Out.set("cand_parsed", Json::integer(Result.CandidatesParsed));
  Out.set("cand_discarded", Json::integer(Result.CandidatesDiscarded));
  Json Dims = Json::array();
  for (int D : Result.DimList)
    Dims.push(Json::integer(D));
  Out.set("dim_list", std::move(Dims));
  Out.set("checker_safe", Json::boolean(Result.CheckerSafe));
  Out.set("checker_findings", Json::integer(Result.CheckerFindings));
  return Out;
}

bool serve::liftResultFromJson(const Json &Value, core::LiftResult &Out) {
  if (!Value.isObject())
    return false;
  core::LiftResult R;

  const Json *Solved = Value.find("solved");
  const Json *Verified = Value.find("verified");
  if (!Solved || !Solved->isBool() || !Verified || !Verified->isBool())
    return false;
  R.Solved = Solved->asBool();
  R.Verified = Verified->asBool();

  if (R.Solved) {
    const Json *Template = Value.find("template");
    const Json *Concrete = Value.find("concrete");
    if (!Template || !Template->isString() || !Concrete ||
        !Concrete->isString())
      return false;
    taco::ParseResult T = taco::parseTacoProgram(Template->asString());
    taco::ParseResult C = taco::parseTacoProgram(Concrete->asString());
    if (!T.ok() || !C.ok())
      return false;
    R.Template = std::move(*T.Prog);
    R.Concrete = std::move(*C.Prog);
  }

  auto ReadInt = [&Value](const char *Key, auto &Field) {
    const Json *V = Value.find(Key);
    if (!V || !V->isInteger())
      return false;
    Field = static_cast<std::decay_t<decltype(Field)>>(V->asInteger());
    return true;
  };
  auto ReadNum = [&Value](const char *Key, double &Field) {
    const Json *V = Value.find(Key);
    if (!V || !V->isNumber())
      return false;
    Field = V->asNumber();
    return true;
  };
  auto ReadBool = [&Value](const char *Key, bool &Field) {
    const Json *V = Value.find(Key);
    if (!V || !V->isBool())
      return false;
    Field = V->asBool();
    return true;
  };

  if (!ReadInt("attempts", R.Attempts) ||
      !ReadInt("expansions", R.Expansions) ||
      !ReadNum("seconds", R.Seconds) ||
      !ReadNum("parse_s", R.ParseSeconds) ||
      !ReadNum("oracle_s", R.OracleSeconds) ||
      !ReadNum("grammar_s", R.GrammarSeconds) ||
      !ReadNum("search_s", R.SearchSeconds) ||
      !ReadInt("cand_parsed", R.CandidatesParsed) ||
      !ReadInt("cand_discarded", R.CandidatesDiscarded) ||
      !ReadBool("checker_safe", R.CheckerSafe) ||
      !ReadInt("checker_findings", R.CheckerFindings))
    return false;

  const Json *Fail = Value.find("fail_reason");
  if (!Fail || !Fail->isString())
    return false;
  R.FailReason = Fail->asString();

  const Json *Dims = Value.find("dim_list");
  if (!Dims || !Dims->isArray())
    return false;
  for (const Json &D : Dims->items()) {
    if (!D.isInteger())
      return false;
    R.DimList.push_back(static_cast<int>(D.asInteger()));
  }

  Out = std::move(R);
  return true;
}

namespace {

/// One journal line: {"key":<key>,"result":<liftResultToJson>}.
std::string journalRecord(const std::string &Key,
                          const core::LiftResult &Result) {
  std::string Out = "{\"key\":";
  Out += Json::str(Key).dump();
  Out += ",\"result\":";
  Out += liftResultToJson(Result).dump();
  Out += '}';
  return Out;
}

} // namespace

void ResultCache::loadJournal() {
  std::ifstream In(JournalPath, std::ios::binary);
  if (!In)
    return; // nothing persisted yet

  std::string Text((std::istreambuf_iterator<char>(In)),
                   std::istreambuf_iterator<char>());
  In.close();

  size_t Offset = 0;
  uint64_t Valid = 0;
  bool Truncate = false;
  while (Offset < Text.size()) {
    size_t Nl = Text.find('\n', Offset);
    if (Nl == std::string::npos) {
      // A torn final write (no newline): drop it.
      Truncate = true;
      break;
    }
    std::string Line = Text.substr(Offset, Nl - Offset);

    support::JsonParseResult Parsed = support::parseJson(Line);
    const Json *Key =
        Parsed.ok() && Parsed.Value.isObject() ? Parsed.Value.find("key")
                                               : nullptr;
    const Json *Result =
        Parsed.ok() && Parsed.Value.isObject() ? Parsed.Value.find("result")
                                               : nullptr;
    core::LiftResult R;
    if (!Key || !Key->isString() || !Result ||
        !liftResultFromJson(*Result, R)) {
      // Corruption: keep the valid prefix, drop this record and everything
      // after it (later records may depend on nothing, but a clean cut is
      // the only state we can trust).
      Truncate = true;
      break;
    }
    insert(Key->asString(), R); // Journal not yet open: no write-through
    ++Valid;
    Offset = Nl + 1;
  }

  if (Truncate)
    std::filesystem::resize_file(JournalPath, Offset);

  LoadedCount = Valid;
  JournalRecords = Valid;
  // Replayed entries are history, not runtime insertions; the ctor is
  // single-threaded, so resetting the counter here is safe.
  Insertions = 0;
}

void ResultCache::journalInsert(const std::string &Key,
                                const core::LiftResult &Result) {
  std::lock_guard<std::mutex> Lock(JournalMutex);
  if (!Journal.is_open())
    return;
  Journal << journalRecord(Key, Result) << "\n" << std::flush;
  ++JournalRecords;

  // Compact once dead history (evicted or superseded records) dominates:
  // the journal holds more than twice the live set.
  size_t Live;
  {
    std::lock_guard<std::mutex> LruLock(Mutex);
    Live = Lru.size();
  }
  if (JournalRecords >= 64 && JournalRecords > 2 * Live)
    compactLocked();
}

void ResultCache::compactLocked() {
  std::string TmpPath = JournalPath + ".tmp";
  std::ofstream Tmp(TmpPath, std::ios::trunc);
  if (!Tmp)
    return; // keep appending to the old journal; correctness is unharmed

  uint64_t Written = 0;
  {
    // Oldest first, so a replay of the compacted journal rebuilds the same
    // recency order.
    std::lock_guard<std::mutex> LruLock(Mutex);
    for (auto It = Lru.rbegin(); It != Lru.rend(); ++It) {
      Tmp << journalRecord(It->Key, It->Result) << "\n";
      ++Written;
    }
  }
  Tmp.flush();
  if (!Tmp) {
    Tmp.close();
    std::remove(TmpPath.c_str());
    return;
  }
  Tmp.close();

  Journal.close();
  if (std::rename(TmpPath.c_str(), JournalPath.c_str()) != 0) {
    std::remove(TmpPath.c_str());
    Journal.open(JournalPath, std::ios::app);
    return;
  }
  Journal.open(JournalPath, std::ios::app);
  JournalRecords = Written;
  ++CompactionCount;
}

std::string serve::formatCacheStats(const CacheStats &Stats) {
  std::ostringstream Os;
  Os << "cache: hits " << Stats.Hits << "  misses " << Stats.Misses
     << "  evictions " << Stats.Evictions << "  entries " << Stats.Entries
     << "/" << Stats.Capacity << "  hit-rate "
     << std::fixed << std::setprecision(1) << 100.0 * Stats.hitRate() << "%";
  if (Stats.Loaded || Stats.Compactions)
    Os << "  loaded " << Stats.Loaded << "  compactions "
       << Stats.Compactions;
  return Os.str();
}
