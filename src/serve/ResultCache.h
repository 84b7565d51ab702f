//===- serve/ResultCache.h - Kernel-text result cache -----------*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Candidate generation dominates the lifting cost, and identical kernel
/// text always lifts to the identical result (the whole pipeline is
/// deterministic in the oracle seed). So the serving layer memoizes: results
/// are cached under the *normalized* kernel text (comments and whitespace
/// stripped — see support normalizeKernelText) in one LRU list under one
/// mutex. A lookup holds that lock for well under a microsecond, far below
/// the cost of the lifts and round trips around it, so the workers of a
/// serving session do not queue on it. Hit/miss/eviction counters feed
/// `stagg --cache-stats`.
///
/// Optional persistence: given a journal path, every first insertion is
/// written through to an append-only file of JSON-lines records, loaded
/// back at construction so a restarted replica answers its previous
/// workload from warm cache. A record that fails to parse truncates the
/// journal from that point (torn final writes and corruption recover to
/// the longest valid prefix instead of crashing), and the journal is
/// compacted — live entries rewritten, dead history dropped — once it
/// grows past twice the live set. Journal I/O runs under its own mutex,
/// never under the LRU lock, so lookups do not wait on the disk; the lock
/// order is journal mutex first, LRU mutex second.
///
//===----------------------------------------------------------------------===//

#ifndef STAGG_SERVE_RESULTCACHE_H
#define STAGG_SERVE_RESULTCACHE_H

#include "core/Stagg.h"
#include "support/Json.h"

#include <cstdint>
#include <fstream>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>

namespace stagg {
namespace serve {

/// Cache counters.
struct CacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Evictions = 0;
  uint64_t Insertions = 0;
  size_t Entries = 0;
  size_t Capacity = 0;

  /// Persistence counters (zero for in-memory caches): entries loaded from
  /// the journal at construction, and journal compactions since.
  uint64_t Loaded = 0;
  uint64_t Compactions = 0;

  double hitRate() const {
    uint64_t Lookups = Hits + Misses;
    return Lookups ? static_cast<double>(Hits) / Lookups : 0;
  }
};

/// LRU map from normalized kernel text to lift results.
class ResultCache {
public:
  /// Holds at most \p Capacity entries. Capacity 0 disables the cache
  /// (lookups miss, inserts drop). A non-empty \p JournalPath makes the
  /// cache persistent: existing records load now (corrupt tails truncate),
  /// new insertions write through.
  explicit ResultCache(size_t Capacity, std::string JournalPath = "");

  /// Canonical key of a kernel source (normalizeKernelText).
  static std::string keyFor(const std::string &KernelSource);

  /// Looks \p Key up; on a hit copies the cached result into \p Out,
  /// refreshes recency, and returns true.
  bool lookup(const std::string &Key, core::LiftResult &Out);

  /// Inserts (or refreshes) \p Key. Evicts the least-recently-used entry
  /// when the cache is full.
  void insert(const std::string &Key, const core::LiftResult &Result);

  CacheStats stats() const;

private:
  struct Entry {
    std::string Key;
    core::LiftResult Result;
  };

  /// Replays the journal into the cache; truncates at the first record
  /// that fails to parse.
  void loadJournal();

  /// One write-through record, plus compaction when the journal's record
  /// count has outgrown the live set. Caller holds no lock.
  void journalInsert(const std::string &Key, const core::LiftResult &Result);

  /// Rewrites the journal to exactly the live entries (tmp file + rename).
  void compactLocked();

  const size_t Capacity;

  /// The LRU state, guarded by Mutex: list front = most recent.
  mutable std::mutex Mutex;
  std::list<Entry> Lru;
  std::unordered_map<std::string, std::list<Entry>::iterator> Index;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Evictions = 0;
  uint64_t Insertions = 0;

  /// Persistence state, all guarded by JournalMutex. Whoever holds both
  /// takes JournalMutex first.
  std::string JournalPath;
  std::ofstream Journal;
  mutable std::mutex JournalMutex;
  uint64_t JournalRecords = 0; ///< Records in the file, live or dead.
  uint64_t LoadedCount = 0;
  uint64_t CompactionCount = 0;
};

/// The journal encoding of one result, shared with the cache_persist
/// micro-benchmark: every result-affecting LiftResult field round-trips
/// (programs travel as printed TACO text).
support::Json liftResultToJson(const core::LiftResult &Result);

/// Rebuilds \p Out from liftResultToJson output; false when \p Value is
/// structurally wrong or a program fails to re-parse (corrupt record).
bool liftResultFromJson(const support::Json &Value, core::LiftResult &Out);

/// Renders "hits H misses M ... (rate R%)" for --cache-stats output.
std::string formatCacheStats(const CacheStats &Stats);

} // namespace serve
} // namespace stagg

#endif // STAGG_SERVE_RESULTCACHE_H
