//===- ide/ViewCache.h - Concurrency-safe memoized view cache -------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The memoized view cache behind the PVP methods the method table marks
/// as cached (docs/PVP.md "Method policy"), shared by every session of a
/// concurrent PVP service. Two layers of staleness defense:
///
///  1. Keys embed the profile's invalidation generation, so a bumped
///     profile simply stops matching and its old views age out of the LRU.
///  2. Each entry also records the (profile id, generation) it was
///     computed at; a hit is revalidated against the store's CURRENT
///     generation. This closes the cross-session race where session A
///     retires a profile while session B's request — which captured the
///     old generation when it built its key — is still in flight: B's
///     stale entry is dropped instead of being served or re-inserted over
///     a fresh one.
///
/// The map is shard-locked: a key hashes to one of N shards, each an
/// independent mutex + LRU list, so concurrent sessions rarely contend.
/// With Shards == 1 the cache degenerates to exactly the single global
/// LRU the sequential server always had (capacity, eviction order, and
/// hit/miss/eviction counts are pinned by tests/parallel_test.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef EASYVIEW_IDE_VIEWCACHE_H
#define EASYVIEW_IDE_VIEWCACHE_H

#include "query/Compiler.h"
#include "support/Json.h"

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace ev {

class ViewCache {
public:
  /// Creates a cache of \p Capacity entries total, spread over \p Shards
  /// independently locked LRU shards. Capacity 0 disables the cache (every
  /// insert is a no-op); Shards is clamped so no shard has zero capacity.
  explicit ViewCache(size_t Capacity, size_t Shards = 1);

  /// \returns the cached reply for \p Key, refreshing its LRU position,
  /// or nullptr on miss. A hit whose recorded generation differs from
  /// \p CurrentGeneration is dropped and reported as a miss. The returned
  /// value is a copy (json::Value is cheaply copyable) so no shard lock is
  /// held by the caller.
  std::unique_ptr<json::Value> lookup(const std::string &Key,
                                      uint64_t CurrentGeneration);

  /// Inserts \p Reply under \p Key, recording the (profile, generation)
  /// pair it was computed at; evicts least-recently-used entries beyond
  /// the shard capacity. Re-inserting an existing key refreshes it in
  /// place. \p Generation must be the generation CAPTURED WHEN THE VIEW
  /// WAS COMPUTED, not the current one — inserting a view computed at a
  /// retired generation is rejected by the next lookup's validation.
  void insert(std::string Key, int64_t ProfileId, uint64_t Generation,
              json::Value Reply);

  size_t capacity() const { return TotalCapacity; }
  size_t size() const;
  /// Approximate bytes of cached reply payload across all shards. This is
  /// what pvp/stats reports as cacheBytes, so cache memory is attributable
  /// separately from the profile store's residentBytes.
  uint64_t approxBytes() const {
    return Bytes.load(std::memory_order_relaxed);
  }
  size_t shardCount() const { return Shards.size(); }
  uint64_t hits() const { return Hits.load(std::memory_order_relaxed); }
  uint64_t misses() const { return Misses.load(std::memory_order_relaxed); }
  uint64_t evictions() const {
    return Evictions.load(std::memory_order_relaxed);
  }
  /// Stale entries dropped by generation revalidation on lookup. These are
  /// a SUBSET of misses() (a revalidation drop also counts as a miss), so
  /// aggregating stats must not add the two together.
  uint64_t revalidationDrops() const {
    return Revalidations.load(std::memory_order_relaxed);
  }

  /// Compiled EVQL programs memoized for pvp/query, keyed by
  /// evql::programCacheKey (the source alone), so warm hits skip
  /// lex/parse/compile. This cache stores PROGRAMS, not replies,
  /// so it stays enabled even when the reply cache has capacity 0.
  evql::ProgramCache &programs() { return Programs; }

private:
  struct Entry {
    std::string Key;
    int64_t ProfileId;
    uint64_t Generation;
    json::Value Reply;
    uint64_t Bytes = 0; ///< approx reply payload, computed at insert.
  };

  struct Shard {
    std::mutex Mutex;
    std::list<Entry> Lru; ///< Front = most recently used.
    std::unordered_map<std::string, std::list<Entry>::iterator> Index;
    size_t Capacity = 0;
  };

  Shard &shardFor(const std::string &Key);

  size_t TotalCapacity;
  evql::ProgramCache Programs;
  std::vector<std::unique_ptr<Shard>> Shards;
  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> Misses{0};
  std::atomic<uint64_t> Evictions{0};
  std::atomic<uint64_t> Revalidations{0};
  std::atomic<uint64_t> Bytes{0};
};

} // namespace ev

#endif // EASYVIEW_IDE_VIEWCACHE_H
