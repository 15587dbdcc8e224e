//===- ide/ViewCache.h - Concurrency-safe memoized view cache -------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The memoized view cache behind the PVP methods the method table marks
/// as cached (docs/PVP.md "Method policy"), shared by every session of a
/// concurrent PVP service. One staleness rule: keys embed the profile's
/// invalidation generation, so a view of an old generation is never looked
/// up again. A cached view lives as long as its generation: when a request
/// ends one (close, a retiring method, an append), the dispatcher retires
/// the profile and its entries are dropped at once; otherwise a view stays
/// until the LRU evicts it.
///
/// An entry holds its reply as compact JSON text in one immutable shared
/// buffer, so a hit copies a pointer and the frame writer splices the text
/// (json::Value::serialized). bytes() is the exact text the entries hold.
/// One mutex guards one LRU of exactly capacity() entries; dropped replies
/// are released after the lock is, so the critical section only moves list
/// nodes.
///
//===----------------------------------------------------------------------===//

#ifndef EASYVIEW_IDE_VIEWCACHE_H
#define EASYVIEW_IDE_VIEWCACHE_H

#include "query/Compiler.h"

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
  /// Creates a cache of \p Capacity entries. Capacity 0 disables the cache
  /// (every insert is a no-op).
  explicit ViewCache(size_t Capacity) : Capacity(Capacity) {}

  using Text = std::shared_ptr<const std::string>;

  /// \returns the cached reply text for \p Key, refreshing its LRU
  /// position, or null on miss.
  Text lookup(const std::string &Key);

  /// Inserts \p Reply under \p Key, recording every profile of the key
  /// (\p ProfileIds) for retire(); evicts least-recently-used entries
  /// beyond capacity(). Re-inserting an existing key refreshes it in place.
  void insert(std::string Key, std::vector<int64_t> ProfileIds, Text Reply);

  /// Drops every entry whose key names \p ProfileId: its generation ended.
  void retire(int64_t ProfileId);

  size_t capacity() const { return Capacity; }
  size_t size() const;
  /// Bytes of reply text the entries hold. This is what pvp/stats reports
  /// as cacheBytes, so cache memory is attributable separately from the
  /// profile store's residentBytes.
  uint64_t bytes() const {
    return Bytes.load(std::memory_order_relaxed);
  }
  uint64_t hits() const { return Hits.load(std::memory_order_relaxed); }
  uint64_t misses() const { return Misses.load(std::memory_order_relaxed); }
  uint64_t evictions() const {
    return Evictions.load(std::memory_order_relaxed);
  }

  /// Compiled EVQL programs memoized for pvp/query, keyed by
  /// evql::programCacheKey (the source alone), so warm hits skip
  /// lex/parse/compile. This cache stores PROGRAMS, not replies,
  /// so it stays enabled even when the reply cache has capacity 0.
  evql::ProgramCache &programs() { return Programs; }

private:
  struct Entry {
    std::string Key;
    std::vector<int64_t> ProfileIds;
    Text Reply;
  };

  const size_t Capacity;
  evql::ProgramCache Programs;
  mutable std::mutex Mutex;
  std::list<Entry> Lru; ///< Front = most recently used.
  std::unordered_map<std::string, std::list<Entry>::iterator> Index;
  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> Misses{0};
  std::atomic<uint64_t> Evictions{0};
  std::atomic<uint64_t> Bytes{0};
};

} // namespace ev

#endif // EASYVIEW_IDE_VIEWCACHE_H
