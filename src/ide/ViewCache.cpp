//===- ide/ViewCache.cpp - Concurrency-safe memoized view cache -----------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "ide/ViewCache.h"

#include "support/Telemetry.h"

#include <algorithm>
#include <iterator>

namespace ev {

namespace {

/// Process-wide mirrors of the per-instance counters, so pvp/metrics sees
/// cache behavior without a handle to the cache object. Handles are pinned
/// once; updates are relaxed atomics.
struct CacheTelemetry {
  telemetry::Counter &Hits;
  telemetry::Counter &Misses;
  telemetry::Counter &Evictions;
  static CacheTelemetry &get() {
    static CacheTelemetry T{
        telemetry::Registry::global().counter("viewcache.hits"),
        telemetry::Registry::global().counter("viewcache.misses"),
        telemetry::Registry::global().counter("viewcache.evictions")};
    return T;
  }
};

} // namespace

ViewCache::Text ViewCache::lookup(const std::string &Key) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Index.find(Key);
    if (It != Index.end()) {
      Lru.splice(Lru.begin(), Lru, It->second);
      Hits.fetch_add(1, std::memory_order_relaxed);
      CacheTelemetry::get().Hits.add();
      return It->second->Reply;
    }
  }
  Misses.fetch_add(1, std::memory_order_relaxed);
  CacheTelemetry::get().Misses.add();
  return nullptr;
}

void ViewCache::insert(std::string Key, std::vector<int64_t> ProfileIds,
                       Text Reply) {
  if (Capacity == 0)
    return;
  // Evicted entries, and the reply a re-insert displaces (swapped into
  // Reply), are released after the lock is.
  std::list<Entry> Evicted;
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Index.find(Key);
  if (It != Index.end()) {
    Entry &E = *It->second;
    Bytes.fetch_add(Reply->size() - E.Reply->size(),
                    std::memory_order_relaxed);
    E.ProfileIds = std::move(ProfileIds);
    std::swap(E.Reply, Reply);
    Lru.splice(Lru.begin(), Lru, It->second);
    return;
  }
  Bytes.fetch_add(Reply->size(), std::memory_order_relaxed);
  Lru.push_front(Entry{Key, std::move(ProfileIds), std::move(Reply)});
  Index.emplace(std::move(Key), Lru.begin());
  while (Lru.size() > Capacity) {
    Bytes.fetch_sub(Lru.back().Reply->size(), std::memory_order_relaxed);
    Index.erase(Lru.back().Key);
    Evicted.splice(Evicted.end(), Lru, std::prev(Lru.end()));
    Evictions.fetch_add(1, std::memory_order_relaxed);
    CacheTelemetry::get().Evictions.add();
  }
}

void ViewCache::retire(int64_t ProfileId) {
  std::list<Entry> Retired; // Destroyed after the lock is released.
  std::lock_guard<std::mutex> Lock(Mutex);
  for (auto It = Lru.begin(); It != Lru.end();) {
    auto Next = std::next(It);
    if (std::find(It->ProfileIds.begin(), It->ProfileIds.end(),
                  ProfileId) != It->ProfileIds.end()) {
      Bytes.fetch_sub(It->Reply->size(), std::memory_order_relaxed);
      Index.erase(It->Key);
      Retired.splice(Retired.end(), Lru, It);
    }
    It = Next;
  }
}

size_t ViewCache::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Lru.size();
}

} // namespace ev
