//===- profile/StoreBudget.h - Memory budget + LRU policy for the store ---===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The accounting half of the out-of-core ProfileStore: a byte budget, a
/// recency (LRU) order over profile ids, and the per-id resident cost.
/// The policy is deliberately separated from the store so it can be unit
/// tested without touching files or profiles — the store asks "who is
/// coldest?" and spills that victim's profile block.
///
/// Not thread-safe: ProfileStore calls it under its own mutex.
///
//===----------------------------------------------------------------------===//

#ifndef EASYVIEW_PROFILE_STOREBUDGET_H
#define EASYVIEW_PROFILE_STOREBUDGET_H

#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

namespace ev {

/// A point-in-time snapshot of the store's memory accounting, surfaced
/// through pvp/stats and `evtool store --stats`.
struct StoreStats {
  uint64_t Profiles = 0;      ///< Ids currently registered.
  uint64_t BudgetBytes = 0;   ///< Configured budget; 0 = unlimited.
  uint64_t ResidentBytes = 0; ///< Profile blocks resident (arena or mapped).
  uint64_t SpilledBytes = 0;  ///< Bytes currently held in spill files.
  uint64_t Spills = 0;        ///< Cumulative spill-file writes.
  uint64_t Evictions = 0;     ///< Cumulative resident-block drops.
  uint64_t Faults = 0;        ///< Cumulative remaps of spilled blocks.
  uint64_t SpillFailures = 0; ///< Evictions skipped because a spill failed.
};

/// Budget limit + LRU recency + per-id resident cost. Ids are charged
/// whatever bytes the store currently holds for them; recency moves on
/// charge() and touch() but NOT on recharge(), so shrinking a victim
/// during eviction does not promote it back to hot.
class StoreBudget {
public:
  void setLimit(uint64_t Bytes) { Limit = Bytes; }
  uint64_t limit() const { return Limit; }

  /// Upserts \p Id at \p Bytes and marks it most recently used.
  void charge(int64_t Id, uint64_t Bytes);

  /// Updates \p Id's cost without touching recency (no-op when \p Id is
  /// not tracked).
  void recharge(int64_t Id, uint64_t Bytes);

  /// Marks \p Id most recently used (no-op when untracked).
  void touch(int64_t Id);

  /// Stops tracking \p Id. \returns the bytes it was charged.
  uint64_t release(int64_t Id);

  /// Total bytes currently charged across all tracked ids.
  uint64_t chargedBytes() const { return Charged; }

  /// True when a limit is set and charges exceed it.
  bool overLimit() const { return Limit != 0 && Charged > Limit; }

  /// Tracked ids from least to most recently used — the eviction scan
  /// order. Snapshot semantics: safe to release()/recharge() while
  /// iterating the returned vector.
  std::vector<int64_t> coldestFirst() const;

  size_t trackedCount() const { return Index.size(); }
  uint64_t chargeOf(int64_t Id) const;

private:
  uint64_t Limit = 0;
  uint64_t Charged = 0;
  std::list<int64_t> Lru; ///< front = coldest, back = hottest.
  struct Slot {
    std::list<int64_t>::iterator Pos;
    uint64_t Bytes = 0;
  };
  std::unordered_map<int64_t, Slot> Index;
};

} // namespace ev

#endif // EASYVIEW_PROFILE_STOREBUDGET_H
