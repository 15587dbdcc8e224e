//===- profile/ProfileStore.h - Shared out-of-core profile store ----------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-safe, refcounted store of immutable profiles, shared by every
/// session of a concurrent PVP service (ide/SessionManager.h). Profiles
/// are held as `std::shared_ptr<const Profile>`: a request that resolved a
/// profile keeps its own reference for the duration of the request, so a
/// concurrent close in another session retires the id immediately but the
/// in-flight request keeps reading a live object — no locks are held
/// during analysis, and the memory is reclaimed when the last reference
/// drops.
///
/// Beyond the refcounted map, the store is EasyView's out-of-core layer
/// (docs/PERF.md "Out-of-core profile store"). Every profile is one
/// immutable column block (profile/Profile.h), so with a byte budget
/// configured (setBudget) the store sheds cold profiles in a single LRU
/// tier: the block is written once to `<spillDir>/seg-<id>.evcol` and the
/// resident copy dropped; the next get() faults it back by mmap (zero
/// decode, fully validated). Blocks are immutable, so a block spilled once
/// is never rewritten — later evictions just drop the resident mapping.
/// stats() exposes the accounting that pvp/stats and
/// `evtool store --stats` report.
///
/// Ids are allocated from a single store-wide counter, so they are unique
/// across every session sharing the store (the shared view cache keys on
/// them). Each profile also carries an invalidation generation, bumped by
/// state-retiring methods (query/transform/prune) and by append(), and
/// retired by drop(). Cached view keys embed it, and the PVP dispatcher
/// drops a profile's cached views when a request ends its generation.
///
//===----------------------------------------------------------------------===//

#ifndef EASYVIEW_PROFILE_PROFILESTORE_H
#define EASYVIEW_PROFILE_PROFILESTORE_H

#include "profile/Profile.h"
#include "profile/StoreBudget.h"
#include "proto/EvProfStream.h"
#include "support/Result.h"

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace ev {

class ProfileStore {
public:
  ProfileStore() = default;
  /// Removes every spill file this store wrote.
  ~ProfileStore();
  ProfileStore(const ProfileStore &) = delete;
  ProfileStore &operator=(const ProfileStore &) = delete;

  /// Registers \p P under a fresh store-unique id.
  int64_t add(Profile P) {
    return add(std::make_shared<const Profile>(std::move(P)));
  }

  /// Registers an already-shared profile under a fresh id. Under an
  /// active budget cold entries are shed to stay within the budget.
  int64_t add(std::shared_ptr<const Profile> P);

  /// Opens a *streaming* profile from the leading bytes of a growing
  /// .evprof (at minimum the magic plus enough canonical-order fields to
  /// decode one node). The returned id behaves like any other profile, and
  /// additionally accepts append() sections. \p Limits bound the whole
  /// stream's decode cost, not just this prefix.
  Result<int64_t> openStream(std::string_view InitialBytes,
                             const DecodeLimits &Limits);

  /// Feeds additional bytes of the growing .evprof behind \p Id — any
  /// chunking, including mid-field splits; incomplete tails are buffered.
  /// On progress the profile snapshot is atomically replaced, a stale
  /// spill file is discarded, and the invalidation generation is bumped
  /// (so cached views retire and subscribers get deltas).
  ///
  /// Works on non-streamed profiles too: the first append bootstraps a
  /// decoder by replaying the profile's canonical writeEvProf form, so the
  /// appended section's wire references resolve against the canonical
  /// table order. \p Limits is used only for that bootstrap.
  ///
  /// \returns the number of nodes the profile gained. A structural error
  /// poisons the stream — the profile stays readable at its last good
  /// snapshot, but every later append fails with the same diagnostic.
  Result<size_t> append(int64_t Id, std::string_view Bytes,
                        const DecodeLimits &Limits);

  /// \returns the profile for \p Id, or nullptr when absent. The returned
  /// reference keeps the profile alive independent of a concurrent drop().
  /// A budget-evicted profile is faulted back in transparently (remapped
  /// from its spill file); the result is byte-identical to the originally
  /// added profile.
  std::shared_ptr<const Profile> get(int64_t Id) const;

  /// Retires \p Id from the store (in-flight references stay valid),
  /// forgets its generation and deletes its spill file. \returns true when
  /// the id was present.
  bool drop(int64_t Id);

  /// Generation reported for ids the store does not hold, never reached by
  /// a bump, so a dropped id's generation differs from every one it had.
  static constexpr uint64_t RetiredGeneration = UINT64_MAX;

  /// \returns the invalidation generation of \p Id (0 until bumped), or
  /// RetiredGeneration when the store does not hold \p Id.
  uint64_t generationOf(int64_t Id) const;

  /// Invalidates every cached view of \p Id by advancing its generation.
  /// Ids the store does not hold are ignored.
  void bumpGeneration(int64_t Id);

  size_t size() const;

  /// Configures the resident-byte budget. \p Bytes == 0 disables
  /// eviction; otherwise \p SpillDir (created if missing) receives cold
  /// profile blocks and the budget is enforced at once. Best effort: a
  /// single profile larger than the budget stays resident while it is the
  /// one in use.
  Result<bool> setBudget(uint64_t Bytes, const std::string &SpillDir);

  /// Point-in-time accounting snapshot (see StoreStats).
  StoreStats stats() const;

private:
  struct Entry {
    std::shared_ptr<const Profile> P; ///< null while spilled.
    uint64_t SpillFileBytes = 0;      ///< >0 once a spill file exists.
    std::string SpillPath;
  };

  /// Replaces \p E's snapshot with \p Stream's current profile,
  /// discarding a stale spill file, and bumps Id's generation.
  void refreshSnapshotLocked(int64_t Id, Entry &E,
                             const EvProfStreamDecoder &Stream);
  /// Registers \p P under a fresh id; the caller holds Mutex.
  int64_t addLocked(std::shared_ptr<const Profile> P);
  /// Sheds cold entries until under budget; \p Pinned is never evicted.
  void enforceLocked(int64_t Pinned) const;
  std::string spillPathFor(int64_t Id) const;

  mutable std::mutex Mutex;
  mutable std::map<int64_t, Entry> Profiles;
  std::map<int64_t, uint64_t> Generations;
  /// Live decoders of streaming profiles: their snapshots replace the
  /// entry's profile on append. A decoder's working state is NOT
  /// budget-charged (it is bounded by its DecodeLimits).
  std::map<int64_t, std::unique_ptr<EvProfStreamDecoder>> Streams;
  mutable StoreBudget Budget;
  mutable StoreStats Counters; ///< Cumulative fields; gauges derived.
  std::string SpillDir;
  int64_t NextId = 1;
};

} // namespace ev

#endif // EASYVIEW_PROFILE_PROFILESTORE_H
