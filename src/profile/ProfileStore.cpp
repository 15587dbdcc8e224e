//===- profile/ProfileStore.cpp - Shared out-of-core profile store --------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "profile/ProfileStore.h"

#include "proto/EvProf.h"
#include "support/FileIo.h"

#include <cassert>
#include <tuple>

#include <sys/stat.h>
#include <unistd.h>

namespace ev {

ProfileStore::~ProfileStore() {
  for (const auto &[Id, E] : Profiles)
    if (E.SpillFileBytes != 0)
      ::unlink(E.SpillPath.c_str());
}

std::string ProfileStore::spillPathFor(int64_t Id) const {
  return SpillDir + "/seg-" + std::to_string(Id) + ".evcol";
}

int64_t ProfileStore::addLocked(std::shared_ptr<const Profile> P) {
  int64_t Id = NextId++;
  uint64_t Bytes = P->approxMemoryBytes();
  Entry E;
  E.P = std::move(P);
  Counters.ResidentBytes += Bytes;
  Profiles.emplace(Id, std::move(E));
  Budget.charge(Id, Bytes);
  enforceLocked(Id);
  return Id;
}

int64_t ProfileStore::add(std::shared_ptr<const Profile> P) {
  std::lock_guard<std::mutex> Lock(Mutex);
  return addLocked(std::move(P));
}

Result<int64_t> ProfileStore::openStream(std::string_view InitialBytes,
                                         const DecodeLimits &Limits) {
  auto Decoder = std::make_unique<EvProfStreamDecoder>(Limits);
  if (Result<size_t> Fed = Decoder->feed(InitialBytes); !Fed)
    return makeError(Fed.error());
  Result<Profile> Snapshot = Decoder->snapshot();
  if (!Snapshot)
    return makeError(Snapshot.error());

  std::lock_guard<std::mutex> Lock(Mutex);
  int64_t Id = addLocked(std::make_shared<const Profile>(Snapshot.take()));
  Streams.emplace(Id, std::move(Decoder));
  return Id;
}

void ProfileStore::refreshSnapshotLocked(int64_t Id, Entry &E,
                                         const EvProfStreamDecoder &Stream) {
  Result<Profile> Snapshot = Stream.snapshot();
  assert(Snapshot && "refresh is only reached after successful decode");
  if (!Snapshot)
    return;
  bool WasResident = E.P != nullptr;
  Counters.ResidentBytes -= Budget.chargeOf(Id); // 0 while spilled.
  E.P = std::make_shared<const Profile>(Snapshot.take());
  uint64_t Bytes = E.P->approxMemoryBytes();
  Counters.ResidentBytes += Bytes;
  // A spill file captured the pre-append content; it is stale now and is
  // rewritten on the next eviction.
  if (E.SpillFileBytes != 0) {
    Counters.SpilledBytes -= E.SpillFileBytes;
    ::unlink(E.SpillPath.c_str());
    E.SpillFileBytes = 0;
  }
  // A resident entry keeps its LRU position; a spilled one re-enters hot.
  if (WasResident)
    Budget.recharge(Id, Bytes);
  else
    Budget.charge(Id, Bytes);
  enforceLocked(Id);
  // Retire every cached view of the old content and wake subscribers.
  ++Generations[Id];
}

Result<size_t> ProfileStore::append(int64_t Id, std::string_view Bytes,
                                    const DecodeLimits &Limits) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Profiles.find(Id);
  if (It == Profiles.end())
    return makeError("unknown profile id " + std::to_string(Id));
  Entry &E = It->second;

  auto SIt = Streams.find(Id);
  if (SIt == Streams.end()) {
    // Bootstrap: replay the profile's canonical serialization through a
    // fresh decoder, so the appended section's wire references (string,
    // frame, metric, node ids) resolve against canonical table order —
    // exactly what a client diffing against writeEvProf output expects.
    std::shared_ptr<const Profile> Current = E.P;
    if (!Current) {
      Result<Profile> Mapped = Profile::mapFrom(E.SpillPath);
      if (!Mapped)
        return makeError("profile " + std::to_string(Id) +
                         " is unrecoverable");
      Current = std::make_shared<const Profile>(Mapped.take());
    }
    auto Decoder = std::make_unique<EvProfStreamDecoder>(Limits);
    Result<size_t> Replayed = Decoder->feed(writeEvProf(*Current));
    if (!Replayed)
      return makeError("cannot bootstrap stream decoder: " +
                       Replayed.error());
    SIt = Streams.emplace(Id, std::move(Decoder)).first;
  }
  EvProfStreamDecoder &Stream = *SIt->second;

  auto Signature = [](const ProfileBuilder &B) {
    return std::tuple(B.name(), B.nodeCount(), B.frameCount(),
                      B.metrics().size(), B.stringCount(), B.groupCount());
  };
  auto Before = Signature(Stream.current());
  Result<size_t> Added = Stream.feed(Bytes);
  if (!Added)
    return makeError(Added.error());
  if (Signature(Stream.current()) != Before)
    refreshSnapshotLocked(Id, E, Stream);
  return *Added;
}

std::shared_ptr<const Profile> ProfileStore::get(int64_t Id) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Profiles.find(Id);
  if (It == Profiles.end())
    return nullptr;
  Entry &E = It->second;
  if (E.P) {
    Budget.touch(Id);
    return E.P;
  }
  // Fault path: the block was spilled; map it back.
  Result<Profile> Mapped = Profile::mapFrom(E.SpillPath);
  if (!Mapped)
    return nullptr; // Spill file lost or corrupt; id is unrecoverable.
  E.P = std::make_shared<const Profile>(Mapped.take());
  uint64_t Bytes = E.P->approxMemoryBytes();
  Counters.ResidentBytes += Bytes;
  ++Counters.Faults;
  Budget.charge(Id, Bytes); // charge() also promotes to hottest.
  enforceLocked(Id);
  return E.P;
}

bool ProfileStore::drop(int64_t Id) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Profiles.find(Id);
  if (It == Profiles.end())
    return false;
  Entry &E = It->second;
  Counters.ResidentBytes -= Budget.release(Id);
  if (E.SpillFileBytes != 0) {
    Counters.SpilledBytes -= E.SpillFileBytes;
    ::unlink(E.SpillPath.c_str());
  }
  Profiles.erase(It);
  Generations.erase(Id);
  Streams.erase(Id);
  return true;
}

uint64_t ProfileStore::generationOf(int64_t Id) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (!Profiles.count(Id))
    return RetiredGeneration;
  auto It = Generations.find(Id);
  return It == Generations.end() ? 0 : It->second;
}

void ProfileStore::bumpGeneration(int64_t Id) {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Profiles.count(Id))
    ++Generations[Id];
}

size_t ProfileStore::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Profiles.size();
}

Result<bool> ProfileStore::setBudget(uint64_t Bytes,
                                     const std::string &Dir) {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Bytes == 0) {
    Budget.setLimit(0);
    return true;
  }
  if (Dir.empty())
    return makeError("store budget requires a spill directory");
  ::mkdir(Dir.c_str(), 0755); // EEXIST is fine; verified below.
  if (!isDirectory(Dir))
    return makeError("cannot create spill directory '" + Dir + "'");
  SpillDir = Dir;
  Budget.setLimit(Bytes);
  enforceLocked(/*Pinned=*/-1);
  return true;
}

void ProfileStore::enforceLocked(int64_t Pinned) const {
  if (!Budget.overLimit())
    return;
  // Spill the coldest blocks. Blocks are immutable, so an existing spill
  // file is reused without a rewrite.
  for (int64_t Id : Budget.coldestFirst()) {
    if (!Budget.overLimit())
      return;
    if (Id == Pinned)
      continue;
    Entry &E = Profiles.find(Id)->second;
    if (E.SpillFileBytes == 0) {
      if (E.SpillPath.empty())
        E.SpillPath = spillPathFor(Id);
      Result<uint64_t> Written = E.P->spillTo(E.SpillPath);
      if (!Written) {
        ++Counters.SpillFailures; // Keep it resident; try again later.
        continue;
      }
      E.SpillFileBytes = *Written;
      Counters.SpilledBytes += E.SpillFileBytes;
      ++Counters.Spills;
    }
    E.P.reset();
    Counters.ResidentBytes -= Budget.release(Id);
    ++Counters.Evictions;
  }
}

StoreStats ProfileStore::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  StoreStats S = Counters;
  S.Profiles = Profiles.size();
  S.BudgetBytes = Budget.limit();
  assert(S.ResidentBytes == Budget.chargedBytes() &&
         "incremental accounting must match the LRU charges");
  return S;
}

} // namespace ev
