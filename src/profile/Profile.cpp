//===- profile/Profile.cpp - Generic profile representation ---------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "profile/Profile.h"

#include "profile/ProfileBuilder.h"
#include "support/FileIo.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unordered_set>

namespace ev {

std::string_view frameKindName(FrameKind Kind) {
  switch (Kind) {
  case FrameKind::Root:
    return "root";
  case FrameKind::Function:
    return "function";
  case FrameKind::Loop:
    return "loop";
  case FrameKind::BasicBlock:
    return "basic-block";
  case FrameKind::Instruction:
    return "instruction";
  case FrameKind::DataObject:
    return "data-object";
  case FrameKind::Thread:
    return "thread";
  }
  return "unknown";
}

//===----------------------------------------------------------------------===//
// Block layout
//===----------------------------------------------------------------------===//

namespace {

/// The spill-file header occupies exactly one page so the block that
/// follows it stays page-aligned inside the mapping.
constexpr size_t HeaderBytes = 4096;
/// Columns are 64-byte aligned within the block (cache line; also covers
/// the 8-byte requirement of the double and record columns).
constexpr uint64_t ColumnAlign = 64;

uint64_t roundUp(uint64_t V, uint64_t A) { return (V + A - 1) / A * A; }

/// On-disk header. Fixed-width fields only; memcpy-ed in and out so the
/// struct's own alignment never matters.
struct DiskHeader {
  char Magic[8];
  Profile::Header Counts;
  uint64_t LabelBytes; ///< The label follows the block.
};
static_assert(sizeof(DiskHeader) <= HeaderBytes, "header must fit its page");

/// Byte offsets of every column inside the block: a pure function of the
/// counts, so the spill format never stores offsets that could disagree
/// with the data.
struct Layout {
  uint64_t Parents, FrameRefs, ChildOff, ChildIds, ValueOff, Values, Frames;
  uint64_t StrOff, StrChars, SchemaOff, SchemaChars, MetricAggs;
  uint64_t GroupKinds, GroupMetrics, GroupValues, GroupCtxOff, GroupCtxIds;
  uint64_t Total;
};

/// The schema strings are each metric's name and unit.
uint64_t schemaStrings(const Profile::Header &H) { return 2 * H.Metrics; }

Layout computeLayout(const Profile::Header &H) {
  Layout L;
  uint64_t Cursor = 0;
  auto Place = [&Cursor](uint64_t Count, uint64_t Width) {
    uint64_t Offset = roundUp(Cursor, ColumnAlign);
    Cursor = Offset + Count * Width;
    return Offset;
  };
  uint64_t NonRoot = H.Nodes ? H.Nodes - 1 : 0;
  L.Parents = Place(H.Nodes, 4);
  L.FrameRefs = Place(H.Nodes, 4);
  L.ChildOff = Place(H.Nodes + 1, 4);
  L.ChildIds = Place(NonRoot, 4);
  L.ValueOff = Place(H.Nodes + 1, 4);
  L.Values = Place(H.Values, sizeof(MetricValue));
  L.Frames = Place(H.Frames, sizeof(Frame));
  L.StrOff = Place(H.Strings + 1, 4);
  L.StrChars = Place(H.StringBytes, 1);
  L.SchemaOff = Place(schemaStrings(H) + 1, 4);
  L.SchemaChars = Place(H.SchemaBytes, 1);
  L.MetricAggs = Place(H.Metrics, 1);
  L.GroupKinds = Place(H.Groups, 4);
  L.GroupMetrics = Place(H.Groups, 4);
  L.GroupValues = Place(H.Groups, 8);
  L.GroupCtxOff = Place(H.Groups + 1, 4);
  L.GroupCtxIds = Place(H.GroupContexts, 4);
  L.Total = roundUp(std::max<uint64_t>(Cursor, 1), ColumnAlign);
  return L;
}

template <typename T> T *columnAt(char *Block, uint64_t Offset) {
  return reinterpret_cast<T *>(Block + Offset);
}
template <typename T> const T *columnAt(const char *Block, uint64_t Offset) {
  return reinterpret_cast<const T *>(Block + Offset);
}

void freeArena(char *P) { std::free(P); }

std::string_view stringAt(const uint32_t *Off, const char *Chars, size_t I) {
  return {Chars + Off[I], Off[I + 1] - Off[I]};
}

} // namespace

/// The immutable bytes behind a Profile (a heap arena or a read-only spill
/// mapping), plus the metric schema decoded out of them once.
struct Profile::Block {
  Header Counts;
  std::unique_ptr<char, void (*)(char *)> Arena{nullptr, &freeArena};
  MappedFile Mapping;
  const char *Bytes = nullptr;
  std::vector<MetricDescriptor> Metrics;
};

Profile::Profile(std::shared_ptr<const Block> D, std::string Name)
    : Data(std::move(D)), Label(std::move(Name)) {
  bind();
}

void Profile::bind() {
  Counts = Data->Counts;
  Layout L = computeLayout(Counts);
  const char *B = Data->Bytes;
  Parents = columnAt<NodeId>(B, L.Parents);
  FrameRefs = columnAt<FrameId>(B, L.FrameRefs);
  ChildOff = columnAt<uint32_t>(B, L.ChildOff);
  ChildIds = columnAt<NodeId>(B, L.ChildIds);
  ValueOff = columnAt<uint32_t>(B, L.ValueOff);
  Values = columnAt<MetricValue>(B, L.Values);
  Frames = columnAt<Frame>(B, L.Frames);
  StrOff = columnAt<uint32_t>(B, L.StrOff);
  StrChars = columnAt<char>(B, L.StrChars);
  GroupKinds = columnAt<uint32_t>(B, L.GroupKinds);
  GroupMetrics = columnAt<uint32_t>(B, L.GroupMetrics);
  GroupValues = columnAt<double>(B, L.GroupValues);
  GroupCtxOff = columnAt<uint32_t>(B, L.GroupCtxOff);
  GroupCtxIds = columnAt<NodeId>(B, L.GroupCtxIds);
}

namespace {

const Profile &bareProfile() {
  static const Profile Bare = ProfileBuilder().take();
  return Bare;
}

} // namespace

Profile::Profile() : Profile(bareProfile()) {}

Profile::Profile(Profile &&Other) noexcept : Profile(Other) {
  Other = bareProfile();
}

Profile &Profile::operator=(Profile &&Other) noexcept {
  if (this != &Other) {
    *this = static_cast<const Profile &>(Other);
    Other = bareProfile();
  }
  return *this;
}

Profile Profile::renamed(std::string Name) const {
  Profile Copy(*this);
  Copy.Label = std::move(Name);
  return Copy;
}

const std::vector<MetricDescriptor> &Profile::metrics() const {
  return Data->Metrics;
}

MetricId Profile::findMetric(std::string_view Name) const {
  const std::vector<MetricDescriptor> &Table = metrics();
  for (MetricId I = 0; I < Table.size(); ++I)
    if (Table[I].Name == Name)
      return I;
  return InvalidMetric;
}

ContextGroup Profile::groupAt(uint32_t I) const {
  return {GroupKinds[I],
          std::span<const NodeId>(GroupCtxIds + GroupCtxOff[I],
                                  GroupCtxOff[I + 1] - GroupCtxOff[I]),
          GroupMetrics[I], GroupValues[I]};
}

std::vector<NodeId> Profile::pathTo(NodeId Id) const {
  // Size the path from a depth walk, then fill back-to-front: one exact
  // allocation and no reversal, so per-leaf reconstruction (the bottom-up
  // transform and exporters call this per context) stays O(depth).
  std::vector<NodeId> Path(depth(Id) + 1);
  size_t Slot = Path.size();
  for (NodeId Cur = Id; Cur != InvalidNode; Cur = Parents[Cur])
    Path[--Slot] = Cur;
  return Path;
}

unsigned Profile::depth(NodeId Id) const {
  assert(Id < Counts.Nodes && "node id out of range");
  unsigned D = 0;
  for (NodeId Cur = Id; Parents[Cur] != InvalidNode; Cur = Parents[Cur])
    ++D;
  return D;
}

Result<bool> Profile::verify() const {
  size_t N = nodeCount();
  if (N == 0)
    return makeError("profile has no root node");
  if (Parents[0] != InvalidNode)
    return makeError("root node has a parent");
  for (NodeId Id = 0; Id < N; ++Id) {
    if (FrameRefs[Id] >= Counts.Frames)
      return makeError("node " + std::to_string(Id) +
                       " references out-of-range frame");
    if (Id != 0) {
      if (Parents[Id] == InvalidNode)
        return makeError("non-root node " + std::to_string(Id) +
                         " has no parent");
      if (Parents[Id] >= Id)
        return makeError("node " + std::to_string(Id) +
                         " does not follow its parent (cycle risk)");
    }
    for (NodeId Child : node(Id).Children) {
      if (Child >= N)
        return makeError("node " + std::to_string(Id) +
                         " has out-of-range child");
      if (Parents[Child] != Id)
        return makeError("child " + std::to_string(Child) +
                         " does not point back to parent " +
                         std::to_string(Id));
    }
    for (const MetricValue &MV : node(Id).Metrics)
      if (MV.Metric >= Counts.Metrics)
        return makeError("node " + std::to_string(Id) +
                         " references out-of-range metric");
  }
  if (ChildOff[N] != N - 1)
    return makeError("child lists do not cover every non-root node");
  for (const Frame &F : frames()) {
    if (F.Name >= Counts.Strings || F.Loc.File >= Counts.Strings ||
        F.Loc.Module >= Counts.Strings)
      return makeError("frame references out-of-range string");
  }
  for (const ContextGroup &Group : groups()) {
    if (Group.Metric >= Counts.Metrics)
      return makeError("context group references out-of-range metric");
    if (Group.Kind >= Counts.Strings)
      return makeError("context group references out-of-range kind string");
    for (NodeId Ctx : Group.Contexts)
      if (Ctx >= N)
        return makeError("context group references out-of-range node");
  }
  return true;
}

size_t Profile::approxMemoryBytes() const { return Counts.BlockBytes; }

bool Profile::isMapped() const { return Data->Mapping.valid(); }

//===----------------------------------------------------------------------===//
// Freezing (the one place that writes a block)
//===----------------------------------------------------------------------===//

Profile ProfileBuilder::build() const {
  Profile::Header H;
  H.Nodes = Parents.size();
  H.Values = Values.size();
  H.Frames = Frames.size();
  H.Strings = Strings.size();
  for (StringId I = 0; I < Strings.size(); ++I)
    H.StringBytes += Strings.text(I).size();
  H.Metrics = Metrics.size();
  for (const MetricDescriptor &M : Metrics)
    H.SchemaBytes += M.Name.size() + M.Unit.size();
  H.Groups = Groups.size();
  H.GroupContexts = GroupContexts.size();
  assert(H.Values <= UINT32_MAX && H.StringBytes <= UINT32_MAX &&
         H.SchemaBytes <= UINT32_MAX && H.GroupContexts <= UINT32_MAX &&
         "CSR offsets are 32-bit");

  Layout L = computeLayout(H);
  H.BlockBytes = L.Total;
  auto B = std::make_shared<Profile::Block>();
  B->Counts = H;
  char *Buf = static_cast<char *>(std::aligned_alloc(ColumnAlign, L.Total));
  if (!Buf)
    throw std::bad_alloc();
  // Zero the whole block: padding must be deterministic so a spilled
  // block's bytes depend only on the profile's contents.
  std::memset(Buf, 0, L.Total);
  B->Arena.reset(Buf);
  B->Bytes = Buf;

  // Topology. Nodes are created parents-first and every child is the
  // newest node when it is attached, so each child list in insertion order
  // is exactly the ids naming that parent, ascending: a counting sort over
  // the parents column rebuilds it.
  size_t N = H.Nodes;
  std::memcpy(Buf + L.Parents, Parents.data(), N * sizeof(NodeId));
  std::memcpy(Buf + L.FrameRefs, FrameRefs.data(), N * sizeof(FrameId));
  uint32_t *ChildOffsets = columnAt<uint32_t>(Buf, L.ChildOff);
  uint32_t *Children = columnAt<uint32_t>(Buf, L.ChildIds);
  for (size_t I = 1; I < N; ++I)
    ++ChildOffsets[Parents[I] + 1];
  for (size_t I = 0; I < N; ++I)
    ChildOffsets[I + 1] += ChildOffsets[I];
  {
    std::vector<uint32_t> Cursor(ChildOffsets, ChildOffsets + N);
    for (size_t I = 1; I < N; ++I)
      Children[Cursor[Parents[I]]++] = static_cast<NodeId>(I);
  }

  // Exclusive values, node by node, each node's in insertion order.
  uint32_t *ValueOffsets = columnAt<uint32_t>(Buf, L.ValueOff);
  MetricValue *OutValues = columnAt<MetricValue>(Buf, L.Values);
  uint32_t Cursor = 0;
  for (size_t I = 0; I < N; ++I) {
    ValueOffsets[I] = Cursor;
    for (uint32_t S = ValueHead[I]; S != NoSlot; S = ValueNext[S]) {
      OutValues[Cursor].Metric = Values[S].Metric;
      OutValues[Cursor].Value = Values[S].Value;
      ++Cursor;
    }
  }
  ValueOffsets[N] = Cursor;

  Frame *OutFrames = columnAt<Frame>(Buf, L.Frames);
  for (size_t I = 0; I < H.Frames; ++I) {
    const Frame &F = Frames[I];
    OutFrames[I].Kind = F.Kind;
    OutFrames[I].Name = F.Name;
    OutFrames[I].Loc.File = F.Loc.File;
    OutFrames[I].Loc.Line = F.Loc.Line;
    OutFrames[I].Loc.Module = F.Loc.Module;
    OutFrames[I].Loc.Address = F.Loc.Address;
  }

  auto PutStrings = [](uint32_t *Off, char *Chars, auto &&Texts,
                       size_t Count) {
    uint32_t At = 0;
    for (size_t I = 0; I < Count; ++I) {
      std::string_view T = Texts(I);
      Off[I] = At;
      if (!T.empty()) // An empty view may carry a null data pointer.
        std::memcpy(Chars + At, T.data(), T.size());
      At += static_cast<uint32_t>(T.size());
    }
    Off[Count] = At;
  };
  PutStrings(columnAt<uint32_t>(Buf, L.StrOff),
             columnAt<char>(Buf, L.StrChars),
             [&](size_t I) { return Strings.text(static_cast<StringId>(I)); },
             H.Strings);
  PutStrings(columnAt<uint32_t>(Buf, L.SchemaOff),
             columnAt<char>(Buf, L.SchemaChars),
             [&](size_t I) -> std::string_view {
               const MetricDescriptor &M = Metrics[I / 2];
               return I % 2 ? M.Unit : M.Name;
             },
             schemaStrings(H));
  uint8_t *Aggs = columnAt<uint8_t>(Buf, L.MetricAggs);
  for (size_t I = 0; I < H.Metrics; ++I)
    Aggs[I] = static_cast<uint8_t>(Metrics[I].Aggregation);

  uint32_t *GrKinds = columnAt<uint32_t>(Buf, L.GroupKinds);
  uint32_t *GrMetrics = columnAt<uint32_t>(Buf, L.GroupMetrics);
  double *GrValues = columnAt<double>(Buf, L.GroupValues);
  uint32_t *GrCtxOff = columnAt<uint32_t>(Buf, L.GroupCtxOff);
  for (size_t I = 0; I < H.Groups; ++I) {
    GrKinds[I] = Groups[I].Kind;
    GrMetrics[I] = Groups[I].Metric;
    GrValues[I] = Groups[I].Value;
    GrCtxOff[I] = Groups[I].Begin;
  }
  GrCtxOff[H.Groups] = static_cast<uint32_t>(GroupContexts.size());
  if (!GroupContexts.empty())
    std::memcpy(Buf + L.GroupCtxIds, GroupContexts.data(),
                GroupContexts.size() * sizeof(NodeId));

  B->Metrics = Metrics;
  return Profile(std::move(B), Label);
}

//===----------------------------------------------------------------------===//
// spillTo / mapFrom
//===----------------------------------------------------------------------===//

Result<uint64_t> Profile::spillTo(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return makeError("cannot open '" + Path + "' for spilling");
  char Page[HeaderBytes] = {};
  DiskHeader D = {};
  std::memcpy(D.Magic, EvColMagic.data(), EvColMagic.size());
  D.Counts = Counts;
  D.LabelBytes = Label.size();
  std::memcpy(Page, &D, sizeof(D));
  bool Ok = std::fwrite(Page, 1, HeaderBytes, F) == HeaderBytes &&
            std::fwrite(Data->Bytes, 1, Counts.BlockBytes, F) ==
                Counts.BlockBytes &&
            std::fwrite(Label.data(), 1, Label.size(), F) == Label.size();
  Ok = (std::fclose(F) == 0) && Ok;
  if (!Ok)
    return makeError("I/O error while spilling '" + Path + "'");
  return static_cast<uint64_t>(HeaderBytes) + Counts.BlockBytes +
         Label.size();
}

namespace {

bool monotonicCsr(const uint32_t *Off, uint64_t Count, uint64_t Total) {
  if (Off[0] != 0 || Off[Count] != Total)
    return false;
  for (uint64_t I = 1; I <= Count; ++I)
    if (Off[I] < Off[I - 1])
      return false;
  return true;
}

/// Full reference validation of a freshly mapped block: every id a later
/// reader would follow is range-checked once here, so readers of the
/// columns never need bounds checks of their own.
Result<bool> validateBlock(const Profile::Header &H, const char *B) {
  auto Fail = [](const std::string &What) -> Result<bool> {
    return makeError("corrupt profile block: " + What);
  };
  if (H.Nodes < 1 || H.Frames < 1 || H.Strings < 2)
    return Fail("missing root tables");
  Layout L = computeLayout(H);
  const uint32_t *Parents = columnAt<uint32_t>(B, L.Parents);
  const uint32_t *FrameRefs = columnAt<uint32_t>(B, L.FrameRefs);
  const uint32_t *ChildOff = columnAt<uint32_t>(B, L.ChildOff);
  const uint32_t *ChildIds = columnAt<uint32_t>(B, L.ChildIds);
  const uint32_t *ValueOff = columnAt<uint32_t>(B, L.ValueOff);
  const MetricValue *Values = columnAt<MetricValue>(B, L.Values);
  const Frame *Frames = columnAt<Frame>(B, L.Frames);
  const uint32_t *StrOff = columnAt<uint32_t>(B, L.StrOff);
  const char *StrChars = columnAt<char>(B, L.StrChars);
  const uint8_t *Aggs = columnAt<uint8_t>(B, L.MetricAggs);

  if (!monotonicCsr(ChildOff, H.Nodes, H.Nodes - 1))
    return Fail("children offsets not monotonic");
  if (!monotonicCsr(ValueOff, H.Nodes, H.Values))
    return Fail("value offsets not monotonic");
  if (!monotonicCsr(StrOff, H.Strings, H.StringBytes))
    return Fail("string offsets not monotonic");
  if (!monotonicCsr(columnAt<uint32_t>(B, L.SchemaOff), schemaStrings(H),
                    H.SchemaBytes))
    return Fail("schema offsets not monotonic");
  if (!monotonicCsr(columnAt<uint32_t>(B, L.GroupCtxOff), H.Groups,
                    H.GroupContexts))
    return Fail("group context offsets not monotonic");

  if (Parents[0] != InvalidNode)
    return Fail("node 0 is not the root");
  for (uint64_t I = 1; I < H.Nodes; ++I)
    if (Parents[I] >= I)
      return Fail("parent id out of order at node " + std::to_string(I));
  for (uint64_t I = 0; I < H.Nodes; ++I) {
    if (FrameRefs[I] >= H.Frames)
      return Fail("frame reference out of range");
    // Each child list must name exactly the nodes pointing back at it, in
    // ascending (insertion) order.
    for (uint32_t C = ChildOff[I]; C < ChildOff[I + 1]; ++C)
      if (ChildIds[C] >= H.Nodes || Parents[ChildIds[C]] != I ||
          (C > ChildOff[I] && ChildIds[C] <= ChildIds[C - 1]))
        return Fail("child list of node " + std::to_string(I) +
                    " disagrees with the parents column");
  }
  for (uint64_t V = 0; V < H.Values; ++V)
    if (Values[V].Metric >= H.Metrics)
      return Fail("metric id out of range");

  for (uint64_t I = 0; I < H.Frames; ++I) {
    const Frame &F = Frames[I];
    if (static_cast<uint8_t>(F.Kind) > static_cast<uint8_t>(FrameKind::Thread))
      return Fail("unknown frame kind");
    if (F.Name >= H.Strings || F.Loc.File >= H.Strings ||
        F.Loc.Module >= H.Strings)
      return Fail("frame string id out of range");
  }
  // Every profile starts from the builder's canonical "" and "ROOT"
  // strings and root frame, and its string and frame tables are
  // duplicate-free, as interning keeps them: ProfileBuilder(const Profile &)
  // re-interns them in order, and the callers tree groups by frame id.
  if (stringAt(StrOff, StrChars, 0) != "" ||
      stringAt(StrOff, StrChars, 1) != "ROOT")
    return Fail("canonical strings missing");
  Frame RootFrame;
  RootFrame.Kind = FrameKind::Root;
  RootFrame.Name = 1;
  if (Frames[0] != RootFrame)
    return Fail("frame 0 is not the canonical root frame");
  std::unordered_set<std::string_view> Texts;
  Texts.reserve(H.Strings);
  for (uint64_t I = 0; I < H.Strings; ++I)
    if (!Texts.insert(stringAt(StrOff, StrChars, I)).second)
      return Fail("duplicate string at index " + std::to_string(I));
  std::unordered_set<Frame, FrameHash> Distinct;
  Distinct.reserve(H.Frames);
  for (uint64_t I = 0; I < H.Frames; ++I)
    if (!Distinct.insert(Frames[I]).second)
      return Fail("duplicate frame at index " + std::to_string(I));
  // Metric names are unique, as ProfileBuilder::addMetric keeps them: a
  // transform's copy of the schema keeps every id.
  const uint32_t *SchemaOff = columnAt<uint32_t>(B, L.SchemaOff);
  const char *SchemaChars = columnAt<char>(B, L.SchemaChars);
  std::unordered_set<std::string_view> MetricNames;
  for (uint64_t I = 0; I < H.Metrics; ++I) {
    if (Aggs[I] > static_cast<uint8_t>(MetricAggregation::Last))
      return Fail("unknown metric aggregation");
    if (!MetricNames.insert(stringAt(SchemaOff, SchemaChars, 2 * I)).second)
      return Fail("duplicate metric name");
  }

  const uint32_t *GrKinds = columnAt<uint32_t>(B, L.GroupKinds);
  const uint32_t *GrMetrics = columnAt<uint32_t>(B, L.GroupMetrics);
  const uint32_t *GrCtxIds = columnAt<uint32_t>(B, L.GroupCtxIds);
  for (uint64_t I = 0; I < H.Groups; ++I) {
    if (GrKinds[I] >= H.Strings)
      return Fail("group kind string out of range");
    if (GrMetrics[I] >= H.Metrics)
      return Fail("group metric out of range");
  }
  for (uint64_t I = 0; I < H.GroupContexts; ++I)
    if (GrCtxIds[I] >= H.Nodes)
      return Fail("group context out of range");
  return true;
}

} // namespace

Result<Profile> Profile::mapFrom(const std::string &Path) {
  Result<MappedFile> Map = MappedFile::map(Path);
  if (!Map)
    return makeError(Map.error());
  if (Map->size() < HeaderBytes)
    return makeError("'" + Path + "' is too small to hold a block header");
  DiskHeader D;
  std::memcpy(&D, Map->bytes().data(), sizeof(D));
  if (std::memcmp(D.Magic, EvColMagic.data(), EvColMagic.size()) != 0)
    return makeError("'" + Path + "' is not a profile block (bad magic)");

  const Header &H = D.Counts;
  if (H.Nodes > UINT32_MAX || H.Values > UINT32_MAX ||
      H.Frames > UINT32_MAX || H.Strings > UINT32_MAX ||
      H.StringBytes > UINT32_MAX || H.Metrics > UINT32_MAX ||
      H.SchemaBytes > UINT32_MAX || H.Groups > UINT32_MAX ||
      H.GroupContexts > UINT32_MAX)
    return makeError("'" + Path + "' header counts exceed 32-bit ids");
  if (H.BlockBytes != computeLayout(H).Total)
    return makeError("'" + Path + "' block size disagrees with its counts");
  uint64_t Expected = HeaderBytes + H.BlockBytes + D.LabelBytes;
  if (D.LabelBytes > UINT32_MAX || Map->size() != Expected)
    return makeError("'" + Path + "' is " + std::to_string(Map->size()) +
                     " bytes, expected " + std::to_string(Expected) +
                     " (truncated or corrupt)");
  const char *Bytes = Map->bytes().data() + HeaderBytes;
  if (Result<bool> Valid = validateBlock(H, Bytes); !Valid)
    return makeError("'" + Path + "': " + Valid.error());

  auto B = std::make_shared<Block>();
  B->Counts = H;
  B->Mapping = std::move(*Map);
  B->Bytes = Bytes;
  Layout L = computeLayout(H);
  const uint32_t *SchemaOff = columnAt<uint32_t>(Bytes, L.SchemaOff);
  const char *SchemaChars = columnAt<char>(Bytes, L.SchemaChars);
  const uint8_t *Aggs = columnAt<uint8_t>(Bytes, L.MetricAggs);
  for (uint64_t I = 0; I < H.Metrics; ++I)
    B->Metrics.push_back(
        {std::string(stringAt(SchemaOff, SchemaChars, 2 * I)),
         std::string(stringAt(SchemaOff, SchemaChars, 2 * I + 1)),
         static_cast<MetricAggregation>(Aggs[I])});
  std::string Label(Bytes + H.BlockBytes, D.LabelBytes);
  return Profile(std::move(B), std::move(Label));
}

std::vector<uint32_t> depthsFromParents(std::span<const uint32_t> Parents) {
  std::vector<uint32_t> Depths(Parents.size(), 0);
  for (size_t Id = 1; Id < Parents.size(); ++Id) {
    uint32_t Parent = Parents[Id];
    // A sentinel or forward parent stays at depth 0 rather than reading
    // past the prefix already computed.
    if (Parent < Id)
      Depths[Id] = Depths[Parent] + 1;
  }
  return Depths;
}

} // namespace ev
