//===- profile/ProfileBuilder.cpp - High-level data builder ---------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "profile/ProfileBuilder.h"

#include <cassert>

namespace ev {

void ProfileBuilder::ChildTable::insert(uint64_t Key, NodeId Child) {
  if (2 * (Used + 1) > Keys.size())
    grow();
  size_t Mask = Keys.size() - 1;
  for (size_t S = slotOf(Key, Mask);; S = (S + 1) & Mask) {
    if (Keys[S] == Key)
      return;
    if (Keys[S] == EmptyKey) {
      Keys[S] = Key;
      Children[S] = Child;
      ++Used;
      return;
    }
  }
}

void ProfileBuilder::ChildTable::grow() {
  std::vector<uint64_t> OldKeys = std::move(Keys);
  std::vector<NodeId> OldChildren = std::move(Children);
  size_t Size = std::max<size_t>(64, OldKeys.size() * 2);
  Keys.assign(Size, EmptyKey);
  Children.assign(Size, InvalidNode);
  Used = 0;
  for (size_t S = 0; S < OldKeys.size(); ++S)
    if (OldKeys[S] != EmptyKey)
      insert(OldKeys[S], OldChildren[S]);
}

ProfileBuilder::ProfileBuilder(std::string Name) : Label(std::move(Name)) {
  // The root frame and node always exist so that every profile has a
  // well-defined program entrance (paper §VI-A: "the root represents the
  // program entrance").
  Frame RootFrame;
  RootFrame.Kind = FrameKind::Root;
  RootFrame.Name = Strings.intern("ROOT");
  internFrame(RootFrame);
  Parents.push_back(InvalidNode);
  FrameRefs.push_back(0);
  ValueHead.push_back(NoSlot);
  ValueTail.push_back(NoSlot);
}

ProfileBuilder::ProfileBuilder(const Profile &P) : Label(P.name()) {
  // Profile tables are duplicate-free (validateBlock refuses a mapped block
  // that is not), so re-interning in order reproduces every id.
  Strings.reserve(P.strings().size(), P.strings().payloadBytes());
  for (StringId I = 1; I < P.strings().size(); ++I)
    Strings.intern(P.text(I));
  Metrics = P.metrics();
  Frames.assign(P.frames().begin(), P.frames().end());
  FrameIndex.reserve(Frames.size());
  for (FrameId I = 0; I < Frames.size(); ++I)
    FrameIndex.emplace(Frames[I], I);
  Parents.assign(P.parents().begin(), P.parents().end());
  FrameRefs.assign(P.frameRefs().begin(), P.frameRefs().end());
  ValueHead.assign(P.nodeCount(), NoSlot);
  ValueTail.assign(P.nodeCount(), NoSlot);
  for (NodeId Id = 0; Id < P.nodeCount(); ++Id)
    for (const MetricValue &MV : P.node(Id).Metrics)
      appendValue(Id, MV);
  for (const ContextGroup &G : P.groups())
    addGroup(G.Kind, G.Contexts, G.Metric, G.Value);
}

MetricId ProfileBuilder::addMetric(std::string_view Name,
                                   std::string_view Unit,
                                   MetricAggregation Aggregation) {
  MetricId Existing = findMetric(Name);
  if (Existing != Profile::InvalidMetric)
    return Existing;
  Metrics.push_back({std::string(Name), std::string(Unit), Aggregation});
  return static_cast<MetricId>(Metrics.size() - 1);
}

std::vector<MetricId> ProfileBuilder::addMetrics(const Profile &Src) {
  std::vector<MetricId> Map(Src.metrics().size());
  for (MetricId I = 0; I < Src.metrics().size(); ++I) {
    const MetricDescriptor &M = Src.metrics()[I];
    Map[I] = addMetric(M.Name, M.Unit, M.Aggregation);
  }
  return Map;
}

MetricId ProfileBuilder::findMetric(std::string_view Name) const {
  for (MetricId I = 0; I < Metrics.size(); ++I)
    if (Metrics[I].Name == Name)
      return I;
  return Profile::InvalidMetric;
}

FrameId ProfileBuilder::internFrame(const Frame &F) {
  auto [It, Inserted] =
      FrameIndex.emplace(F, static_cast<FrameId>(Frames.size()));
  if (Inserted)
    Frames.push_back(F);
  return It->second;
}

FrameId ProfileBuilder::functionFrame(std::string_view Name,
                                      std::string_view File, uint32_t Line,
                                      std::string_view Module,
                                      uint64_t Address) {
  return frame(FrameKind::Function, Name, File, Line, Module, Address);
}

FrameId ProfileBuilder::dataFrame(std::string_view Name,
                                  std::string_view File, uint32_t Line) {
  return frame(FrameKind::DataObject, Name, File, Line, "", 0);
}

FrameId ProfileBuilder::frame(FrameKind Kind, std::string_view Name,
                              std::string_view File, uint32_t Line,
                              std::string_view Module, uint64_t Address) {
  Frame F;
  F.Kind = Kind;
  F.Name = intern(Name);
  F.Loc.File = intern(File);
  F.Loc.Line = Line;
  F.Loc.Module = intern(Module);
  F.Loc.Address = Address;
  return internFrame(F);
}

FrameId ProfileBuilder::importFrame(const Profile &Src, const Frame &F,
                                    Address Mode) {
  Frame Copy;
  Copy.Kind = F.Kind;
  Copy.Name = intern(Src.text(F.Name));
  Copy.Loc.File = intern(Src.text(F.Loc.File));
  Copy.Loc.Line = F.Loc.Line;
  Copy.Loc.Module = intern(Src.text(F.Loc.Module));
  Copy.Loc.Address = Mode == Address::Keep ? F.Loc.Address : 0;
  return internFrame(Copy);
}

NodeId ProfileBuilder::createNode(NodeId Parent, FrameId Frame) {
  assert(Parent < Parents.size() && "parent out of range");
  assert(Frame < Frames.size() && "frame out of range");
  NodeId Id = static_cast<NodeId>(Parents.size());
  Parents.push_back(Parent);
  FrameRefs.push_back(Frame);
  ValueHead.push_back(NoSlot);
  ValueTail.push_back(NoSlot);
  if (Indexed)
    Index.insert(childKey(Parent, Frame), Id);
  return Id;
}

NodeId ProfileBuilder::childSlow(NodeId Parent, FrameId Frame) {
  if (Indexed) // child() looked and missed.
    return createNode(Parent, Frame);
  for (NodeId Id = 1; Id < Parents.size(); ++Id)
    Index.insert(childKey(Parents[Id], FrameRefs[Id]), Id);
  Indexed = true;
  NodeId Found = Index.find(childKey(Parent, Frame));
  return Found != InvalidNode ? Found : createNode(Parent, Frame);
}

NodeId ProfileBuilder::pushPath(std::span<const FrameId> Path) {
  NodeId Cur = root();
  for (FrameId F : Path)
    Cur = child(Cur, F);
  return Cur;
}

NodeId ProfileBuilder::addSample(std::span<const FrameId> Path,
                                 MetricId Metric, double Value) {
  NodeId Leaf = pushPath(Path);
  addValue(Leaf, Metric, Value);
  return Leaf;
}

void ProfileBuilder::addValue(NodeId Node, MetricId Metric, double Value) {
  for (uint32_t S = ValueHead[Node]; S != NoSlot; S = ValueNext[S])
    if (Values[S].Metric == Metric) {
      Values[S].Value += Value;
      return;
    }
  appendValue(Node, {Metric, Value});
}

void ProfileBuilder::appendValue(NodeId Node, MetricValue MV) {
  assert(Values.size() < NoSlot && "value slots exhausted");
  uint32_t Slot = static_cast<uint32_t>(Values.size());
  Values.push_back(MV);
  ValueNext.push_back(NoSlot);
  if (ValueTail[Node] == NoSlot)
    ValueHead[Node] = Slot;
  else
    ValueNext[ValueTail[Node]] = Slot;
  ValueTail[Node] = Slot;
}

double ProfileBuilder::metricOr(NodeId Node, MetricId Metric,
                                double Fallback) const {
  for (uint32_t S = ValueHead[Node]; S != NoSlot; S = ValueNext[S])
    if (Values[S].Metric == Metric)
      return Values[S].Value;
  return Fallback;
}

void ProfileBuilder::addGroup(StringId Kind, std::span<const NodeId> Contexts,
                              MetricId Metric, double Value) {
  Groups.push_back({Kind, Metric, Value,
                    static_cast<uint32_t>(GroupContexts.size())});
  GroupContexts.insert(GroupContexts.end(), Contexts.begin(), Contexts.end());
}

void ProfileBuilder::reserve(size_t Nodes, size_t FrameCount) {
  Parents.reserve(Parents.size() + Nodes);
  FrameRefs.reserve(FrameRefs.size() + Nodes);
  ValueHead.reserve(ValueHead.size() + Nodes);
  ValueTail.reserve(ValueTail.size() + Nodes);
  Frames.reserve(Frames.size() + FrameCount);
  FrameIndex.reserve(FrameIndex.size() + FrameCount);
}

size_t ProfileBuilder::approxMemoryBytes() const {
  size_t Bytes = Strings.payloadBytes();
  Bytes += Frames.size() * (2 * sizeof(Frame) + sizeof(FrameId));
  Bytes += Parents.size() * (sizeof(NodeId) + sizeof(FrameId) +
                             2 * sizeof(uint32_t));
  Bytes += Values.size() * (sizeof(MetricValue) + sizeof(uint32_t));
  Bytes += Index.capacity() * (sizeof(uint64_t) + sizeof(NodeId));
  Bytes += Groups.size() * sizeof(GroupRecord) +
           GroupContexts.size() * sizeof(NodeId);
  return Bytes;
}

Profile ProfileBuilder::take() {
  // Integrity is enforced structurally (createNode only appends children
  // of existing nodes); tests call Profile::verify() explicitly, and the
  // loaders verify untrusted inputs. Verifying here would tax the hot build
  // path that the response-time experiment (Fig. 5) measures.
  ProfileBuilder Consumed = std::move(*this);
  *this = ProfileBuilder();
  Consumed.Index = ChildTable(); // Not part of the frozen profile.
  return Consumed.build();
}

} // namespace ev
