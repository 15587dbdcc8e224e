//===- proto/EvProf.cpp - EasyView profile container format ---------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "proto/EvProf.h"

#include "profile/ProfileBuilder.h"
#include "proto/EvProfFields.h"
#include "support/ProtoWire.h"
#include "support/Trace.h"

namespace ev {

using namespace evprof;

namespace {

std::string encodeMetric(const MetricDescriptor &M) {
  ProtoWriter W;
  W.writeBytes(FMetricName, M.Name);
  W.writeBytes(FMetricUnit, M.Unit);
  W.writeVarint(FMetricAgg, static_cast<uint64_t>(M.Aggregation));
  return W.takeBuffer();
}

std::string encodeFrame(const Frame &F) {
  ProtoWriter W;
  if (F.Kind != FrameKind::Root)
    W.writeVarint(FFrameKind, static_cast<uint64_t>(F.Kind));
  if (F.Name)
    W.writeVarint(FFrameName, F.Name);
  if (F.Loc.File)
    W.writeVarint(FFrameFile, F.Loc.File);
  if (F.Loc.Line)
    W.writeVarint(FFrameLine, F.Loc.Line);
  if (F.Loc.Module)
    W.writeVarint(FFrameModule, F.Loc.Module);
  if (F.Loc.Address)
    W.writeVarint(FFrameAddr, F.Loc.Address);
  return W.takeBuffer();
}

std::string encodeNode(const CCTNode &Node) {
  ProtoWriter W;
  if (Node.Parent != InvalidNode)
    W.writeVarint(FNodeParentPlus1, static_cast<uint64_t>(Node.Parent) + 1);
  if (Node.FrameRef)
    W.writeVarint(FNodeFrame, Node.FrameRef);
  for (const MetricValue &MV : Node.Metrics) {
    ProtoWriter VW;
    if (MV.Metric)
      VW.writeVarint(FValueMetric, MV.Metric);
    VW.writeDouble(FValueValue, MV.Value);
    W.writeBytes(FNodeValue, VW.buffer());
  }
  return W.takeBuffer();
}

std::string encodeGroup(const ContextGroup &Group) {
  ProtoWriter W;
  if (Group.Kind)
    W.writeVarint(FGroupKind, Group.Kind);
  std::vector<uint64_t> Contexts(Group.Contexts.begin(),
                                 Group.Contexts.end());
  W.writePackedVarints(FGroupContext, Contexts.data(), Contexts.size());
  if (Group.Metric)
    W.writeVarint(FGroupMetric, Group.Metric);
  W.writeDouble(FGroupValue, Group.Value);
  return W.takeBuffer();
}

} // namespace

bool isEvProf(std::string_view Bytes) {
  return Bytes.substr(0, EvProfMagic.size()) == EvProfMagic;
}

std::string writeEvProf(const Profile &P) {
  ProtoWriter W;
  W.writeBytes(FProfileName, P.name());
  for (StringId I = 0; I < P.strings().size(); ++I)
    W.writeBytes(FProfileString, P.text(I));
  for (const MetricDescriptor &M : P.metrics())
    W.writeBytes(FProfileMetric, encodeMetric(M));
  for (const Frame &F : P.frames())
    W.writeBytes(FProfileFrame, encodeFrame(F));
  for (const CCTNode &Node : P.nodes())
    W.writeBytes(FProfileNode, encodeNode(Node));
  for (const ContextGroup &Group : P.groups())
    W.writeBytes(FProfileGroup, encodeGroup(Group));
  std::string Out(EvProfMagic);
  Out += W.buffer();
  return Out;
}

namespace {

struct RawNode {
  uint64_t ParentPlus1 = 0;
  uint64_t FrameRef = 0;
  std::vector<MetricValue> Values;
};

Result<MetricDescriptor> decodeMetric(std::string_view Bytes) {
  MetricDescriptor M;
  ProtoReader R(Bytes);
  while (R.next()) {
    switch (R.fieldNumber()) {
    case FMetricName:
      M.Name = std::string(R.bytes());
      break;
    case FMetricUnit:
      M.Unit = std::string(R.bytes());
      break;
    case FMetricAgg: {
      uint64_t Agg = R.varint();
      if (Agg > static_cast<uint64_t>(MetricAggregation::Last))
        return makeError("invalid metric aggregation");
      M.Aggregation = static_cast<MetricAggregation>(Agg);
      break;
    }
    default:
      R.skip();
    }
  }
  if (R.failed())
    return makeError("malformed Metric message");
  return M;
}

} // namespace

Result<Profile> readEvProf(std::string_view Bytes) {
  return readEvProf(Bytes, DecodeLimits::defaults());
}

namespace {

/// Counts of top-level fields gathered by a cheap pre-scan of the wire
/// stream: one varint-skimming pass that never parses submessage interiors.
/// The decoder sizes every table from these counts up front, so the hot
/// decode loop performs no vector reallocation.
struct WireCensus {
  size_t Strings = 0;
  size_t StringBytes = 0;
  size_t Metrics = 0;
  size_t Frames = 0;
  size_t Nodes = 0;
  size_t Groups = 0;
};

WireCensus prescanEvProf(std::string_view Bytes) {
  WireCensus Census;
  ProtoReader R(Bytes);
  while (R.next()) {
    switch (R.fieldNumber()) {
    case FProfileString:
      ++Census.Strings;
      Census.StringBytes += R.bytes().size();
      break;
    case FProfileMetric:
      ++Census.Metrics;
      R.skip();
      break;
    case FProfileFrame:
      ++Census.Frames;
      R.skip();
      break;
    case FProfileNode:
      ++Census.Nodes;
      R.skip();
      break;
    case FProfileGroup:
      ++Census.Groups;
      R.skip();
      break;
    default:
      R.skip();
    }
  }
  // Malformed tails surface in the real decode pass; counts so far are
  // still valid reservation hints.
  return Census;
}

} // namespace

Result<Profile> readEvProf(std::string_view Bytes,
                           const DecodeLimits &Limits) {
  trace::Span Span("decode/readEvProf", "decode");
  if (Bytes.size() > Limits.MaxInputBytes)
    return makeError("input of " + std::to_string(Bytes.size()) +
                     " bytes exceeds the decode limit");
  ResourceGuard Guard(Limits);
  if (!isEvProf(Bytes))
    return makeError("not an .evprof stream: bad magic");
  Bytes.remove_prefix(EvProfMagic.size());

  const WireCensus Census = prescanEvProf(Bytes);

  // The builder is created up front so strings intern straight into its
  // arena during the wire pass — no intermediate std::string table.
  ProfileBuilder P;
  std::vector<StringId> StringMap;
  StringMap.reserve(Census.Strings);
  P.reserveStrings(Census.Strings, Census.StringBytes);
  P.reserve(Census.Nodes, Census.Frames);

  // Pass 1: pull the raw tables out of the wire data.
  std::string Name;
  std::vector<MetricDescriptor> Metrics;
  Metrics.reserve(Census.Metrics);
  struct RawFrame {
    uint64_t Kind = 0, Name = 0, File = 0, Line = 0, Module = 0, Addr = 0;
  };
  std::vector<RawFrame> Frames;
  Frames.reserve(Census.Frames);
  std::vector<RawNode> Nodes;
  Nodes.reserve(Census.Nodes);
  struct RawGroup {
    uint64_t Kind = 0, Metric = 0;
    double Value = 0.0;
    std::vector<uint64_t> Contexts;
  };
  std::vector<RawGroup> Groups;
  Groups.reserve(Census.Groups);

  ProtoReader R(Bytes);
  while (R.next()) {
    switch (R.fieldNumber()) {
    case FProfileName:
      Name = std::string(R.bytes());
      break;
    case FProfileString: {
      std::string_view S = R.bytes();
      if (!Guard.chargeString(S.size()) || !Guard.chargeAlloc(S.size()))
        return makeError(Guard.error());
      StringMap.push_back(P.intern(S));
      break;
    }
    case FProfileMetric: {
      if (!Guard.chargeMetric())
        return makeError(Guard.error());
      Result<MetricDescriptor> M = decodeMetric(R.bytes());
      if (!M)
        return makeError(M.error());
      // Duplicate metric descriptors are rejected the moment the second one
      // arrives: silently folding them onto one column would misattribute
      // every later per-node value.
      for (const MetricDescriptor &Seen : Metrics)
        if (Seen.Name == M->Name)
          return makeError("duplicate metric descriptor '" + M->Name +
                           "' at index " + std::to_string(Metrics.size()));
      Metrics.push_back(M.take());
      break;
    }
    case FProfileFrame: {
      if (!Guard.chargeFrame())
        return makeError(Guard.error());
      RawFrame F;
      ProtoReader FR(R.bytes());
      while (FR.next()) {
        switch (FR.fieldNumber()) {
        case FFrameKind:
          F.Kind = FR.varint();
          break;
        case FFrameName:
          F.Name = FR.varint();
          break;
        case FFrameFile:
          F.File = FR.varint();
          break;
        case FFrameLine:
          F.Line = FR.varint();
          break;
        case FFrameModule:
          F.Module = FR.varint();
          break;
        case FFrameAddr:
          F.Addr = FR.varint();
          break;
        default:
          FR.skip();
        }
      }
      if (FR.failed())
        return makeError("malformed Frame message");
      Frames.push_back(F);
      break;
    }
    case FProfileNode: {
      if (!Guard.chargeNode())
        return makeError(Guard.error());
      RawNode N;
      ProtoReader NR(R.bytes());
      while (NR.next()) {
        switch (NR.fieldNumber()) {
        case FNodeParentPlus1:
          N.ParentPlus1 = NR.varint();
          break;
        case FNodeFrame:
          N.FrameRef = NR.varint();
          break;
        case FNodeValue: {
          MetricValue MV;
          ProtoReader VR(NR.bytes());
          while (VR.next()) {
            switch (VR.fieldNumber()) {
            case FValueMetric:
              MV.Metric = static_cast<MetricId>(VR.varint());
              break;
            case FValueValue:
              MV.Value = VR.fixedDouble();
              break;
            default:
              VR.skip();
            }
          }
          if (VR.failed())
            return makeError("malformed MetricValue message");
          if (!Guard.chargeAlloc(sizeof(MetricValue)))
            return makeError(Guard.error());
          N.Values.push_back(MV);
          break;
        }
        default:
          NR.skip();
        }
      }
      if (NR.failed())
        return makeError("malformed Node message");
      Nodes.push_back(std::move(N));
      break;
    }
    case FProfileGroup: {
      RawGroup G;
      ProtoReader GR(R.bytes());
      while (GR.next()) {
        switch (GR.fieldNumber()) {
        case FGroupKind:
          G.Kind = GR.varint();
          break;
        case FGroupContext: {
          // Packed repeated varints.
          std::string_view Packed = GR.bytes();
          VarintReader VR(Packed.data(), Packed.size());
          while (!VR.atEnd() && !VR.failed()) {
            if (!Guard.chargeAlloc(sizeof(uint64_t)))
              return makeError(Guard.error());
            G.Contexts.push_back(VR.readVarint());
          }
          if (VR.failed())
            return makeError("malformed packed context list");
          break;
        }
        case FGroupMetric:
          G.Metric = GR.varint();
          break;
        case FGroupValue:
          G.Value = GR.fixedDouble();
          break;
        default:
          GR.skip();
        }
      }
      if (GR.failed())
        return makeError("malformed Group message");
      Groups.push_back(std::move(G));
      break;
    }
    default:
      R.skip();
    }
  }
  if (R.failed())
    return makeError("malformed EvProfile message");

  // Pass 2: rebuild the profile from the raw tables. Strings were already
  // interned into P's arena during the wire pass; StringMap remaps wire ids
  // onto arena ids (the fresh builder pre-interns "" and "ROOT").
  P.setName(std::move(Name));

  auto MapString = [&](uint64_t Old) -> Result<StringId> {
    if (Old >= StringMap.size())
      return makeError("string reference out of range");
    return StringMap[Old];
  };

  for (const MetricDescriptor &M : Metrics)
    P.addMetric(M.Name, M.Unit, M.Aggregation);

  std::vector<FrameId> FrameMap(Frames.size());
  for (size_t I = 0; I < Frames.size(); ++I) {
    const RawFrame &RF = Frames[I];
    if (RF.Kind > static_cast<uint64_t>(FrameKind::Thread))
      return makeError("invalid frame kind");
    Frame F;
    F.Kind = static_cast<FrameKind>(RF.Kind);
    Result<StringId> NameId = MapString(RF.Name);
    if (!NameId)
      return makeError(NameId.error());
    F.Name = *NameId;
    Result<StringId> FileId = MapString(RF.File);
    if (!FileId)
      return makeError(FileId.error());
    F.Loc.File = *FileId;
    if (RF.Line > 0xFFFFFFFFULL)
      return makeError("line number out of range");
    F.Loc.Line = static_cast<uint32_t>(RF.Line);
    Result<StringId> ModuleId = MapString(RF.Module);
    if (!ModuleId)
      return makeError(ModuleId.error());
    F.Loc.Module = *ModuleId;
    F.Loc.Address = RF.Addr;
    FrameMap[I] = P.internFrame(F);
  }

  if (Nodes.empty())
    return makeError("profile stream has no nodes");
  if (Nodes[0].ParentPlus1 != 0)
    return makeError("first node is not a root");

  auto MapFrame = [&](uint64_t Old) -> Result<FrameId> {
    if (Old >= FrameMap.size())
      return makeError("frame reference out of range");
    return FrameMap[Old];
  };

  // Node 0 maps onto the implicit root.
  {
    Result<FrameId> RootFrame = MapFrame(Nodes[0].FrameRef);
    if (!RootFrame)
      return makeError(RootFrame.error());
    P.setFrame(P.root(), *RootFrame);
    for (const MetricValue &MV : Nodes[0].Values)
      P.appendValue(P.root(), MV);
  }
  std::vector<uint32_t> Depths(Nodes.size(), 0);
  for (size_t I = 1; I < Nodes.size(); ++I) {
    const RawNode &N = Nodes[I];
    if (N.ParentPlus1 == 0 || N.ParentPlus1 > I)
      return makeError("node " + std::to_string(I) +
                       " has invalid parent reference");
    Depths[I] = Depths[N.ParentPlus1 - 1] + 1;
    if (!Guard.checkDepth(Depths[I]))
      return makeError(Guard.error());
    Result<FrameId> F = MapFrame(N.FrameRef);
    if (!F)
      return makeError(F.error());
    P.createNode(static_cast<NodeId>(N.ParentPlus1 - 1), *F);
  }
  for (const RawNode &N : Nodes)
    for (const MetricValue &MV : N.Values)
      if (MV.Metric >= P.metrics().size())
        return makeError("node metric reference out of range");
  for (NodeId Id = 0; Id < Nodes.size(); ++Id)
    for (const MetricValue &MV : Nodes[Id].Values)
      P.appendValue(Id, MV);
  Nodes = {};

  std::vector<NodeId> Contexts;
  for (const RawGroup &G : Groups) {
    Result<StringId> Kind = MapString(G.Kind);
    if (!Kind)
      return makeError(Kind.error());
    if (G.Metric >= P.metrics().size())
      return makeError("group metric reference out of range");
    Contexts.clear();
    for (uint64_t Ctx : G.Contexts) {
      if (Ctx >= P.nodeCount())
        return makeError("group context reference out of range");
      Contexts.push_back(static_cast<NodeId>(Ctx));
    }
    P.addGroup(*Kind, Contexts, static_cast<MetricId>(G.Metric), G.Value);
  }

  return P.take();
}

} // namespace ev
