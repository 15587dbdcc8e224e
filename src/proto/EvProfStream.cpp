//===- proto/EvProfStream.cpp - Incremental .evprof decoding --------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "proto/EvProfStream.h"

#include "proto/EvProfFields.h"
#include "support/ProtoWire.h"

namespace ev {

using namespace evprof;

EvProfStreamDecoder::EvProfStreamDecoder(const DecodeLimits &L)
    : Limits(L), Guard(Limits) {}

Result<bool> EvProfStreamDecoder::poison(std::string Message) {
  Poisoned = true;
  Diag = std::move(Message);
  return makeError(Diag);
}

namespace {

/// Raw node exactly as the batch decoder stages it.
struct RawNode {
  uint64_t ParentPlus1 = 0;
  uint64_t FrameRef = 0;
  std::vector<MetricValue> Values;
};

} // namespace

Result<bool> EvProfStreamDecoder::decodeField(uint32_t FieldNumber,
                                              std::string_view Payload) {
  auto MapString = [&](uint64_t Old) -> Result<StringId> {
    if (Old >= StringMap.size())
      return makeError("string reference out of range");
    return StringMap[Old];
  };
  auto MapFrame = [&](uint64_t Old) -> Result<FrameId> {
    if (Old >= FrameMap.size())
      return makeError("frame reference out of range");
    return FrameMap[Old];
  };

  switch (FieldNumber) {
  case FProfileName:
    P.setName(std::string(Payload));
    return true;

  case FProfileString: {
    if (!Guard.chargeString(Payload.size()) ||
        !Guard.chargeAlloc(Payload.size()))
      return poison(Guard.error());
    StringMap.push_back(P.intern(Payload));
    return true;
  }

  case FProfileMetric: {
    if (!Guard.chargeMetric())
      return poison(Guard.error());
    MetricDescriptor M;
    ProtoReader R(Payload);
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
          return poison("invalid metric aggregation");
        M.Aggregation = static_cast<MetricAggregation>(Agg);
        break;
      }
      default:
        R.skip();
      }
    }
    if (R.failed())
      return poison("malformed Metric message");
    for (const MetricDescriptor &Seen : P.metrics())
      if (Seen.Name == M.Name)
        return poison("duplicate metric descriptor '" + M.Name +
                      "' at index " + std::to_string(P.metrics().size()));
    P.addMetric(M.Name, M.Unit, M.Aggregation);
    return true;
  }

  case FProfileFrame: {
    if (!Guard.chargeFrame())
      return poison(Guard.error());
    uint64_t Kind = 0, Name = 0, File = 0, Line = 0, Module = 0, Addr = 0;
    ProtoReader R(Payload);
    while (R.next()) {
      switch (R.fieldNumber()) {
      case FFrameKind:
        Kind = R.varint();
        break;
      case FFrameName:
        Name = R.varint();
        break;
      case FFrameFile:
        File = R.varint();
        break;
      case FFrameLine:
        Line = R.varint();
        break;
      case FFrameModule:
        Module = R.varint();
        break;
      case FFrameAddr:
        Addr = R.varint();
        break;
      default:
        R.skip();
      }
    }
    if (R.failed())
      return poison("malformed Frame message");
    if (Kind > static_cast<uint64_t>(FrameKind::Thread))
      return poison("invalid frame kind");
    Frame F;
    F.Kind = static_cast<FrameKind>(Kind);
    Result<StringId> NameId = MapString(Name);
    if (!NameId)
      return poison(NameId.error());
    F.Name = *NameId;
    Result<StringId> FileId = MapString(File);
    if (!FileId)
      return poison(FileId.error());
    F.Loc.File = *FileId;
    if (Line > 0xFFFFFFFFULL)
      return poison("line number out of range");
    F.Loc.Line = static_cast<uint32_t>(Line);
    Result<StringId> ModuleId = MapString(Module);
    if (!ModuleId)
      return poison(ModuleId.error());
    F.Loc.Module = *ModuleId;
    F.Loc.Address = Addr;
    FrameMap.push_back(P.internFrame(F));
    return true;
  }

  case FProfileNode: {
    if (!Guard.chargeNode())
      return poison(Guard.error());
    RawNode N;
    ProtoReader R(Payload);
    while (R.next()) {
      switch (R.fieldNumber()) {
      case FNodeParentPlus1:
        N.ParentPlus1 = R.varint();
        break;
      case FNodeFrame:
        N.FrameRef = R.varint();
        break;
      case FNodeValue: {
        MetricValue MV;
        ProtoReader VR(R.bytes());
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
          return poison("malformed MetricValue message");
        if (!Guard.chargeAlloc(sizeof(MetricValue)))
          return poison(Guard.error());
        N.Values.push_back(MV);
        break;
      }
      default:
        R.skip();
      }
    }
    if (R.failed())
      return poison("malformed Node message");
    // Canonical order puts the whole metric schema ahead of the first
    // node, so the batch decoder's end-of-decode range check is
    // equivalent to checking here, eagerly.
    for (const MetricValue &MV : N.Values)
      if (MV.Metric >= P.metrics().size())
        return poison("node metric reference out of range");
    size_t I = WireNodes;
    Result<FrameId> F = MapFrame(N.FrameRef);
    if (!F)
      return poison(F.error());
    if (I == 0) {
      if (N.ParentPlus1 != 0)
        return poison("first node is not a root");
      // Wire node 0 maps onto the implicit root.
      P.setFrame(P.root(), *F);
      for (const MetricValue &MV : N.Values)
        P.appendValue(P.root(), MV);
      Depths.push_back(0);
    } else {
      if (N.ParentPlus1 == 0 || N.ParentPlus1 > I)
        return poison("node " + std::to_string(I) +
                      " has invalid parent reference");
      uint32_t Depth = Depths[N.ParentPlus1 - 1] + 1;
      if (!Guard.checkDepth(Depth))
        return poison(Guard.error());
      // createNode appends sequentially, so wire ids equal NodeIds.
      NodeId Id = P.createNode(static_cast<NodeId>(N.ParentPlus1 - 1), *F);
      for (const MetricValue &MV : N.Values)
        P.appendValue(Id, MV);
      Depths.push_back(Depth);
    }
    ++WireNodes;
    return true;
  }

  case FProfileGroup: {
    uint64_t Kind = 0, Metric = 0;
    double Value = 0.0;
    std::vector<uint64_t> Contexts;
    ProtoReader R(Payload);
    while (R.next()) {
      switch (R.fieldNumber()) {
      case FGroupKind:
        Kind = R.varint();
        break;
      case FGroupContext: {
        std::string_view Packed = R.bytes();
        VarintReader VR(Packed.data(), Packed.size());
        while (!VR.atEnd() && !VR.failed()) {
          if (!Guard.chargeAlloc(sizeof(uint64_t)))
            return poison(Guard.error());
          Contexts.push_back(VR.readVarint());
        }
        if (VR.failed())
          return poison("malformed packed context list");
        break;
      }
      case FGroupMetric:
        Metric = R.varint();
        break;
      case FGroupValue:
        Value = R.fixedDouble();
        break;
      default:
        R.skip();
      }
    }
    if (R.failed())
      return poison("malformed Group message");
    Result<StringId> KindId = MapString(Kind);
    if (!KindId)
      return poison(KindId.error());
    if (Metric >= P.metrics().size())
      return poison("group metric reference out of range");
    std::vector<NodeId> Nodes;
    Nodes.reserve(Contexts.size());
    for (uint64_t Ctx : Contexts) {
      if (Ctx >= P.nodeCount())
        return poison("group context reference out of range");
      Nodes.push_back(static_cast<NodeId>(Ctx));
    }
    P.addGroup(*KindId, Nodes, static_cast<MetricId>(Metric), Value);
    return true;
  }

  default:
    return true; // Unknown top-level fields are tolerated, as in batch.
  }
}

Result<size_t> EvProfStreamDecoder::feed(std::string_view Bytes) {
  if (Poisoned)
    return makeError(Diag);
  Total += Bytes.size();
  if (Total > Limits.MaxInputBytes) {
    poison("input of " + std::to_string(Total) +
           " bytes exceeds the decode limit");
    return makeError(Diag);
  }
  Pending.append(Bytes);

  if (!MagicSeen) {
    if (Pending.size() < EvProfMagic.size())
      return size_t(0);
    if (!isEvProf(Pending)) {
      poison("not an .evprof stream: bad magic");
      return makeError(Diag);
    }
    Pending.erase(0, EvProfMagic.size());
    MagicSeen = true;
  }

  size_t NodesBefore = WireNodes;
  size_t Off = 0;
  for (;;) {
    VarintReader VR(Pending.data() + Off, Pending.size() - Off);
    if (VR.atEnd())
      break;
    size_t Avail = VR.remaining();
    uint64_t Tag = VR.readVarint();
    if (VR.failed()) {
      if (Avail < 10)
        break; // Possibly a varint split across feeds; wait for more.
      poison("malformed EvProfile message");
      return makeError(Diag);
    }
    uint32_t Field = static_cast<uint32_t>(Tag >> 3);
    auto WT = static_cast<WireType>(Tag & 7);

    std::string_view Payload;
    bool Decodable = false;
    if (WT == WireType::LengthDelimited) {
      size_t LenAvail = VR.remaining();
      uint64_t Len = VR.readVarint();
      if (VR.failed()) {
        if (LenAvail < 10)
          break;
        poison("malformed EvProfile message");
        return makeError(Diag);
      }
      if (Len > Limits.MaxInputBytes) {
        poison("input of " + std::to_string(Len) +
               " bytes exceeds the decode limit");
        return makeError(Diag);
      }
      if (VR.remaining() < Len)
        break; // Field body not fully buffered yet.
      Payload = std::string_view(
          reinterpret_cast<const char *>(VR.current()),
          static_cast<size_t>(Len));
      VR.skip(static_cast<size_t>(Len));
      Decodable = true;
    } else if (WT == WireType::Varint) {
      size_t VAvail = VR.remaining();
      VR.readVarint();
      if (VR.failed()) {
        if (VAvail < 10)
          break;
        poison("malformed EvProfile message");
        return makeError(Diag);
      }
    } else if (WT == WireType::Fixed64) {
      if (VR.remaining() < 8)
        break;
      VR.skip(8);
    } else if (WT == WireType::Fixed32) {
      if (VR.remaining() < 4)
        break;
      VR.skip(4);
    } else {
      poison("malformed EvProfile message");
      return makeError(Diag);
    }

    if (Field >= FProfileName && Field <= FProfileGroup && !Decodable) {
      // A known field with the wrong wire type is structural corruption;
      // the batch decoder fails the same way.
      poison("malformed EvProfile message");
      return makeError(Diag);
    }
    if (Decodable)
      if (Result<bool> R = decodeField(Field, Payload); !R)
        return makeError(R.error());
    Off += VR.position();
  }
  Pending.erase(0, Off);
  return WireNodes - NodesBefore;
}

Result<Profile> EvProfStreamDecoder::snapshot() const {
  if (Poisoned)
    return makeError(Diag);
  if (WireNodes == 0)
    return makeError("profile stream has no nodes");
  return P.build();
}

} // namespace ev
