//===- proto/EvProfStream.cpp - The .evprof decoder -----------------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "proto/EvProfStream.h"

#include "proto/EvProfFields.h"
#include "support/ProtoWire.h"

#include <algorithm>

namespace ev {

using namespace evprof;

namespace {

/// The top-level field at the front of a buffer.
struct FieldSpan {
  uint32_t Number = 0;
  WireType Type = WireType::Varint;
  std::string_view Payload; ///< Body of a length-delimited field.
  size_t Size = 0;          ///< Encoded bytes, tag included; 0 if cut off.
};

/// Locates the top-level field at the front of \p In. \returns false on
/// structural corruption, including a length past \p MaxLen, which no
/// later chunk could complete. A field \p In holds only part of comes back
/// with Size == 0.
bool scanField(std::string_view In, size_t MaxLen, FieldSpan &F) {
  VarintReader VR(In.data(), In.size());
  // A varint that runs off the end of a short buffer may complete with
  // the next chunk; one that is still unterminated after ten bytes never
  // will.
  auto ReadVarint = [&VR](uint64_t &V) {
    size_t Avail = VR.remaining();
    V = VR.readVarint();
    return !VR.failed() || Avail < 10;
  };
  uint64_t Tag = 0;
  if (!ReadVarint(Tag))
    return false;
  if (VR.failed())
    return true;
  F.Number = static_cast<uint32_t>(Tag >> 3);
  F.Type = static_cast<WireType>(Tag & 7);
  if (F.Number == 0)
    return false;
  switch (F.Type) {
  case WireType::Varint: {
    uint64_t Ignored = 0;
    if (!ReadVarint(Ignored))
      return false;
    if (VR.failed())
      return true;
    break;
  }
  case WireType::Fixed64:
  case WireType::Fixed32: {
    size_t Width = F.Type == WireType::Fixed64 ? 8 : 4;
    if (VR.remaining() < Width)
      return true;
    VR.skip(Width);
    break;
  }
  case WireType::LengthDelimited: {
    uint64_t Len = 0;
    if (!ReadVarint(Len) || Len > MaxLen)
      return false;
    if (VR.failed() || VR.remaining() < Len)
      return true;
    F.Payload = std::string_view(
        reinterpret_cast<const char *>(VR.current()),
        static_cast<size_t>(Len));
    VR.skip(static_cast<size_t>(Len));
    break;
  }
  default:
    return false;
  }
  F.Size = VR.position();
  return true;
}

} // namespace

EvProfStreamDecoder::EvProfStreamDecoder(const DecodeLimits &L)
    : Limits(L), Guard(Limits) {}

Error EvProfStreamDecoder::poison(std::string Message,
                                  EvProfFault::Kind What, size_t Node) {
  Poisoned = true;
  Diag = std::move(Message);
  Fault = {What, Node};
  return makeError(Diag);
}

void EvProfStreamDecoder::reserveFor(std::string_view Bytes) {
  // One tag-skimming pass that never parses a submessage. The counts are
  // only hints: a malformed tail surfaces in the decode that follows, and
  // the caps keep a hostile census from reserving past the decode limits.
  size_t Strings = 0, StringBytes = 0, Frames = 0, Nodes = 0;
  ProtoReader R(Bytes);
  while (R.next()) {
    switch (R.fieldNumber()) {
    case FProfileString:
      ++Strings;
      StringBytes += R.bytes().size();
      break;
    case FProfileFrame:
      ++Frames;
      R.skip();
      break;
    case FProfileNode:
      ++Nodes;
      R.skip();
      break;
    default:
      R.skip();
    }
  }
  Strings = std::min(Strings, Limits.MaxStrings);
  Frames = std::min(Frames, Limits.MaxFrames);
  Nodes = std::min(Nodes, Limits.MaxNodes);
  P.reserveStrings(Strings, StringBytes);
  P.reserve(Nodes, Frames);
  StringMap.reserve(Strings);
  FrameMap.reserve(Frames);
  Depths.reserve(Nodes);
}

Result<bool> EvProfStreamDecoder::decodeField(uint32_t FieldNumber,
                                              std::string_view Payload) {
  auto MapString = [&](uint64_t Old) -> Result<StringId> {
    if (Old >= StringMap.size())
      return poison("string reference out of range", EvProfFault::StringRef);
    return StringMap[Old];
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
      return poison("malformed Metric message", EvProfFault::Malformed);
    // A duplicate is refused the moment it arrives: metric ids are
    // positional, so folding it onto one column would misattribute every
    // later per-node value.
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
      return poison("malformed Frame message", EvProfFault::Malformed);
    if (Kind > static_cast<uint64_t>(FrameKind::Thread))
      return poison("invalid frame kind");
    Frame F;
    F.Kind = static_cast<FrameKind>(Kind);
    Result<StringId> NameId = MapString(Name);
    if (!NameId)
      return makeError(NameId.error());
    F.Name = *NameId;
    Result<StringId> FileId = MapString(File);
    if (!FileId)
      return makeError(FileId.error());
    F.Loc.File = *FileId;
    if (Line > 0xFFFFFFFFULL)
      return poison("line number out of range");
    F.Loc.Line = static_cast<uint32_t>(Line);
    Result<StringId> ModuleId = MapString(Module);
    if (!ModuleId)
      return makeError(ModuleId.error());
    F.Loc.Module = *ModuleId;
    F.Loc.Address = Addr;
    FrameMap.push_back(P.internFrame(F));
    return true;
  }

  case FProfileNode: {
    if (!Guard.chargeNode())
      return poison(Guard.error());
    size_t I = WireNodes;
    uint64_t ParentPlus1 = 0, FrameRef = 0;
    NodeValues.clear();
    ProtoReader R(Payload);
    while (R.next()) {
      switch (R.fieldNumber()) {
      case FNodeParentPlus1:
        ParentPlus1 = R.varint();
        break;
      case FNodeFrame:
        FrameRef = R.varint();
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
          return poison("malformed MetricValue message",
                        EvProfFault::Malformed, I);
        if (!Guard.chargeAlloc(sizeof(MetricValue)))
          return poison(Guard.error());
        NodeValues.push_back(MV);
        break;
      }
      default:
        R.skip();
      }
    }
    if (R.failed())
      return poison("malformed Node message", EvProfFault::Malformed, I);
    for (const MetricValue &MV : NodeValues)
      if (MV.Metric >= P.metrics().size())
        return poison("node metric reference out of range",
                      EvProfFault::MetricRef, I);
    if (FrameRef >= FrameMap.size())
      return poison("frame reference out of range", EvProfFault::FrameRef, I);
    FrameId F = FrameMap[FrameRef];
    NodeId Id = P.root();
    uint32_t Depth = 0;
    if (I == 0) {
      if (ParentPlus1 != 0)
        return poison("first node is not a root", EvProfFault::ParentOrder, I);
      // Wire node 0 maps onto the implicit root.
      P.setFrame(Id, F);
    } else {
      if (ParentPlus1 == 0 || ParentPlus1 > I)
        return poison("node " + std::to_string(I) +
                          " has invalid parent reference",
                      EvProfFault::ParentOrder, I);
      Depth = Depths[ParentPlus1 - 1] + 1;
      if (!Guard.checkDepth(Depth))
        return poison(Guard.error());
      // createNode appends sequentially, so wire ids equal NodeIds.
      Id = P.createNode(static_cast<NodeId>(ParentPlus1 - 1), F);
    }
    for (const MetricValue &MV : NodeValues)
      P.appendValue(Id, MV);
    Depths.push_back(Depth);
    ++WireNodes;
    return true;
  }

  case FProfileGroup: {
    uint64_t Kind = 0, Metric = 0;
    double Value = 0.0;
    std::vector<NodeId> Contexts;
    bool Dangling = false;
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
          uint64_t Ctx = VR.readVarint();
          Dangling |= Ctx >= P.nodeCount();
          Contexts.push_back(static_cast<NodeId>(Ctx));
        }
        if (VR.failed())
          return poison("malformed packed context list",
                        EvProfFault::Malformed);
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
      return poison("malformed Group message", EvProfFault::Malformed);
    Result<StringId> KindId = MapString(Kind);
    if (!KindId)
      return makeError(KindId.error());
    if (Metric >= P.metrics().size())
      return poison("group metric reference out of range",
                    EvProfFault::MetricRef);
    if (Dangling)
      return poison("group context reference out of range",
                    EvProfFault::NodeRef);
    P.addGroup(*KindId, Contexts, static_cast<MetricId>(Metric), Value);
    return true;
  }

  default:
    return true; // Unknown top-level fields are tolerated.
  }
}

Result<size_t> EvProfStreamDecoder::feed(std::string_view Bytes) {
  if (Poisoned)
    return makeError(Diag);
  Total += Bytes.size();
  if (Total > Limits.MaxInputBytes)
    return poison("input of " + std::to_string(Total) +
                  " bytes exceeds the decode limit");

  if (!MagicSeen) {
    size_t Take = std::min(Bytes.size(), EvProfMagic.size() - Pending.size());
    Pending.append(Bytes.substr(0, Take));
    Bytes.remove_prefix(Take);
    if (Pending.size() < EvProfMagic.size())
      return size_t(0);
    if (!isEvProf(Pending))
      return poison("not an .evprof stream: bad magic",
                    EvProfFault::Malformed);
    Pending.clear();
    MagicSeen = true;
    reserveFor(Bytes);
  }

  // Complete fields decode straight from the caller's bytes; only a field
  // cut off at the end of the chunk is copied into Pending.
  bool Buffered = !Pending.empty();
  if (Buffered)
    Pending.append(Bytes);
  std::string_view In = Buffered ? std::string_view(Pending) : Bytes;
  size_t NodesBefore = WireNodes;
  size_t Off = 0;
  while (Off < In.size()) {
    FieldSpan F;
    if (!scanField(In.substr(Off), Limits.MaxInputBytes, F))
      return poison("malformed EvProfile message", EvProfFault::Malformed);
    if (F.Size == 0)
      break; // Wait for the rest of the field.
    if (F.Number <= FProfileGroup) {
      // A known field with the wrong wire type is structural corruption.
      if (F.Type != WireType::LengthDelimited)
        return poison("malformed EvProfile message", EvProfFault::Malformed);
      if (Result<bool> R = decodeField(F.Number, F.Payload); !R)
        return makeError(R.error());
    }
    Off += F.Size;
  }
  if (Buffered)
    Pending.erase(0, Off);
  else
    Pending.assign(In.substr(Off));
  return WireNodes - NodesBefore;
}

Result<Profile> EvProfStreamDecoder::snapshot() const {
  if (Poisoned)
    return makeError(Diag);
  if (WireNodes == 0)
    return makeError("profile stream has no nodes");
  return P.build();
}

Result<Profile> EvProfStreamDecoder::finish() {
  if (Poisoned)
    return makeError(Diag);
  if (!MagicSeen)
    return poison("not an .evprof stream: bad magic", EvProfFault::Malformed);
  if (!Pending.empty())
    return poison("malformed EvProfile message", EvProfFault::Malformed);
  if (WireNodes == 0)
    return poison("profile stream has no nodes");
  // Release the wire-id tables before the builder freezes, so they never
  // sit beside the frozen block.
  StringMap = {};
  FrameMap = {};
  Depths = {};
  NodeValues = {};
  Profile Out = P.take();
  poison("the stream was already finished");
  return Out;
}

} // namespace ev
