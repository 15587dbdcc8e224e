//===- proto/EvProf.cpp - EasyView profile container format ---------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "proto/EvProf.h"

#include "proto/EvProfFields.h"
#include "proto/EvProfStream.h"
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

Result<Profile> readEvProf(std::string_view Bytes) {
  return readEvProf(Bytes, DecodeLimits::defaults());
}

Result<Profile> readEvProf(std::string_view Bytes,
                           const DecodeLimits &Limits) {
  trace::Span Span("decode/readEvProf", "decode");
  EvProfStreamDecoder Decoder(Limits);
  if (Result<size_t> Fed = Decoder.feed(Bytes); !Fed)
    return makeError(Fed.error());
  return Decoder.finish();
}

} // namespace ev
