//===- convert/Exporters.cpp - Generic representation -> foreign formats --===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "convert/Exporters.h"

#include "analysis/MetricEngine.h"
#include "proto/EvProf.h"
#include "support/Json.h"

#include <cmath>
#include <unordered_map>

namespace ev {
namespace convert {

namespace {

/// Renders one frame the way the folded format spells it.
std::string collapsedFrameName(const Profile &P, NodeId Id) {
  std::string Name(P.nameOf(Id));
  std::string_view Module = P.text(P.frameOf(Id).Loc.Module);
  if (!Module.empty()) {
    Name += " (";
    Name += Module;
    Name += ")";
  }
  return Name;
}

} // namespace

std::string toCollapsed(const Profile &P, MetricId Metric) {
  std::string Out;
  // Stack names per depth, maintained along a DFS.
  std::vector<std::string> Stack;
  struct Item {
    NodeId Id;
    size_t Depth;
  };
  std::vector<Item> Work{{P.root(), 0}};
  while (!Work.empty()) {
    Item It = Work.back();
    Work.pop_back();
    Stack.resize(It.Depth);
    if (It.Id != P.root())
      Stack.push_back(collapsedFrameName(P, It.Id));

    double Value = P.node(It.Id).metricOr(Metric);
    if (Value != 0.0 && !Stack.empty()) {
      for (size_t I = 0; I < Stack.size(); ++I) {
        if (I)
          Out.push_back(';');
        Out += Stack[I];
      }
      Out.push_back(' ');
      Out += std::to_string(
          static_cast<long long>(std::llround(std::max(1.0, Value))));
      Out.push_back('\n');
    }
    const CCTNode &Node = P.node(It.Id);
    for (size_t I = Node.Children.size(); I > 0; --I)
      Work.push_back({Node.Children[I - 1], Stack.size()});
  }
  return Out;
}

std::string toSpeedscope(const Profile &P, MetricId Metric) {
  // Shared frame table: one entry per distinct frame used on a valued
  // path.
  json::Array Frames;
  std::unordered_map<FrameId, size_t> FrameIndex;
  auto IndexOf = [&](FrameId F) {
    auto It = FrameIndex.find(F);
    if (It != FrameIndex.end())
      return It->second;
    const Frame &Fr = P.frame(F);
    json::Object FO;
    FO.set("name", std::string(P.text(Fr.Name)));
    if (Fr.Loc.File)
      FO.set("file", std::string(P.text(Fr.Loc.File)));
    if (Fr.Loc.Line)
      FO.set("line", Fr.Loc.Line);
    size_t Idx = Frames.size();
    Frames.push_back(std::move(FO));
    FrameIndex.emplace(F, Idx);
    return Idx;
  };

  json::Array Samples;
  json::Array Weights;
  double Total = 0.0;
  for (NodeId Id = 1; Id < P.nodeCount(); ++Id) {
    double Value = P.node(Id).metricOr(Metric);
    if (Value == 0.0)
      continue;
    json::Array Stack;
    for (NodeId Step : P.pathTo(Id))
      if (Step != P.root())
        Stack.push_back(IndexOf(P.node(Step).FrameRef));
    Samples.push_back(std::move(Stack));
    Weights.push_back(Value);
    Total += Value;
  }

  json::Object Prof;
  Prof.set("type", "sampled");
  Prof.set("name", P.name());
  Prof.set("unit",
           Metric < P.metrics().size() ? P.metrics()[Metric].Unit : "none");
  Prof.set("startValue", 0);
  Prof.set("endValue", Total);
  Prof.set("samples", std::move(Samples));
  Prof.set("weights", std::move(Weights));

  json::Object Shared;
  Shared.set("frames", std::move(Frames));

  json::Object Doc;
  Doc.set("$schema", "https://www.speedscope.app/file-format-schema.json");
  Doc.set("shared", std::move(Shared));
  json::Array Profiles;
  Profiles.push_back(std::move(Prof));
  Doc.set("profiles", std::move(Profiles));
  Doc.set("exporter", "easyview-cpp");
  return json::Value(std::move(Doc)).dump();
}

std::string toChromeTrace(const Profile &P, MetricId Metric) {
  std::vector<double> Inclusive = inclusiveColumn(P, Metric);

  json::Array Events;
  // DFS assigning start timestamps: a node starts where its previous
  // sibling ended; children start at the parent's start.
  struct Item {
    NodeId Id;
    double StartNs;
  };
  std::vector<Item> Work{{P.root(), 0.0}};
  while (!Work.empty()) {
    Item It = Work.back();
    Work.pop_back();
    if (It.Id != P.root() && Inclusive[It.Id] > 0.0) {
      json::Object E;
      E.set("ph", "X");
      E.set("name", std::string(P.nameOf(It.Id)));
      std::string_view File = P.text(P.frameOf(It.Id).Loc.File);
      if (!File.empty())
        E.set("cat", std::string(File));
      E.set("ts", It.StartNs / 1e3);
      E.set("dur", Inclusive[It.Id] / 1e3);
      E.set("pid", 1);
      E.set("tid", 1);
      Events.push_back(std::move(E));
    }
    double ChildStart = It.StartNs;
    const CCTNode &Node = P.node(It.Id);
    std::vector<Item> Pending;
    for (NodeId Child : Node.Children) {
      Pending.push_back({Child, ChildStart});
      ChildStart += Inclusive[Child];
    }
    for (size_t I = Pending.size(); I > 0; --I)
      Work.push_back(Pending[I - 1]);
  }

  json::Object Doc;
  Doc.set("traceEvents", std::move(Events));
  Doc.set("displayTimeUnit", "ms");
  return json::Value(std::move(Doc)).dump();
}

pprof::PprofProfile toPprofModel(const Profile &P) {
  pprof::PprofProfile Out;
  Out.StringTable.emplace_back("");
  std::unordered_map<std::string, int64_t> StringIndex;
  auto Intern = [&](std::string_view Text) -> int64_t {
    if (Text.empty())
      return 0;
    auto It = StringIndex.find(std::string(Text));
    if (It != StringIndex.end())
      return It->second;
    Out.StringTable.emplace_back(Text);
    int64_t Id = static_cast<int64_t>(Out.StringTable.size() - 1);
    StringIndex.emplace(std::string(Text), Id);
    return Id;
  };

  for (const MetricDescriptor &M : P.metrics())
    Out.SampleTypes.push_back({Intern(M.Name), Intern(M.Unit)});

  // One mapping per distinct module, one function+location per frame.
  std::unordered_map<StringId, uint64_t> Mappings;
  auto MappingFor = [&](StringId Module) -> uint64_t {
    if (Module == 0)
      return 0;
    auto It = Mappings.find(Module);
    if (It != Mappings.end())
      return It->second;
    pprof::Mapping M;
    M.Id = Mappings.size() + 1;
    M.Filename = Intern(P.text(Module));
    Out.Mappings.push_back(M);
    Mappings.emplace(Module, M.Id);
    return M.Id;
  };

  std::unordered_map<FrameId, uint64_t> Locations;
  auto LocationFor = [&](FrameId F) -> uint64_t {
    auto It = Locations.find(F);
    if (It != Locations.end())
      return It->second;
    const Frame &Fr = P.frame(F);
    pprof::Function Fn;
    Fn.Id = Out.Functions.size() + 1;
    Fn.Name = Intern(P.text(Fr.Name));
    Fn.SystemName = Fn.Name;
    Fn.Filename = Intern(P.text(Fr.Loc.File));
    Out.Functions.push_back(Fn);

    pprof::Location L;
    L.Id = Out.Locations.size() + 1;
    L.MappingId = MappingFor(Fr.Loc.Module);
    L.Address = Fr.Loc.Address;
    L.Lines.push_back({Fn.Id, static_cast<int64_t>(Fr.Loc.Line)});
    Out.Locations.push_back(std::move(L));
    Locations.emplace(F, Out.Locations.size());
    return Out.Locations.size();
  };

  for (NodeId Id = 1; Id < P.nodeCount(); ++Id) {
    const CCTNode &Node = P.node(Id);
    if (Node.Metrics.empty())
      continue;
    bool AllZero = true;
    for (const MetricValue &MV : Node.Metrics)
      if (MV.Value != 0.0)
        AllZero = false;
    if (AllZero)
      continue;
    pprof::Sample S;
    // Leaf-first.
    for (NodeId Step = Id; Step != P.root(); Step = P.node(Step).Parent)
      S.LocationIds.push_back(LocationFor(P.node(Step).FrameRef));
    S.Values.assign(P.metrics().size(), 0);
    for (const MetricValue &MV : Node.Metrics)
      S.Values[MV.Metric] = static_cast<int64_t>(std::llround(MV.Value));
    Out.Samples.push_back(std::move(S));
  }
  return Out;
}

std::string toPprof(const Profile &P) {
  return pprof::write(toPprofModel(P));
}

std::optional<std::string> exportProfile(const Profile &P,
                                         std::string_view Format,
                                         MetricId Metric) {
  if (Format == "evprof")
    return writeEvProf(P);
  if (Format == "pprof")
    return toPprof(P);
  if (Format == "collapsed")
    return toCollapsed(P, Metric);
  if (Format == "speedscope")
    return toSpeedscope(P, Metric);
  if (Format == "chrome")
    return toChromeTrace(P, Metric);
  return std::nullopt;
}

} // namespace convert
} // namespace ev
