//===- perfbench/Layers.cpp - Per-layer probes of the traced run ----------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include "Common.h"

#include "analysis/Aggregate.h"
#include "analysis/Diagnostic.h"
#include "analysis/Diff.h"
#include "analysis/FleetAggregate.h"
#include "analysis/Regression.h"
#include "analysis/Transform.h"
#include "convert/Converters.h"
#include "proto/EvProf.h"
#include "query/Parser.h"
#include "query/Vm.h"
#include "render/FlameLayout.h"
#include "render/TreeTable.h"
#include "support/Strings.h"

#include <span>

using namespace ev;

namespace pb {

namespace {

/// Median wall time in ms of \p Reps calls of \p F, each inside a span.
template <typename Fn> double timed(const std::string &Name, int Reps, Fn &&F) {
  std::vector<double> Ms;
  for (int R = 0; R < Reps; ++R) {
    Span S(Name, "layer");
    F();
    Ms.push_back(S.elapsedMs());
  }
  return percentile(Ms, 50);
}

json::Value request(const char *Method, json::Object Params) {
  return rpc::makeRequest(1, Method, std::move(Params));
}

json::Object onProfile(int64_t Id) {
  json::Object P;
  P.set("profile", Id);
  return P;
}

json::Array ids(const std::vector<int64_t> &Ids, size_t From, size_t To) {
  json::Array A;
  for (size_t I = From; I < To; ++I)
    A.push_back(Ids[I]);
  return A;
}

int64_t resultProfile(const json::Value &Reply) {
  const json::Value *R = Reply.asObject().find("result");
  return R ? profileOf(*R) : -1;
}

} // namespace

std::map<std::string, double> probeLayers(const ProbeInputs &In,
                                          std::string &Error) {
  std::map<std::string, double> M;
  const ServerLimits Limits;
  const std::string &Raw = In.Payloads[In.Primary];
  const std::string &Name = In.Names[In.Primary];

  // ide (framing) and support: the open request as the client framed it.
  std::string B64 = base64Encode(Raw);
  json::Object OpenParams;
  OpenParams.set("name", Name);
  OpenParams.set("dataBase64", B64);
  std::string OpenFrame = requestFrame(1, "pvp/open", OpenParams);
  std::optional<json::Value> OpenMsg;
  M["ide.frame.parse_ms"] = timed("ide.frame.parse", 3, [&] {
    rpc::FrameReader Reader;
    Reader.feed(OpenFrame);
    OpenMsg = Reader.poll();
  });
  M["support.base64_decode_ms"] = timed("support.base64_decode", 3, [&] {
    std::string Out;
    base64Decode(B64, Out);
  });

  // convert, profile, proto: the decode path of pvp/open.
  Result<Profile> Loaded = makeError("not loaded");
  M["convert.load_ms"] = timed("convert.load", 3, [&] {
    Loaded = convert::load(Raw, Name, Limits.Decode);
  });
  if (!OpenMsg || !Loaded) {
    Error = "layer probes: the primary payload does not decode";
    return {};
  }
  M["convert.load_mb_per_s"] =
      static_cast<double>(Raw.size()) / double(1 << 20) /
      (M["convert.load_ms"] / 1000.0);
  M["profile.verify_ms"] =
      timed("profile.verify", 3, [&] { (void)Loaded->verify(); });
  std::string Ev = isEvProf(Raw) ? Raw : writeEvProf(*Loaded);
  M["proto.read_evprof_ms"] =
      timed("proto.read_evprof", 3, [&] { (void)readEvProf(Ev); });

  // analysis: the cohort kernels over every input of the workload.
  std::vector<Profile> All;
  for (size_t I = 0; I < In.Payloads.size(); ++I) {
    Result<Profile> P = convert::load(In.Payloads[I], In.Names[I], Limits.Decode);
    if (!P) {
      Error = "layer probes: input " + In.Names[I] + " does not decode";
      return {};
    }
    All.push_back(P.take());
  }
  std::vector<const Profile *> Ptrs;
  for (const Profile &P : All)
    Ptrs.push_back(&P);
  AggregateOptions AggOpt;
  AggOpt.WithMin = AggOpt.WithMax = AggOpt.WithMean = true;
  std::optional<AggregatedProfile> Agg;
  M["analysis.aggregate_ms"] = timed("analysis.aggregate", 3, [&] {
    Agg = aggregate(std::span<const Profile *const>(Ptrs), AggOpt);
  });
  M["analysis.diff_ms"] = timed("analysis.diff", 3, [&] {
    (void)diffProfiles(All[0], All[1], 0);
  });
  size_t Half = All.size() / 2;
  M["analysis.regressions_ms"] = timed("analysis.regressions", 3, [&] {
    CohortAccumulator Base, Test;
    for (size_t I = 0; I < All.size(); ++I)
      (I < Half ? Base : Test).add(All[I]);
    DiagnosticSet Diags(Limits.Analysis.MaxDiagnostics);
    RegressionAnalyzer().analyze(Base, Test, Diags);
  });

  // analysis and render: the flame the workload asks for first.
  Profile Subject =
      In.FlameOfAggregate ? topDownTree(Agg->merged()) : *Loaded;
  Profile Shaped;
  M["analysis.top_down_ms"] = timed("analysis.top_down", 3, [&] {
    Shaped = topDownTree(Subject);
  });
  Profile Up;
  M["analysis.bottom_up_ms"] = timed("analysis.bottom_up", 3, [&] {
    Up = bottomUpTree(Subject);
  });
  const Profile &Laid = In.FlameShape == "bottom-up" ? Up : Subject;
  size_t Rects = 0;
  M["render.flame_layout_ms"] = timed("render.flame_layout", 3, [&] {
    FlameGraph Graph(Laid, 0);
    Rects = Graph.rects().size();
  });
  M["render.flame_rects"] = static_cast<double>(Rects);
  M["render.tree_table_ms"] = timed("render.tree_table", 3, [&] {
    TreeTable Table(Subject);
    Table.expandHotPath(0);
    (void)Table.rows();
  });

  // query: compile once per program, run per request.
  std::shared_ptr<const evql::CompiledProgram> Compiled;
  M["query.compile_ms"] = timed("query.compile", 5, [&] {
    Result<evql::Program> Prog = evql::parseProgram(QueryProgram);
    Compiled = Prog ? evql::compileProgram(*Prog, Limits.Analysis) : nullptr;
  });
  if (!Compiled) {
    Error = "layer probes: the query program does not compile";
    return {};
  }
  M["query.run_ms"] = timed("query.run", 3, [&] {
    (void)evql::runCompiled(*Loaded, *Compiled);
  });

  // ide (dispatch): PvpServer::handleMessage on a standalone session with
  // the view cache off, so every view is computed.
  ServerLimits NoCache;
  NoCache.MaxCachedViews = 0;
  PvpServer Server(NoCache);
  std::vector<int64_t> Opened, Scratch;
  for (size_t I = 0; I < In.Payloads.size(); ++I) {
    json::Object P;
    P.set("name", In.Names[I]);
    P.set("dataBase64", base64Encode(In.Payloads[I]));
    Opened.push_back(resultProfile(Server.handleMessage(request("pvp/open", P))));
  }
  M["ide.dispatch_ms.open"] = timed("ide.dispatch.open", 3, [&] {
    Scratch.push_back(resultProfile(Server.handleMessage(*OpenMsg)));
  });
  size_t FirstAggregate = Scratch.size();
  json::Object AggParams;
  AggParams.set("profiles", ids(Opened, 0, Opened.size()));
  M["ide.dispatch_ms.aggregate"] = timed("ide.dispatch.aggregate", 3, [&] {
    Scratch.push_back(
        resultProfile(Server.handleMessage(request("pvp/aggregate", AggParams))));
  });
  json::Object DiffParams;
  DiffParams.set("base", Opened[0]);
  DiffParams.set("test", Opened[1]);
  M["ide.dispatch_ms.diff"] = timed("ide.dispatch.diff", 3, [&] {
    Scratch.push_back(
        resultProfile(Server.handleMessage(request("pvp/diff", DiffParams))));
  });
  json::Object RegParams;
  RegParams.set("base", ids(Opened, 0, Half));
  RegParams.set("test", ids(Opened, Half, Opened.size()));
  M["ide.dispatch_ms.regressions"] = timed("ide.dispatch.regressions", 3, [&] {
    (void)Server.handleMessage(request("pvp/regressions", RegParams));
  });
  int64_t SubjectId = In.FlameOfAggregate ? Scratch[FirstAggregate] : Opened[In.Primary];
  json::Object FlameParams = onProfile(SubjectId);
  FlameParams.set("shape", In.FlameShape);
  FlameParams.set("maxRects", 4096);
  json::Value FlameReq = request("pvp/flame", FlameParams);
  json::Value FlameReply;
  M["ide.dispatch_ms.flame"] = timed("ide.dispatch.flame", 3, [&] {
    FlameReply = Server.handleMessage(FlameReq);
  });
  M["ide.dispatch_ms.treeTable"] = timed("ide.dispatch.treeTable", 3, [&] {
    (void)Server.handleMessage(request("pvp/treeTable", onProfile(SubjectId)));
  });
  json::Object QueryParams = onProfile(Opened[In.Primary]);
  QueryParams.set("program", QueryProgram);
  M["ide.dispatch_ms.query"] = timed("ide.dispatch.query", 3, [&] {
    Scratch.push_back(
        resultProfile(Server.handleMessage(request("pvp/query", QueryParams))));
  });
  for (int64_t Id : Scratch)
    (void)Server.handleMessage(request("pvp/close", onProfile(Id)));
  if (!FlameReply.asObject().contains("result")) {
    Error = "layer probes: the flame request failed";
    return {};
  }

  // support and ide (serialization) on the flame reply.
  std::string Dumped;
  M["support.json_dump_ms"] =
      timed("support.json_dump", 5, [&] { Dumped = FlameReply.dump(); });
  M["support.reply_kb"] = static_cast<double>(Dumped.size()) / 1024.0;
  M["ide.frame.write_ms"] =
      timed("ide.frame.write", 5, [&] { (void)rpc::frame(FlameReply); });

  // ide (view cache): handleMessage repeated on a request it just served.
  PvpServer Cached;
  int64_t CachedId = resultProfile(Cached.handleMessage(*OpenMsg));
  json::Object HitParams = FlameParams;
  HitParams.set("profile", CachedId);
  HitParams.set("shape", "top-down");
  json::Value HitReq = request("pvp/flame", HitParams);
  (void)Cached.handleMessage(HitReq);
  M["ide.cache_hit_us"] =
      1000.0 * timed("ide.cache_hit", 30, [&] { (void)Cached.handleMessage(HitReq); });
  return M;
}

} // namespace pb
