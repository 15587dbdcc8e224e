//===- examples/quickstart.cpp - EasyView in five minutes -----------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds a small profile with the data-builder API (under 20 lines, the
/// paper's §VII-A programmability claim), opens its .evprof bytes the way
/// an editor does (pvp/open through the in-process MockIde client), and
/// shows the core views: summary, flame graph, tree table, an EVQL
/// customization and the code link.
///
//===----------------------------------------------------------------------===//

#include "ide/MockIde.h"
#include "profile/ProfileBuilder.h"
#include "proto/EvProf.h"
#include "render/AnsiRenderer.h"
#include "render/TreeTable.h"

#include <chrono>
#include <cstdio>

using namespace ev;

int main() {
  // --- 1. A profiler adopts EasyView with the data-builder API.
  ProfileBuilder B("quickstart");
  MetricId Time = B.addMetric("cpu-time", "nanoseconds");
  std::vector<FrameId> Path = {
      B.functionFrame("main", "app.cc", 10, "app"),
      B.functionFrame("parseInput", "parse.cc", 88, "app")};
  B.addSample(Path, Time, 120e6);
  Path = {B.functionFrame("main", "app.cc", 10, "app"),
          B.functionFrame("compute", "compute.cc", 42, "app"),
          B.functionFrame("kernel", "compute.cc", 77, "app")};
  B.addSample(Path, Time, 700e6);
  Path = {B.functionFrame("main", "app.cc", 10, "app"),
          B.functionFrame("compute", "compute.cc", 42, "app"),
          B.functionFrame("memcpy", "", 0, "libc.so")};
  B.addSample(Path, Time, 180e6);

  // --- 2. Serialize to the .evprof container and open it through PVP,
  // exactly like an IDE opens a file.
  std::string Bytes = writeEvProf(B.take());
  MockIde Ide;
  auto Start = std::chrono::steady_clock::now();
  Result<int64_t> Id = Ide.openProfile("quickstart.evprof", Bytes);
  if (!Id) {
    std::fprintf(stderr, "error: %s\n", Id.error().c_str());
    return 1;
  }
  std::printf("opened profile in %.2f ms\n\n",
              std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - Start)
                  .count());
  json::Object Params;
  Params.set("profile", *Id);

  // --- 3. The floating-window summary.
  Result<json::Value> Summary = Ide.call("pvp/summary", Params);
  if (Summary)
    std::printf("%s\n", Summary->asObject().find("text")->asString().c_str());

  // --- 4. A terminal flame graph (the IDE shows the same geometry).
  const Profile *P = Ide.server().profile(*Id);
  FlameGraph Graph(*P, 0);
  AnsiOptions Ansi;
  Ansi.Columns = 96;
  Ansi.Color = false;
  std::printf("top-down flame graph:\n%s\n",
              renderAnsi(Graph, Ansi).c_str());

  // --- 5. The tree table with the hot path expanded.
  TreeTable Table(*P);
  Table.expandHotPath(0);
  std::printf("%s\n", Table.renderText().c_str());

  // --- 6. Customized analysis in EVQL: derive a percentage metric and
  // prune everything below 10% of total time.
  json::Object QueryParams = Params;
  QueryParams.set("program", R"(
      let Total = total("cpu-time");
      derive share = 100 * inclusive("cpu-time") / Total;
      prune when inclusive("cpu-time") < 0.10 * Total;
      print "total time (ns): " + str(Total);
  )");
  Result<json::Value> Query = Ide.call("pvp/query", std::move(QueryParams));
  if (!Query) {
    std::fprintf(stderr, "query error: %s\n", Query.error().c_str());
    return 1;
  }
  for (const json::Value &Line : Query->asObject().find("printed")->asArray())
    std::printf("evql: %s\n", Line.asString().c_str());
  const Profile *Pruned =
      Ide.server().profile(Query->asObject().find("profile")->asInt());
  std::printf("after pruning: %zu contexts (of %zu)\n", Pruned->nodeCount(),
              P->nodeCount());

  // --- 7. The mandatory IDE action: click a frame, land in the editor.
  json::Object SearchParams = Params;
  SearchParams.set("pattern", "kernel");
  Result<json::Value> Search = Ide.call("pvp/search", std::move(SearchParams));
  if (Search && !Search->asObject().find("matches")->asArray().empty()) {
    NodeId Node = static_cast<NodeId>(
        Search->asObject().find("matches")->asArray()[0].asInt());
    Result<bool> Linked = Ide.clickNode(*Id, Node);
    if (Linked && *Linked)
      std::printf("code link: kernel -> %s:%u\n",
                  Ide.navigations().back().File.c_str(),
                  Ide.navigations().back().Line);
  }
  return 0;
}
