//===- tests/golden_main.cpp - Golden behaviour corpus --------------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins observable behaviour byte for byte: the writeEvProf bytes of every
/// profile-producing path (each converter, the three view shapes, collapse
/// recursion, aggregate, diff, prune, thread split, correlated panes, the
/// cohort accumulator, the EVQL derive and every workload generator) over
/// small seeded inputs, plus the replies of a scripted PVP session that
/// calls every deterministic method. Timing-dependent methods (pvp/stats,
/// pvp/metrics, pvp/selfProfile) are left out. A second scripted session
/// pins the error replies (a missing or ill-typed parameter of every
/// method, unknown shapes, formats and views, a profile id another session
/// owns) and the view cache serving a repeated pvp/regressions. A third
/// pins live views: the pvp/viewDelta pushes of a flame and a tree-table
/// subscription, so the delta wire format is fixed byte for byte. The cli/
/// entries pin stdout, stderr and the exit code of every deterministic
/// evtool subcommand over the same fixtures, plus the files it writes.
///
///   easyview_golden <dir>               compare against <dir>; exit 1 on
///                                       any difference
///   easyview_golden --regenerate <dir>  rewrite <dir> from this build
///
/// tools/regen_golden.sh wraps the second form.
///
//===----------------------------------------------------------------------===//

#include "analysis/Aggregate.h"
#include "analysis/Diff.h"
#include "analysis/FleetAggregate.h"
#include "analysis/Prune.h"
#include "analysis/ThreadSplit.h"
#include "analysis/Transform.h"
#include "convert/Converters.h"
#include "ide/JsonRpc.h"
#include "ide/PvpServer.h"
#include "proto/EvProf.h"
#include "query/Vm.h"
#include "render/CorrelatedView.h"
#include "support/FileIo.h"
#include "tool/CliDriver.h"
#include "support/Strings.h"
#include "workload/FleetWorkload.h"
#include "workload/GrpcLeakWorkload.h"
#include "workload/LuleshWorkload.h"
#include "workload/ReuseWorkload.h"
#include "workload/ScalingWorkload.h"
#include "workload/SparkWorkload.h"
#include "workload/SyntheticProfile.h"

#include "TestHelpers.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

using namespace ev;

namespace {

/// Corpus entry name (a relative path under the golden dir) -> bytes.
using Corpus = std::map<std::string, std::string>;

void makeParents(const std::string &Path) {
  for (size_t Slash = Path.find('/', 1); Slash != std::string::npos;
       Slash = Path.find('/', Slash + 1))
    ::mkdir(Path.substr(0, Slash).c_str(), 0755);
}

//===----------------------------------------------------------------------===
// Converter fixtures (the inputs tests/convert_test.cpp and
// tests/extensions_test.cpp use)
//===----------------------------------------------------------------------===

const char *PerfScriptSample =
    "app 1234 4000.123456:     250000 cycles:\n"
    "\tffffffff8104f45a do_syscall_64+0x1a (/boot/vmlinux)\n"
    "\t          4005d0 compute+0x40 (/home/u/app)\n"
    "\t          400400 main+0x10 (/home/u/app)\n"
    "\n"
    "app 1234 4000.133456:     250000 cycles:\n"
    "\t          4005d0 compute+0x40 (/home/u/app)\n"
    "\t          400400 main+0x10 (/home/u/app)\n"
    "\n";

const char *ChromeComplete = R"({"traceEvents":[
    {"ph":"X","name":"parent","ts":0,"dur":100,"pid":1,"tid":1},
    {"ph":"X","name":"child","ts":10,"dur":40,"pid":1,"tid":1},
    {"ph":"X","name":"sibling","ts":60,"dur":20,"pid":1,"tid":1}
  ]})";

const char *ChromeBeginEnd = R"([
    {"ph":"B","name":"a","ts":0,"pid":1,"tid":1},
    {"ph":"B","name":"b","ts":10,"pid":1,"tid":1},
    {"ph":"E","name":"b","ts":30,"pid":1,"tid":1},
    {"ph":"E","name":"a","ts":50,"pid":1,"tid":1},
    {"ph":"X","name":"t2work","ts":0,"dur":10,"pid":1,"tid":2}
  ])";

const char *SpeedscopeSampled = R"({
  "$schema": "https://www.speedscope.app/file-format-schema.json",
  "shared": {"frames": [
    {"name": "main", "file": "m.c", "line": 3},
    {"name": "work", "file": "w.c", "line": 9}
  ]},
  "profiles": [{
    "type": "sampled", "name": "cpu", "unit": "milliseconds",
    "samples": [[0], [0, 1], [0, 1]],
    "weights": [2, 3, 4]
  }]
})";

const char *SpeedscopeEvented = R"({
    "$schema": "x", "shared": {"frames": [{"name": "f"}, {"name": "g"}]},
    "profiles": [{"type": "evented", "name": "t", "events": [
      {"type": "O", "frame": 0, "at": 0},
      {"type": "O", "frame": 1, "at": 2},
      {"type": "C", "frame": 1, "at": 5},
      {"type": "C", "frame": 0, "at": 10}
    ]}]
  })";

const char *SpeedscopeMulti = R"({
    "shared": {"frames": [{"name": "f"}]},
    "profiles": [
      {"type": "sampled", "name": "t1", "samples": [[0]], "weights": [1]},
      {"type": "sampled", "name": "t2", "samples": [[0]], "weights": [1]}
    ]
  })";

const char *HpctkXml = R"(<?xml version="1.0"?>
<HPCToolkitExperiment version="2.2">
<Header n="test-db"/>
<SecCallPathProfile i="0" n="test">
<SecHeader>
<MetricTable><Metric i="0" n="CPUTIME (usec):Sum"/></MetricTable>
<LoadModuleTable><LoadModule i="2" n="/bin/app"/></LoadModuleTable>
<FileTable><File i="3" n="app.cc"/></FileTable>
<ProcedureTable>
  <Procedure i="4" n="main"/>
  <Procedure i="5" n="work"/>
</ProcedureTable>
</SecHeader>
<SecCallPathProfileData>
<PF i="10" n="4" f="3" lm="2" l="12">
  <M n="0" v="100"/>
  <C i="11" l="20">
    <PF i="12" n="5" f="3" lm="2" l="30">
      <M n="0" v="400"/>
      <L i="13" l="35" f="3">
        <S i="14" l="36"><M n="0" v="50"/></S>
      </L>
    </PF>
  </C>
</PF>
</SecCallPathProfileData>
</SecCallPathProfile>
</HPCToolkitExperiment>
)";

const char *ScaleneJson = R"({
    "files": {"app.py": {"lines": [
      {"lineno": 3, "function": "hot", "n_cpu_percent_python": 40.0,
       "n_cpu_percent_c": 10.0, "n_malloc_mb": 2.0},
      {"lineno": 9, "function": "cold", "n_cpu_percent_python": 0.5}
    ]}}})";

const char *PyinstrumentJson = R"({
    "root_frame": {
      "function": "<module>", "file_path": "app.py", "line_no": 1,
      "time": 10.0,
      "children": [
        {"function": "slow", "file_path": "app.py", "line_no": 5,
         "time": 7.0, "children": []},
        {"function": "fast", "file_path": "app.py", "line_no": 9,
         "time": 1.0, "children": []}
      ]
    }, "duration": 10.0})";

const char *TauProfile =
    "4 templated_functions_MULTI_TIME\n"
    "# Name Calls Subrs Excl Incl ProfileCalls #\n"
    "\".TAU application\" 1 1 1000 29000 0 GROUP=\"TAU_DEFAULT\"\n"
    "\"main()\" 1 2 2000 28000 0 GROUP=\"TAU_USER\"\n"
    "\"main() => work()\" 4 0 20000 20000 0 GROUP=\"TAU_CALLPATH\"\n"
    "\"main() => io()\" 2 0 6000 6000 0 GROUP=\"TAU_CALLPATH\"\n"
    "0 aggregates\n";

const char *CollapsedText = "main;foo;bar 10\n"
                            "main;foo 5\n"
                            "main;baz 2\n"
                            "libc.so!malloc;brk 3\n"
                            "main (/bin/app);work (/bin/app) 4\n";

std::string smallPprof() {
  workload::SyntheticOptions Opt;
  Opt.TargetBytes = 32 << 10;
  return workload::generatePprofBytes(Opt);
}

/// Records the evprof bytes of a successful conversion, or the error text
/// (so a converter that starts failing shows up as a corpus difference).
void putResult(Corpus &C, const std::string &Name, Result<Profile> P) {
  C[Name] = P ? writeEvProf(*P) : "error: " + P.error() + "\n";
}

void addConverters(Corpus &C) {
  putResult(C, "convert/collapsed.evprof", convert::fromCollapsed(CollapsedText));
  putResult(C, "convert/perf-script.evprof",
            convert::fromPerfScript(PerfScriptSample));
  putResult(C, "convert/chrome-complete.evprof",
            convert::fromChromeTrace(ChromeComplete));
  putResult(C, "convert/chrome-begin-end.evprof",
            convert::fromChromeTrace(ChromeBeginEnd));
  putResult(C, "convert/speedscope-sampled.evprof",
            convert::fromSpeedscope(SpeedscopeSampled));
  putResult(C, "convert/speedscope-evented.evprof",
            convert::fromSpeedscope(SpeedscopeEvented));
  putResult(C, "convert/speedscope-multi.evprof",
            convert::fromSpeedscope(SpeedscopeMulti));
  putResult(C, "convert/hpctoolkit.evprof", convert::fromHpctoolkit(HpctkXml));
  putResult(C, "convert/hpctoolkit-lulesh.evprof",
            convert::fromHpctoolkit(workload::generateLuleshExperimentXml({})));
  putResult(C, "convert/scalene.evprof", convert::fromScalene(ScaleneJson));
  putResult(C, "convert/pyinstrument.evprof",
            convert::fromPyinstrument(PyinstrumentJson));
  putResult(C, "convert/tau.evprof", convert::fromTau(TauProfile));
  putResult(C, "convert/pprof.evprof", convert::fromPprof(smallPprof()));
  putResult(C, "convert/load-evprof.evprof",
            convert::load(writeEvProf(test::makeFixedProfile()), "fixed.evprof"));
  putResult(C, "convert/load-collapsed.evprof",
            convert::load("main;a;b 10\nmain;c 2\n", "named"));
}

//===----------------------------------------------------------------------===
// Analyses and generators
//===----------------------------------------------------------------------===

void addAnalyses(Corpus &C) {
  Profile Random = test::makeRandomProfile(7);
  Profile Fixed = test::makeFixedProfile();
  workload::SyntheticOptions Opt;
  Opt.TargetBytes = 32 << 10;
  Profile Synthetic = workload::generateSyntheticProfile(Opt);

  C["transform/top-down.evprof"] = writeEvProf(topDownTree(Random));
  C["transform/bottom-up.evprof"] = writeEvProf(bottomUpTree(Random));
  C["transform/flat.evprof"] = writeEvProf(flatTree(Random));
  C["transform/collapse-recursion.evprof"] =
      writeEvProf(collapseRecursion(Random));
  C["transform/limit-depth.evprof"] = writeEvProf(limitDepth(Random, 3));
  C["transform/synthetic-bottom-up.evprof"] =
      writeEvProf(bottomUpTree(Synthetic));
  C["transform/synthetic-flat.evprof"] = writeEvProf(flatTree(Synthetic));

  std::vector<Profile> Inputs;
  for (uint64_t Seed = 1; Seed <= 8; ++Seed)
    Inputs.push_back(test::makeRandomProfile(Seed, 120, 8, 24));
  std::vector<const Profile *> Ptrs;
  for (const Profile &P : Inputs)
    Ptrs.push_back(&P);
  AggregateOptions AllStats;
  AllStats.WithMin = AllStats.WithMax = AllStats.WithMean =
      AllStats.WithStddev = true;
  AggregatedProfile Agg = aggregate(Ptrs, AllStats);
  C["analysis/aggregate-8.evprof"] = writeEvProf(Agg.merged());

  DiffResult D = diffProfiles(Inputs[0], Inputs[1], 0);
  C["analysis/diff.evprof"] = writeEvProf(D.Merged);

  C["analysis/prune.evprof"] = writeEvProf(pruneByFraction(Random, 0, 0.01));
  C["analysis/filter.evprof"] =
      writeEvProf(filterNodes(Random, [](const Profile &P, NodeId Id) {
        return P.node(Id).Children.size() != 1;
      }));

  Result<evql::QueryOutput> Q = evql::runProgram(
      Fixed, "derive twice = 2 * exclusive(\"time\");\n"
             "derive share = share(\"time\");\n"
             "print total(\"twice\");");
  C["analysis/query-derive.evprof"] =
      Q ? writeEvProf(Q->Result) : "error: " + Q.error() + "\n";
  Result<evql::QueryOutput> QP =
      evql::runProgram(Random, "prune when inclusive(\"time\") < 0.02 * "
                             "total(\"time\");");
  C["analysis/query-prune.evprof"] =
      QP ? writeEvProf(QP->Result) : "error: " + QP.error() + "\n";

  // Thread split over the Speedscope multi-profile (thread lanes).
  Result<Profile> Lanes = convert::fromSpeedscope(SpeedscopeMulti);
  if (Lanes) {
    std::vector<Profile> Split = splitByThread(*Lanes);
    for (size_t I = 0; I < Split.size(); ++I)
      C["analysis/thread-split-" + std::to_string(I) + ".evprof"] =
          writeEvProf(Split[I]);
  }

  workload::ReuseWorkload Reuse = workload::generateReuseWorkload();
  C["workload/reuse.evprof"] = writeEvProf(Reuse.P);
  CorrelatedView View(Reuse.P, "reuse");
  if (View.roleCount() > 1 && !View.paneContexts(0).empty())
    View.select(0, View.paneContexts(0).front().first);
  for (size_t Role = 0; Role < View.roleCount(); ++Role)
    C["analysis/correlated-pane-" + std::to_string(Role) + ".evprof"] =
        writeEvProf(View.paneProfile(Role));

  workload::FleetOptions FO;
  FO.Services = 3;
  FO.Versions = 2;
  FO.Replicas = 3;
  workload::FleetWorkload Fleet = workload::generateFleetWorkload(FO);
  CohortAccumulator Cohort;
  for (const Profile &P : Fleet.Versions.back())
    Cohort.add(P);
  C["analysis/cohort-shape.evprof"] = writeEvProf(Cohort.shape());
  FleetAggregateOptions Tight;
  Tight.NodeBudget = 16;
  CohortAccumulator Pruned(Tight);
  for (const Profile &P : Fleet.Versions.back())
    Pruned.add(P);
  C["analysis/cohort-pruned.evprof"] = writeEvProf(Pruned.shape());

  C["workload/fleet-0-0.evprof"] = writeEvProf(Fleet.Versions[0][0]);
  C["workload/synthetic.evprof"] = writeEvProf(Synthetic);
  C["workload/lulesh.evprof"] = writeEvProf(workload::generateLuleshProfile());
  workload::SparkWorkload Spark = workload::generateSparkWorkload();
  C["workload/spark-rdd.evprof"] = writeEvProf(Spark.Rdd);
  C["workload/spark-sql.evprof"] = writeEvProf(Spark.Sql);
  workload::GrpcLeakOptions GO;
  GO.Snapshots = 4;
  workload::GrpcLeakWorkload Leak = workload::generateGrpcLeakWorkload(GO);
  C["workload/grpc-leak-last.evprof"] = writeEvProf(Leak.Snapshots.back());
  workload::ScalingWorkload Scaling = workload::generateScalingWorkload();
  C["workload/scaling-small.evprof"] = writeEvProf(Scaling.Small);
  C["workload/scaling-large.evprof"] = writeEvProf(Scaling.Large);
}

//===----------------------------------------------------------------------===
// Scripted PVP session
//===----------------------------------------------------------------------===

/// pvp/summary reports the in-memory size of the profile representation,
/// which is a property of the implementation, not of the profile; that one
/// figure is masked so the corpus pins behaviour only.
std::string maskMemoryFigure(std::string Dump) {
  static constexpr std::string_view Key = "approx memory: ";
  for (size_t At = Dump.find(Key); At != std::string::npos;
       At = Dump.find(Key, At + Key.size())) {
    size_t End = Dump.find("\\n", At);
    if (End == std::string::npos)
      break;
    Dump.replace(At + Key.size(), End - At - Key.size(), "(masked)");
  }
  return Dump;
}

class Session {
public:
  Session() = default;
  /// A session over shared state, like one strand of SessionManager.
  Session(std::shared_ptr<ProfileStore> Store, std::shared_ptr<ViewCache> Cache)
      : Server(ServerLimits(), std::move(Store), std::move(Cache)) {}

  json::Value call(const std::string &Method, json::Object Params) {
    json::Value Reply =
        Server.handleMessage(rpc::makeRequest(NextId++, Method,
                                              std::move(Params)));
    Log += maskMemoryFigure(Reply.dump());
    Log += '\n';
    for (const json::Value &Note : Server.takeNotifications()) {
      Log += Note.dump();
      Log += '\n';
    }
    return Reply;
  }

  int64_t open(const std::string &Name, const std::string &Bytes) {
    json::Object P;
    P.set("name", Name);
    P.set("dataBase64", base64Encode(Bytes));
    return resultInt(call("pvp/open", std::move(P)), "profile");
  }

  static int64_t resultInt(const json::Value &Reply, const char *Key) {
    if (!Reply.isObject())
      return -1;
    const json::Value *R = Reply.asObject().find("result");
    if (!R || !R->isObject())
      return -1;
    const json::Value *V = R->asObject().find(Key);
    return V && V->isNumber() ? V->asInt() : -1;
  }

  std::string Log;

private:
  PvpServer Server;
  int64_t NextId = 1;
};

json::Object params(std::initializer_list<std::pair<const char *, json::Value>>
                        Fields) {
  json::Object O;
  for (const auto &[Key, Value] : Fields)
    O.set(Key, Value);
  return O;
}

json::Value ids(std::initializer_list<int64_t> Values) {
  json::Array A;
  for (int64_t V : Values)
    A.push_back(json::Value(V));
  return json::Value(std::move(A));
}

std::string pvpSession() {
  Session S;
  int64_t Fixed = S.open("fixed.evprof", writeEvProf(test::makeFixedProfile()));
  int64_t R1 = S.open("r1.evprof", writeEvProf(test::makeRandomProfile(1)));
  int64_t R2 = S.open("r2.evprof", writeEvProf(test::makeRandomProfile(2)));
  {
    json::Object P;
    P.set("name", "stacks.collapsed");
    P.set("data", std::string(CollapsedText));
    S.call("pvp/open", std::move(P));
  }
  int64_t Reuse =
      S.open("reuse.evprof", writeEvProf(workload::generateReuseWorkload().P));

  for (const char *Shape : {"top-down", "bottom-up", "flat"})
    S.call("pvp/flame", params({{"profile", R1},
                                {"shape", Shape},
                                {"maxRects", 64}}));
  S.call("pvp/flame", params({{"profile", Fixed}}));
  S.call("pvp/flame", params({{"profile", Fixed}})); // cache hit.
  S.call("pvp/treeTable", params({{"profile", Fixed}}));
  S.call("pvp/treeTable", params({{"profile", Fixed}, {"expand", ids({1, 3})}}));
  S.call("pvp/codeLink", params({{"profile", Fixed}, {"node", 4}}));
  S.call("pvp/codeLink", params({{"profile", Fixed}, {"node", 5}}));
  S.call("pvp/hover", params({{"profile", Fixed}, {"node", 3}}));
  S.call("pvp/codeLens", params({{"profile", Fixed}, {"file", "comp.cc"}}));
  S.call("pvp/summary", params({{"profile", R1}}));
  S.call("pvp/search", params({{"profile", R1}, {"pattern", "fn1"}}));
  S.call("pvp/butterfly", params({{"profile", R1}, {"function", "fn3"}}));
  S.call("pvp/correlated", params({{"profile", Reuse}, {"kind", "reuse"}}));
  S.call("pvp/correlated", params({{"profile", Reuse},
                                   {"kind", "reuse"},
                                   {"select", ids({13})}}));

  int64_t Agg = Session::resultInt(
      S.call("pvp/aggregate", params({{"profiles", ids({R1, R2, Fixed})}})),
      "profile");
  S.call("pvp/flame", params({{"profile", Agg}, {"maxRects", 32}}));
  S.call("pvp/histogram", params({{"aggregate", Agg}, {"node", 1}}));
  int64_t Diff = Session::resultInt(
      S.call("pvp/diff", params({{"base", R1}, {"test", R2}})), "profile");
  S.call("pvp/treeTable", params({{"profile", Diff}}));
  for (const char *Shape :
       {"top-down", "bottom-up", "flat", "collapse-recursion"})
    S.call("pvp/transform", params({{"profile", R2}, {"shape", Shape}}));
  S.call("pvp/prune", params({{"profile", R2}, {"minFraction", 0.05}}));
  int64_t Derived = Session::resultInt(
      S.call("pvp/query",
             params({{"profile", Fixed},
                     {"program", "derive twice = 2 * exclusive(\"time\");\n"
                                 "print total(\"twice\");"}})),
      "profile");
  S.call("pvp/hover", params({{"profile", Derived}, {"node", 2}}));
  S.call("pvp/query", params({{"profile", Fixed}, {"program", "print nope;"}}));
  for (const char *Format :
       {"evprof", "pprof", "collapsed", "speedscope", "chrome"})
    S.call("pvp/export", params({{"profile", Fixed}, {"format", Format}}));
  S.call("pvp/diagnostics",
         params({{"program", "derive x = exclusive(\"bogus\");"},
                 {"profile", Fixed}}));
  S.call("pvp/diagnostics", params({{"profile", R1}}));
  S.call("pvp/regressions", params({{"base", ids({R1})}, {"test", ids({R2})}}));

  // Live views: open stage 0, subscribe, append two sections, ack.
  std::vector<std::string> Stages = test::growthStageBytes(3);
  int64_t Live = S.open("live.evprof", Stages[0]);
  int64_t Sub = Session::resultInt(
      S.call("pvp/subscribe", params({{"profile", Live}, {"view", "flame"}})),
      "subscription");
  json::Object Append1;
  Append1.set("profile", Live);
  Append1.set("dataBase64", base64Encode(test::sectionBytes(Stages, 0)));
  S.call("pvp/append", std::move(Append1));
  S.call("pvp/ack", params({{"subscription", Sub}, {"generation", 1}}));
  json::Object Append2;
  Append2.set("profile", Live);
  Append2.set("dataBase64", base64Encode(test::sectionBytes(Stages, 1)));
  S.call("pvp/append", std::move(Append2));
  S.call("pvp/unsubscribe", params({{"subscription", Sub}}));
  S.call("pvp/flame", params({{"profile", Live}}));

  // Errors and teardown.
  S.call("pvp/nope", json::Object());
  S.call("pvp/flame", params({{"profile", 9999}}));
  S.call("pvp/close", params({{"profile", R2}}));
  S.call("pvp/flame", params({{"profile", R2}}));
  S.call("pvp/close", params({{"profile", R2}}));

  // Bottom-up flames: the default rect budget, a budget small enough to
  // truncate the reply, and values that are not integers.
  S.call("pvp/flame", params({{"profile", R1}, {"shape", "bottom-up"}}));
  S.call("pvp/flame",
         params({{"profile", Agg}, {"shape", "bottom-up"}, {"maxRects", 8}}));
  int64_t Fractional = S.open(
      "fractional.evprof",
      writeEvProf(test::withFractionalValues(
          test::makeRandomProfile(4, 60, 8, 12))));
  S.call("pvp/flame", params({{"profile", Fractional}, {"shape", "bottom-up"}}));
  return std::move(S.Log);
}

/// Live views: a flame and a tree-table (includeText:false) subscription
/// on one profile, two appends and the deltas each pushes, an ack of the
/// flame's latest push, a stale ack of the tree table's first and the
/// unsubscribes.
std::string pvpSubscribeSession() {
  Session S;
  std::vector<std::string> Stages = test::growthStageBytes(3);
  int64_t Live = S.open("live.evprof", Stages[0]);
  json::Object NoText;
  NoText.set("includeText", false);
  int64_t Flame = Session::resultInt(
      S.call("pvp/subscribe", params({{"profile", Live}, {"view", "flame"}})),
      "subscription");
  int64_t Table = Session::resultInt(
      S.call("pvp/subscribe", params({{"profile", Live},
                                      {"view", "treeTable"},
                                      {"params", NoText}})),
      "subscription");
  for (size_t Stage = 0; Stage < 2; ++Stage)
    S.call("pvp/append",
           params({{"profile", Live},
                   {"dataBase64",
                    base64Encode(test::sectionBytes(Stages, Stage))}}));
  S.call("pvp/ack", params({{"subscription", Flame}, {"generation", 2}}));
  S.call("pvp/ack", params({{"subscription", Table}, {"generation", 1}}));
  S.call("pvp/unsubscribe", params({{"subscription", Flame}}));
  S.call("pvp/unsubscribe", params({{"subscription", Table}}));
  return std::move(S.Log);
}

/// Error replies of every method plus the ownership and cache contracts.
/// Sessions A and B share one store and one view cache; B addresses a
/// profile only A opened. Both sessions log into one transcript.
std::string pvpErrorSession() {
  auto Store = std::make_shared<ProfileStore>();
  auto Cache = std::make_shared<ViewCache>(ServerLimits().MaxCachedViews);
  Session A(Store, Cache);
  Session B(Store, Cache);
  std::string Log;
  auto Flush = [&] {
    Log += A.Log;
    Log += B.Log;
    A.Log.clear();
    B.Log.clear();
  };
  int64_t Fixed = A.open("fixed.evprof", writeEvProf(test::makeFixedProfile()));
  int64_t R1 = A.open("r1.evprof", writeEvProf(test::makeRandomProfile(1)));
  int64_t R2 = A.open("r2.evprof", writeEvProf(test::makeRandomProfile(2)));
  json::Value Text("x");

  A.call("pvp/open", json::Object());
  A.call("pvp/open", params({{"dataBase64", "!!!"}}));
  A.call("pvp/open", params({{"data", "not a profile"}}));
  A.call("pvp/append", json::Object());
  A.call("pvp/append", params({{"profile", Fixed}}));
  A.call("pvp/append", params({{"profile", Fixed}, {"data", "garbage"}}));
  A.call("pvp/close", json::Object());
  A.call("pvp/close", params({{"profile", Text}}));
  A.call("pvp/close", params({{"profile", 9999}}));
  A.call("pvp/subscribe", json::Object());
  A.call("pvp/subscribe", params({{"profile", Fixed}}));
  A.call("pvp/subscribe", params({{"profile", Fixed}, {"view", "sideways"}}));
  A.call("pvp/subscribe", params({{"profile", Fixed},
                                  {"view", "flame"},
                                  {"params", 3}}));
  A.call("pvp/ack", json::Object());
  A.call("pvp/ack", params({{"subscription", 77}, {"generation", 0}}));
  A.call("pvp/unsubscribe", json::Object());
  A.call("pvp/unsubscribe", params({{"subscription", 77}}));
  A.call("pvp/flame", json::Object());
  A.call("pvp/flame", params({{"profile", Text}}));
  A.call("pvp/flame", params({{"profile", 1.5}}));
  A.call("pvp/flame", params({{"profile", Fixed}, {"shape", 3}}));
  A.call("pvp/flame", params({{"profile", Fixed}, {"shape", "sideways"}}));
  A.call("pvp/flame", params({{"profile", Fixed}, {"maxRects", -1}}));
  A.call("pvp/flame", params({{"profile", Fixed}, {"metric", "nope"}}));
  A.call("pvp/flame", params({{"profile", Fixed}, {"metric", 7}}));
  A.call("pvp/flame", params({{"profile", Fixed}, {"metric", true}}));
  A.call("pvp/treeTable", json::Object());
  A.call("pvp/treeTable", params({{"profile", Fixed}, {"expand", 3}}));
  A.call("pvp/codeLink", params({{"profile", Fixed}}));
  A.call("pvp/codeLink", params({{"profile", Fixed}, {"node", 99}}));
  A.call("pvp/hover", params({{"profile", Fixed}, {"node", -1}}));
  A.call("pvp/hover", params({{"profile", Fixed}, {"node", Text}}));
  A.call("pvp/codeLens", params({{"profile", Fixed}}));
  A.call("pvp/codeLens", params({{"profile", Fixed}, {"file", 3}}));
  A.call("pvp/summary", json::Object());
  A.call("pvp/search", params({{"profile", Fixed}}));
  A.call("pvp/aggregate", json::Object());
  A.call("pvp/aggregate", params({{"profiles", ids({})}}));
  A.call("pvp/aggregate", params({{"profiles", Text}}));
  A.call("pvp/aggregate", params({{"profiles", ids({Fixed, 9999})}}));
  A.call("pvp/histogram", json::Object());
  A.call("pvp/histogram", params({{"aggregate", 9999}, {"node", 0}}));
  A.call("pvp/diff", params({{"base", Fixed}}));
  A.call("pvp/diff", params({{"base", Fixed}, {"test", Text}}));
  A.call("pvp/diff", params({{"base", R1}, {"test", R2}, {"metric", "nope"}}));
  A.call("pvp/query", params({{"profile", Fixed}}));
  A.call("pvp/query", params({{"profile", Fixed}, {"program", 3}}));
  A.call("pvp/query", params({{"profile", Fixed}, {"program", "print ;"}}));
  A.call("pvp/transform", params({{"profile", Fixed}}));
  A.call("pvp/transform", params({{"profile", Fixed}, {"shape", 3}}));
  A.call("pvp/transform", params({{"profile", Fixed}, {"shape", "sideways"}}));
  A.call("pvp/prune", params({{"profile", Fixed}, {"minFraction", Text}}));
  A.call("pvp/prune", params({{"profile", Fixed}, {"minFraction", 2.0}}));
  A.call("pvp/prune", params({{"profile", Fixed}, {"metric", "nope"}}));
  A.call("pvp/export", params({{"profile", Fixed}}));
  A.call("pvp/export", params({{"profile", Fixed}, {"format", 3}}));
  A.call("pvp/export", params({{"profile", Fixed}, {"format", "bogus"}}));
  A.call("pvp/export", params({{"profile", Fixed},
                               {"format", "collapsed"},
                               {"metric", "nope"}}));
  A.call("pvp/butterfly", params({{"profile", Fixed}}));
  A.call("pvp/butterfly", params({{"profile", Fixed}, {"function", "nope"}}));
  A.call("pvp/correlated", params({{"profile", Fixed}}));
  A.call("pvp/correlated", params({{"profile", Fixed}, {"kind", "nope"}}));
  A.call("pvp/diagnostics", json::Object());
  A.call("pvp/diagnostics", params({{"program", 3}}));
  A.call("pvp/diagnostics", params({{"profile", Fixed},
                                    {"minSeverity", "bogus"}}));
  A.call("pvp/diagnostics", params({{"profile", Fixed}, {"disable", Text}}));
  {
    json::Array Rules;
    Rules.push_back(json::Value("no-such-rule"));
    json::Value Disable(std::move(Rules));
    A.call("pvp/diagnostics",
           params({{"profile", Fixed}, {"disable", std::move(Disable)}}));
  }
  A.call("pvp/regressions", json::Object());
  A.call("pvp/regressions", params({{"base", R1}}));
  A.call("pvp/regressions", params({{"base", ids({})}, {"test", R2}}));
  A.call("pvp/regressions", params({{"base", Text}, {"test", R2}}));
  A.call("pvp/regressions", params({{"base", R1},
                                    {"test", R2},
                                    {"relativeMin", -1}}));
  A.call("pvp/regressions", params({{"base", R1},
                                    {"test", R2},
                                    {"nodeBudget", -1}}));
  A.call("pvp/regressions", params({{"base", R1}, {"test", ids({R2, 9999})}}));
  Flush();

  // B addresses A's profiles: every profile-reading method refuses the id.
  B.call("pvp/flame", params({{"profile", Fixed}}));
  B.call("pvp/treeTable", params({{"profile", Fixed}}));
  B.call("pvp/summary", params({{"profile", Fixed}}));
  B.call("pvp/query", params({{"profile", Fixed}, {"program", "print 1;"}}));
  B.call("pvp/transform", params({{"profile", Fixed}, {"shape", "flat"}}));
  B.call("pvp/prune", params({{"profile", Fixed}}));
  B.call("pvp/export", params({{"profile", Fixed}, {"format", "evprof"}}));
  B.call("pvp/subscribe", params({{"profile", Fixed}, {"view", "flame"}}));
  B.call("pvp/append", params({{"profile", Fixed}, {"data", "x"}}));
  B.call("pvp/aggregate", params({{"profiles", ids({Fixed})}}));
  B.call("pvp/diff", params({{"base", R1}, {"test", R2}}));
  B.call("pvp/regressions", params({{"base", R1}, {"test", R2}}));
  Flush();

  // A repeated pvp/regressions is served from the shared view cache.
  auto Probe = [&] {
    json::Object P;
    P.set("cacheHits", Cache->hits());
    P.set("cacheMisses", Cache->misses());
    Log += json::Value(std::move(P)).dump();
    Log += '\n';
  };
  Probe();
  A.call("pvp/regressions", params({{"base", ids({R1})}, {"test", ids({R2})}}));
  Flush();
  Probe();
  A.call("pvp/regressions", params({{"base", ids({R1})}, {"test", ids({R2})}}));
  Flush();
  Probe();

  // B closing A's profile is refused; A still owns and serves it.
  B.call("pvp/close", params({{"profile", Fixed}}));
  Flush();
  A.call("pvp/summary", params({{"profile", Fixed}}));
  Flush();

  // One type rule: a present parameter of the wrong kind is refused, not
  // read as its default.
  A.call("pvp/open", params({{"data", 3}}));
  A.call("pvp/open", params({{"data", Text}, {"name", 3}}));
  A.call("pvp/treeTable", params({{"profile", Fixed}, {"includeText", Text}}));
  A.call("pvp/correlated",
         params({{"profile", Fixed}, {"kind", "x"}, {"select", 3}}));
  A.call("pvp/metrics", params({{"includeTimings", Text}}));
  A.call("pvp/selfProfile", params({{"name", 3}}));
  A.call("pvp/selfProfile", params({{"reset", Text}}));
  A.call("pvp/diagnostics",
         params({{"profile", Fixed}, {"maxDiagnostics", 1.5}}));
  A.call("pvp/regressions",
         params({{"base", R1}, {"test", R2}, {"maxDiagnostics", 1.5}}));
  Flush();
  return Log;
}

//===----------------------------------------------------------------------===
// evtool runs
//===----------------------------------------------------------------------===

/// pvp/summary and `evtool summary` share renderSummaryText; mask its
/// implementation-dependent memory figure in plain text as well.
std::string maskMemoryLine(std::string Text) {
  static constexpr std::string_view Key = "approx memory: ";
  for (size_t At = Text.find(Key); At != std::string::npos;
       At = Text.find(Key, At + Key.size())) {
    size_t End = Text.find('\n', At);
    if (End == std::string::npos)
      break;
    Text.replace(At + Key.size(), End - At - Key.size(), "(masked)");
  }
  return Text;
}

/// Runs `evtool` in-process in the current directory and records its
/// command line, exit code, stdout, stderr and the bytes of every file in
/// \p Written. The full usage text that follows an unknown command is
/// replaced by a marker: the usage text is pinned by the tool tests.
std::string evtoolRun(const std::vector<std::string> &Args,
                      const std::vector<std::string> &Written = {}) {
  std::string Out, Err;
  int Code = tool::runEvTool(Args, Out, Err);
  std::string Usage = tool::usageText();
  if (size_t At = Err.find(Usage); At != std::string::npos)
    Err.replace(At, Usage.size(), "<usage text>\n");
  std::string Log = "$ evtool";
  for (const std::string &A : Args)
    Log += " " + A;
  Log += "\nexit: " + std::to_string(Code) + "\n";
  Log += "--- stdout\n" + maskMemoryLine(Out);
  Log += "--- stderr\n" + Err;
  for (const std::string &File : Written) {
    Result<std::string> Bytes = readFile(File);
    Log += "--- file " + File + "\n";
    Log += Bytes ? *Bytes : "(missing)";
    Log += "\n";
  }
  return Log;
}

void addCli(Corpus &C) {
  namespace fs = std::filesystem;
  fs::path Home = fs::current_path();
  fs::path Dir = fs::temp_directory_path() /
                 ("easyview-golden-cli-" + std::to_string(::getpid()));
  fs::remove_all(Dir);
  fs::create_directories(Dir);
  fs::current_path(Dir);

  auto Put = [](const std::string &Path, const std::string &Bytes) {
    makeParents(Path);
    (void)writeFile(Path, Bytes);
  };
  Put("fixed.evprof", writeEvProf(test::makeFixedProfile()));
  Put("r1.evprof", writeEvProf(test::makeRandomProfile(1, 40, 6, 12)));
  Put("r2.evprof", writeEvProf(test::makeRandomProfile(2, 40, 6, 12)));
  Put("stacks.collapsed", CollapsedText);
  Put("bad.evprof", "EVPF garbage");
  Put("q.evql", "derive x = exclusive(\"bogus\");\n"
                "let unused = 3;\n"
                "print total(\"time\");\n");
  Put("ok.evql", "derive twice = 2 * exclusive(\"time\");\n"
                 "print total(\"twice\");\n");
  workload::FleetOptions FO;
  FO.Services = 3;
  FO.Versions = 2;
  FO.Replicas = 3;
  workload::FleetWorkload Fleet = workload::generateFleetWorkload(FO);
  for (size_t I = 0; I < Fleet.Versions.front().size(); ++I)
    Put("base/" + std::to_string(I) + ".evprof",
        writeEvProf(Fleet.Versions.front()[I]));
  for (size_t I = 0; I < Fleet.Versions.back().size(); ++I)
    Put("test/" + std::to_string(I) + ".evprof",
        writeEvProf(Fleet.Versions.back()[I]));

  // Only session 0 opens a profile, so store ids do not depend on how the
  // two sessions interleave; session 1 runs profile-free requests.
  Put("serve.jsonl",
      "{\"jsonrpc\":\"2.0\",\"id\":1,\"method\":\"pvp/open\",\"params\":"
      "{\"path\":\"fixed.evprof\"}}\n"
      "{\"jsonrpc\":\"2.0\",\"id\":2,\"method\":\"pvp/diagnostics\","
      "\"params\":{\"program\":\"let unused = 1;\\nprint nope;\"},"
      "\"session\":1}\n"
      "{\"jsonrpc\":\"2.0\",\"id\":3,\"method\":\"pvp/flame\",\"params\":"
      "{\"profile\":1,\"shape\":\"bottom-up\"}}\n"
      "\n"
      "{\"jsonrpc\":\"2.0\",\"id\":4,\"method\":\"pvp/nosuch\",\"session\":1}\n"
      "{\"jsonrpc\":\"2.0\",\"id\":5,\"method\":\"pvp/search\",\"params\":"
      "{\"profile\":1,\"pattern\":\"kernel\"},\"session\":0}\n"
      "{\"jsonrpc\":\"2.0\",\"id\":6,\"method\":\"pvp/treeTable\",\"params\":"
      "{\"profile\":1}}\n"
      "{\"jsonrpc\":\"2.0\",\"id\":7,\"method\":\"pvp/flame\",\"params\":"
      "{\"profile\":1,\"shape\":\"bottom-up\"}}\n");
  Put("serve-bad.jsonl",
      "{\"jsonrpc\":\"2.0\",\"id\":1,\"method\":\"pvp/stats\"}\n"
      "{\"jsonrpc\":\"2.0\",\"id\":2,\"method\":\"pvp/stats\",\"session\":2}\n");
  Put("serve-garbage.jsonl", "{\"jsonrpc\":\n");

  const std::string Derive = "derive twice = 2 * exclusive(\"time\");\n"
                             "print total(\"twice\");";
  std::vector<std::pair<std::string, std::string>> Runs = {
      {"info", evtoolRun({"info", "fixed.evprof"}) +
                   evtoolRun({"info", "stacks.collapsed"}) +
                   evtoolRun({"info", "missing.evprof"}) +
                   evtoolRun({"info"})},
      {"summary", evtoolRun({"summary", "r1.evprof"}) +
                      evtoolRun({"summary", "bad.evprof"})},
      {"flame", evtoolRun({"flame", "fixed.evprof", "--columns", "60"}) +
                    evtoolRun({"flame", "r1.evprof", "--shape", "bottom-up",
                               "--columns", "60"}) +
                    evtoolRun({"flame", "r1.evprof", "--shape", "flat",
                               "--metric", "bytes", "--columns", "60"}) +
                    evtoolRun({"flame", "fixed.evprof", "--svg", "f.svg"},
                              {"f.svg"}) +
                    evtoolRun({"flame", "fixed.evprof", "--shape",
                               "sideways"}) +
                    evtoolRun({"flame", "fixed.evprof", "--metric", "nope"}) +
                    evtoolRun({"flame", "fixed.evprof", "--columns", "x"})},
      {"table", evtoolRun({"table", "r1.evprof", "--rows", "12"}) +
                    evtoolRun({"table", "fixed.evprof"}) +
                    evtoolRun({"table", "fixed.evprof", "--rows", "x"})},
      {"convert",
       evtoolRun({"convert", "fixed.evprof", "out.evprof"}, {"out.evprof"}) +
           evtoolRun({"convert", "fixed.evprof", "out.pprof", "--to", "pprof"},
                     {"out.pprof"}) +
           evtoolRun({"convert", "r1.evprof", "out.collapsed", "--to",
                      "collapsed"},
                     {"out.collapsed"}) +
           evtoolRun({"convert", "fixed.evprof", "out.speedscope", "--to",
                      "speedscope"},
                     {"out.speedscope"}) +
           evtoolRun({"convert", "fixed.evprof", "out.chrome", "--to",
                      "chrome"},
                     {"out.chrome"}) +
           evtoolRun({"convert", "stacks.collapsed", "round.evprof"},
                     {"round.evprof"}) +
           evtoolRun({"convert", "fixed.evprof", "out.x", "--to", "bogus"}) +
           evtoolRun({"convert", "fixed.evprof"})},
      {"diff", evtoolRun({"diff", "r1.evprof", "r2.evprof"}) +
                   evtoolRun({"diff", "r1.evprof", "r2.evprof", "--metric",
                              "bytes"}) +
                   evtoolRun({"diff", "r1.evprof"})},
      {"aggregate",
       evtoolRun({"aggregate", "agg.evprof", "r1.evprof", "r2.evprof",
                  "fixed.evprof"},
                 {"agg.evprof"}) +
           evtoolRun({"aggregate", "agg.evprof"})},
      {"query",
       evtoolRun({"query", "fixed.evprof", "--e", Derive, "--out", "q.evprof"},
                 {"q.evprof"}) +
           evtoolRun({"query", "fixed.evprof", "--file", "ok.evql"}) +
           evtoolRun({"query", "fixed.evprof", "--e", "print nope;"}) +
           evtoolRun({"query", "fixed.evprof"})},
      {"check", evtoolRun({"check", "q.evql", "--profile", "fixed.evprof"}) +
                    evtoolRun({"check", "--e", Derive}) +
                    evtoolRun({"check", "q.evql", "--min-severity", "error"}) +
                    evtoolRun({"check", "q.evql", "--disable",
                               "EVQL002,unused-binding", "--werror"}) +
                    evtoolRun({"check", "q.evql", "-Werror"}) +
                    evtoolRun({"check", "--list-rules"}) +
                    evtoolRun({"check", "q.evql", "--min-severity", "bogus"}) +
                    evtoolRun({"check", "q.evql", "--disable", "nope"}) +
                    evtoolRun({"check"})},
      {"lint", evtoolRun({"lint", "r1.evprof"}) +
                   evtoolRun({"lint", "stacks.collapsed", "--werror"}) +
                   evtoolRun({"lint", "bad.evprof"}) +
                   evtoolRun({"lint", "fixed.evprof", "--min-severity",
                              "warning", "--disable", "EVL208"}) +
                   evtoolRun({"lint"})},
      {"regress-text",
       evtoolRun({"regress", "base", "test"}) +
           evtoolRun({"regress", "base", "test", "--min-severity", "warning",
                      "--disable", "EVL304", "--rel-min", "0.2", "--sigma",
                      "2", "--node-budget", "64", "--werror"}) +
           evtoolRun({"regress", "base/0.evprof", "test/0.evprof"}) +
           evtoolRun({"regress", "base", "test", "--rel-min", "-1"}) +
           evtoolRun({"regress", "base", "test", "--format", "xml"}) +
           evtoolRun({"regress", "base"})},
      {"regress-json",
       evtoolRun({"regress", "base", "test", "--format", "json"}) +
           evtoolRun({"regress", "base", "test", "--format", "json",
                      "--abs-min", "1000", "--node-budget", "x"})},
      {"butterfly", evtoolRun({"butterfly", "r1.evprof", "fn3"}) +
                        evtoolRun({"butterfly", "r1.evprof", "fn3", "--metric",
                                   "bytes"}) +
                        evtoolRun({"butterfly", "r1.evprof", "nope"}) +
                        evtoolRun({"butterfly", "r1.evprof"})},
      {"annotate", evtoolRun({"annotate", "fixed.evprof", "comp.cc"}) +
                       evtoolRun({"annotate", "fixed.evprof", "none.cc"}) +
                       evtoolRun({"annotate", "fixed.evprof"})},
      {"report", evtoolRun({"report", "fixed.evprof", "out.html"}) +
                     evtoolRun({"report", "fixed.evprof"})},
      {"store",
       evtoolRun({"store", "--stats", "base", "fixed.evprof"}) +
           evtoolRun({"store", "--stats", "r1.evprof", "r2.evprof", "base",
                      "--budget", "16384", "--spill-dir", "spill"}) +
           evtoolRun({"store", "--stats", "missing.evprof"}) +
           evtoolRun({"store", "--stats", "base", "--budget", "x",
                      "--spill-dir", "spill"}) +
           evtoolRun({"store", "--stats", "base", "--budget", "4096"}) +
           evtoolRun({"store", "--stats"}) + evtoolRun({"store", "base"})},
      {"serve",
       evtoolRun({"serve", "--input", "serve.jsonl", "--sessions", "2"}) +
           evtoolRun({"serve", "serve.jsonl", "--sessions", "1"}) +
           evtoolRun({"serve", "--input", "serve-bad.jsonl", "--sessions",
                      "2"}) +
           evtoolRun({"serve", "--input", "serve-garbage.jsonl"}) +
           evtoolRun({"serve", "--input", "missing.jsonl"}) +
           evtoolRun({"serve", "--input", "serve.jsonl", "--sessions", "0"}) +
           evtoolRun({"serve", "--input", "serve.jsonl", "--sessions", "x"}) +
           evtoolRun({"serve", "--input", "serve.jsonl", "--listen",
                      "127.0.0.1:0"}) +
           evtoolRun({"serve", "--listen", "127.0.0.1:0", "--unix", "s"}) +
           evtoolRun({"serve"})},
      {"usage-errors", evtoolRun({"frobnicate", "fixed.evprof"}) +
                           evtoolRun({"flame", "fixed.evprof", "--shape"}) +
                           evtoolRun({"query", "fixed.evprof", "--e"})},
  };
  for (auto &[Name, Log] : Runs)
    C["cli/" + Name + ".txt"] = std::move(Log);

  fs::current_path(Home);
  fs::remove_all(Dir);
}

Corpus buildCorpus() {
  Corpus C;
  addConverters(C);
  addAnalyses(C);
  C["pvp/session.jsonl"] = pvpSession();
  C["pvp/errors.jsonl"] = pvpErrorSession();
  C["pvp/subscribe.jsonl"] = pvpSubscribeSession();
  addCli(C);
  return C;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Regenerate = Argc == 3 && std::strcmp(Argv[1], "--regenerate") == 0;
  if (Argc != 2 && !Regenerate) {
    std::fprintf(stderr,
                 "usage: easyview_golden [--regenerate] <golden-dir>\n");
    return 2;
  }
  std::string Dir = Argv[Argc - 1];
  Corpus C = buildCorpus();

  if (Regenerate) {
    for (const auto &[Name, Bytes] : C) {
      std::string Path = Dir + "/" + Name;
      makeParents(Path);
      if (Result<bool> W = writeFile(Path, Bytes); !W) {
        std::fprintf(stderr, "easyview_golden: %s\n", W.error().c_str());
        return 1;
      }
    }
    std::printf("wrote %zu golden files to %s\n", C.size(), Dir.c_str());
    return 0;
  }

  size_t Failures = 0;
  for (const auto &[Name, Bytes] : C) {
    Result<std::string> Want = readFile(Dir + "/" + Name);
    if (!Want) {
      std::printf("MISSING  %s\n", Name.c_str());
      ++Failures;
    } else if (*Want != Bytes) {
      size_t At = 0;
      while (At < Bytes.size() && At < Want->size() && Bytes[At] == (*Want)[At])
        ++At;
      std::printf("DIFFERS  %s (first difference at byte %zu; %zu vs %zu "
                  "bytes)\n",
                  Name.c_str(), At, Bytes.size(), Want->size());
      ++Failures;
    }
  }
  std::printf("%zu of %zu golden files match\n", C.size() - Failures,
              C.size());
  return Failures == 0 ? 0 : 1;
}
