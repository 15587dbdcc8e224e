//===- tool/CliDriver.cpp - The evtool command-line driver ----------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "tool/CliDriver.h"

#include "analysis/Aggregate.h"
#include "analysis/Butterfly.h"
#include "analysis/Diff.h"
#include "analysis/MetricEngine.h"
#include "analysis/ProfileLint.h"
#include "analysis/Regression.h"
#include "analysis/RuleRegistry.h"
#include "analysis/Sema.h"
#include "analysis/Transform.h"
#include "convert/Converters.h"
#include "convert/Exporters.h"
#include "ide/SessionManager.h"
#include "net/NetServer.h"
#include "profile/ProfileStore.h"
#include "proto/EvProf.h"
#include "query/Vm.h"
#include "render/AnsiRenderer.h"
#include "render/CodeAnnotations.h"
#include "render/DiffRenderer.h"
#include "render/FlameLayout.h"
#include "render/HtmlRenderer.h"
#include "render/SvgRenderer.h"
#include "render/TreeTable.h"
#include "support/FileIo.h"
#include "support/Strings.h"
#include "support/Trace.h"

#include <atomic>
#include <chrono>
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <functional>
#include <map>
#include <thread>

namespace ev {
namespace tool {

namespace {

/// How parseArgs reads an option's value.
enum class Kind : uint8_t {
  Flag,  ///< Takes no value.
  Text,  ///< Any string.
  Count, ///< An unsigned integer.
  Ratio, ///< A non-negative number.
};

/// One given option: its text, and its number when its kind has one.
struct OptionValue {
  std::string Text;
  uint64_t Count = 0;
  double Ratio = 0.0;
};

/// One command line, checked against its command's declaration:
/// positionals in the declared number, the declared profile positionals
/// loaded (in order) and every given option read by its declared kind.
struct ParsedArgs {
  std::vector<std::string> Positional;
  std::vector<Profile> Profiles;
  std::map<std::string, OptionValue, std::less<>> Options;

  const OptionValue *find(std::string_view Name) const {
    auto It = Options.find(Name);
    return It == Options.end() ? nullptr : &It->second;
  }
  bool has(std::string_view Name) const { return find(Name); }
  std::string text(std::string_view Name, std::string Default = {}) const {
    return has(Name) ? find(Name)->Text : Default;
  }
  uint64_t count(std::string_view Name, uint64_t Default) const {
    return has(Name) ? find(Name)->Count : Default;
  }
  double ratio(std::string_view Name, double Default) const {
    return has(Name) ? find(Name)->Ratio : Default;
  }
};

Result<Profile> loadProfile(const std::string &Path) {
  // Transient I/O failures retry with bounded backoff, matching the PVP
  // server's path-based open.
  Result<std::string> Bytes = readFileWithRetry(Path);
  if (!Bytes)
    return makeError(Bytes.error());
  return convert::load(*Bytes, Path);
}

/// Loads the profile at \p Path, or every file in \p Path when it is a
/// directory, handing each to \p Take. \returns how many it loaded.
Result<size_t> loadEach(const std::string &Path,
                        const std::function<void(Profile)> &Take) {
  std::vector<std::string> Files = {Path};
  if (isDirectory(Path)) {
    Result<std::vector<std::string>> Listed = listDirectory(Path);
    if (!Listed)
      return makeError(Listed.error());
    Files = Listed.take();
  }
  for (const std::string &File : Files) {
    Result<Profile> P = loadProfile(File);
    if (!P)
      return makeError(P.error());
    Take(P.take());
  }
  return Files.size();
}

/// The metric --metric selects in \p P, by name or index; metric 0 when
/// the option is absent.
Result<MetricId> resolveMetric(const Profile &P, const ParsedArgs &Args) {
  if (!Args.has("metric")) {
    if (P.metrics().empty())
      return makeError("profile has no metrics");
    return MetricId(0);
  }
  std::string Name = Args.text("metric");
  MetricId Id = P.findMetric(Name);
  if (Id == Profile::InvalidMetric) {
    uint64_t Index;
    if (parseUnsigned(Name, Index) && Index < P.metrics().size())
      return static_cast<MetricId>(Index);
    return makeError("unknown metric '" + Name + "'");
  }
  return Id;
}

int failUsage(std::string &Err, const std::string &Message) {
  Err += "evtool: error: " + Message + "\n";
  return ExitUsageError;
}

int failData(std::string &Err, const std::string &Message) {
  Err += "evtool: error: " + Message + "\n";
  return ExitDataError;
}

/// Writes \p Bytes to \p Path and reports "wrote <Path><Note>" on \p Out.
int writeOutput(const std::string &Path, const std::string &Bytes,
                const std::string &Note, std::string &Out, std::string &Err) {
  if (Result<bool> W = writeFile(Path, Bytes); !W)
    return failData(Err, W.error());
  Out += "wrote " + Path + Note + "\n";
  return ExitSuccess;
}

int cmdInfo(const ParsedArgs &Args, std::string &Out, std::string &Err) {
  // info reads the bytes itself: it reports their format and size.
  const std::string &Path = Args.Positional[0];
  Result<std::string> Bytes = readFile(Path);
  if (!Bytes)
    return failData(Err, Bytes.error());
  convert::Format F = convert::detectFormat(*Bytes, Path);
  Result<Profile> P = convert::load(*Bytes, Path);
  if (!P)
    return failData(Err, P.error());
  Out += "file:     " + Path + "\n";
  Out += "format:   " + std::string(convert::formatName(F)) + "\n";
  Out += "size:     " + formatBytes(static_cast<double>(Bytes->size())) +
         "\n";
  Out += "contexts: " + std::to_string(P->nodeCount()) + "\n";
  Out += "frames:   " + std::to_string(P->frames().size()) + "\n";
  Out += "groups:   " + std::to_string(P->groups().size()) + "\n";
  for (MetricId M = 0; M < P->metrics().size(); ++M) {
    const MetricDescriptor &D = P->metrics()[M];
    Out += "metric:   " + D.Name + " (" + D.Unit + "), total " +
           formatMetric(metricTotal(*P, M), D.Unit) + "\n";
  }
  return 0;
}

int cmdSummary(const ParsedArgs &Args, std::string &Out, std::string &) {
  Out += renderSummaryText(Args.Profiles[0]);
  return 0;
}

int cmdFlame(const ParsedArgs &Args, std::string &Out, std::string &Err) {
  std::string Shape = Args.text("shape", "top-down");
  bool BottomUp = Shape == "bottom-up";
  std::optional<Profile> Flat;
  if (Shape == "flat")
    Flat = flatTree(Args.Profiles[0]);
  else if (!BottomUp && Shape != "top-down")
    return failUsage(Err, "unknown shape '" + Shape + "'");
  const Profile &View = Flat ? *Flat : Args.Profiles[0];
  Result<MetricId> Metric = resolveMetric(View, Args);
  if (!Metric)
    return failData(Err, Metric.error());

  FlameGraph Graph = BottomUp ? FlameGraph(CallersTree(View, *Metric))
                              : FlameGraph(View, *Metric);
  if (Args.has("svg")) {
    SvgOptions Svg;
    Svg.Title = Args.Profiles[0].name() + " (" + Shape + ")";
    Svg.Shape = Shape;
    return writeOutput(Args.text("svg"), renderSvg(Graph, Svg), "", Out, Err);
  }
  AnsiOptions Ansi;
  Ansi.Color = false;
  Ansi.Columns = static_cast<unsigned>(Args.count("columns", Ansi.Columns));
  Out += renderAnsi(Graph, Ansi);
  return 0;
}

int cmdTable(const ParsedArgs &Args, std::string &Out, std::string &) {
  const Profile &P = Args.Profiles[0];
  TreeTableOptions Opt;
  Opt.MaxRows = Args.count("rows", Opt.MaxRows);
  TreeTable Table(P, Opt);
  if (!P.metrics().empty())
    Table.expandHotPath(0);
  Out += Table.renderText();
  return 0;
}

int cmdConvert(const ParsedArgs &Args, std::string &Out, std::string &Err) {
  std::string To = Args.text("to", "evprof");
  std::optional<std::string> Bytes =
      convert::exportProfile(Args.Profiles[0], To, 0);
  if (!Bytes)
    return failUsage(Err, "unknown target format '" + To + "'");
  return writeOutput(Args.Positional[1], *Bytes,
                     " (" + formatBytes(static_cast<double>(Bytes->size())) +
                         ", " + To + ")",
                     Out, Err);
}

int cmdDiff(const ParsedArgs &Args, std::string &Out, std::string &Err) {
  const Profile &Base = Args.Profiles[0];
  Result<MetricId> Metric = resolveMetric(Base, Args);
  if (!Metric)
    return failData(Err, Metric.error());
  Out += renderDiffText(diffProfiles(Base, Args.Profiles[1], *Metric));
  return 0;
}

int cmdAggregate(const ParsedArgs &Args, std::string &Out,
                 std::string &Err) {
  std::vector<const Profile *> Inputs;
  for (const Profile &P : Args.Profiles)
    Inputs.push_back(&P);
  AggregateOptions Opt;
  Opt.WithMin = Opt.WithMax = Opt.WithMean = true;
  AggregatedProfile Agg = aggregate(Inputs, Opt);
  Result<bool> W =
      writeFile(Args.Positional[0], writeEvProf(Agg.merged()));
  if (!W)
    return failData(Err, W.error());
  Out += "aggregated " + std::to_string(Inputs.size()) + " profiles into " +
         Args.Positional[0] + " (" +
         std::to_string(Agg.merged().nodeCount()) + " contexts)\n";
  return 0;
}

int cmdQuery(const ParsedArgs &Args, std::string &Out, std::string &Err) {
  const Profile &P = Args.Profiles[0];
  std::string Program;
  if (Args.has("e")) {
    Program = Args.text("e");
  } else if (Args.has("file")) {
    Result<std::string> Src = readFile(Args.text("file"));
    if (!Src)
      return failData(Err, Src.error());
    Program = Src.take();
  } else {
    return failUsage(Err, "query needs --e <program> or --file <program.evql>");
  }

  Result<evql::QueryOutput> R = evql::runProgram(P, Program);
  if (!R)
    return failData(Err, R.error());
  for (const std::string &Line : R->Printed)
    Out += Line + "\n";
  if (!R->DerivedMetrics.empty()) {
    Out += "derived metrics:";
    for (const std::string &Name : R->DerivedMetrics)
      Out += " " + Name;
    Out += "\n";
  }
  Out += "result: " + std::to_string(R->Result.nodeCount()) +
         " contexts (input " + std::to_string(P.nodeCount()) + ")\n";
  if (Args.has("out"))
    return writeOutput(Args.text("out"), writeEvProf(R->Result), "", Out,
                       Err);
  return 0;
}

/// The exit code of a finished analysis: any error, or any warning under
/// '-Werror' (clang style), fails it, dropped findings included.
int diagnosticsExit(const DiagnosticSet &Diags, bool WError) {
  bool Fails = Diags.count(Severity::Error) > 0 ||
               (WError && Diags.count(Severity::Warning) > 0);
  return Fails ? ExitDataError : ExitSuccess;
}

/// Shared tail of 'check', 'lint' and 'regress': render the findings,
/// print a summary and map severities onto the exit code.
int reportDiagnostics(const DiagnosticSet &Diags, const std::string &Subject,
                      bool WError, std::string &Out) {
  for (const Diagnostic &D : Diags.all())
    Out += renderDiagnostic(D, Subject) + "\n";
  Out += Subject + ": " + std::to_string(Diags.count(Severity::Error)) +
         " error(s), " + std::to_string(Diags.count(Severity::Warning)) +
         " warning(s)";
  if (Diags.truncated())
    Out += " (diagnostics truncated; " + std::to_string(Diags.dropped()) +
           " dropped)";
  Out += "\n";
  return diagnosticsExit(Diags, WError);
}

/// Shared `--min-severity` / `--disable` reading for check, lint, and
/// regress. Disabled names are validated against the rule table
/// (analysis/RuleRegistry.h), so any family's rules are accepted by any
/// subcommand and a typo is a usage error everywhere.
/// \returns 0, or the exit code after reporting a malformed option.
int parseRuleFilter(const ParsedArgs &Args, RuleFilter &Filter,
                    std::string &Err) {
  if (Args.has("min-severity") &&
      !parseSeverity(Args.text("min-severity"), Filter.MinSeverity))
    return failUsage(Err, "--min-severity expects note, info, warning, "
                          "or error");
  std::string Disabled = Args.text("disable");
  for (std::string_view Rule : splitString(Disabled, ','))
    if (!Rule.empty()) {
      if (!findRule(Rule))
        return failUsage(Err, "unknown rule '" + std::string(Rule) +
                                  "' (see --list-rules)");
      Filter.Disabled.emplace_back(Rule);
    }
  return 0;
}

int cmdCheck(const ParsedArgs &Args, std::string &Out, std::string &Err) {
  std::string Source, Subject;
  if (Args.has("e")) {
    Source = Args.text("e");
    Subject = "<command-line>";
  } else if (!Args.Positional.empty()) {
    Result<std::string> Src = readFile(Args.Positional[0]);
    if (!Src)
      return failData(Err, Src.error());
    Source = Src.take();
    Subject = Args.Positional[0];
  } else {
    return failUsage(Err, "check expects <query.evql> or --e <program>");
  }

  SemaOptions Opts;
  Profile MetricSource;
  if (Args.has("profile")) {
    Result<Profile> P = loadProfile(Args.text("profile"));
    if (!P)
      return failData(Err, P.error());
    MetricSource = P.take();
    Opts.MetricSource = &MetricSource;
  }
  if (int Code = parseRuleFilter(Args, Opts.Filter, Err))
    return Code;

  DiagnosticSet Diags(Opts.Limits.MaxDiagnostics);
  SemaChecker(Opts).checkSource(Source, Diags);
  Diags.sortBySource();
  return reportDiagnostics(Diags, Subject, Args.has("werror"), Out);
}

int cmdLint(const ParsedArgs &Args, std::string &Out, std::string &Err) {
  LintOptions Opts;
  if (int Code = parseRuleFilter(Args, Opts.Filter, Err))
    return Code;

  // lint reads the bytes itself: a refused .evprof is explained.
  const std::string &Path = Args.Positional[0];
  Result<std::string> Bytes = readFileWithRetry(Path);
  if (!Bytes)
    return failData(Err, Bytes.error());

  ProfileLinter Linter(Opts);
  DiagnosticSet Diags(Opts.Limits.MaxDiagnostics);
  if (isEvProf(*Bytes)) {
    // Native container: a refusal comes back as the decoder's fault, so
    // corruption the loader would reject is explained, not merely refused.
    Linter.lint(*Bytes, DecodeLimits::defaults(), Diags);
  } else {
    // Foreign format: convert first, then run the decoded rules.
    Result<Profile> P = convert::load(*Bytes, Path);
    if (!P)
      return failData(Err, P.error());
    Linter.lintProfile(*P, Diags);
  }
  Diags.sortBySource();
  return reportDiagnostics(Diags, Path, Args.has("werror"), Out);
}

/// `evtool regress <base> <test>`: stream both cohorts through the fleet
/// accumulator, run the EVL3xx differential rules, and report with the
/// same exit-code contract as check/lint ('-Werror' escalates warnings),
/// so a CI job can gate a release on "no new regressions".
int cmdRegress(const ParsedArgs &Args, std::string &Out, std::string &Err) {
  RegressionOptions Opts;
  if (int Code = parseRuleFilter(Args, Opts.Filter, Err))
    return Code;
  Opts.RelativeMin = Args.ratio("rel-min", Opts.RelativeMin);
  Opts.AbsoluteMin = Args.ratio("abs-min", Opts.AbsoluteMin);
  Opts.SigmaGate = Args.ratio("sigma", Opts.SigmaGate);
  FleetAggregateOptions AggOpts;
  AggOpts.NodeBudget =
      static_cast<size_t>(Args.count("node-budget", AggOpts.NodeBudget));

  std::string Format = Args.text("format", "text");
  if (Format != "text" && Format != "json")
    return failUsage(Err, "--format expects text or json");

  // A cohort directory streams file by file into its accumulator (O(merged
  // CCT) memory, never O(N profiles)); a single file is a cohort of one.
  auto LoadCohort = [&](const std::string &Path) -> Result<CohortAccumulator> {
    CohortAccumulator Acc(AggOpts);
    Result<size_t> Loaded = loadEach(Path, [&](Profile P) { Acc.add(P); });
    if (!Loaded)
      return makeError(Loaded.error());
    if (*Loaded == 0)
      return makeError("cohort directory '" + Path + "' holds no profiles");
    return Acc;
  };
  const std::string &BasePath = Args.Positional[0];
  const std::string &TestPath = Args.Positional[1];
  Result<CohortAccumulator> Base = LoadCohort(BasePath);
  if (!Base)
    return failData(Err, Base.error());
  Result<CohortAccumulator> Test = LoadCohort(TestPath);
  if (!Test)
    return failData(Err, Test.error());

  DiagnosticSet Diags(Opts.Limits.MaxDiagnostics);
  RegressionAnalyzer(Opts).analyze(*Base, *Test, Diags);

  bool WError = Args.has("werror");
  if (Format == "text") {
    Out += "base: " + BasePath + " (" +
           std::to_string(Base->profileCount()) + " profile(s))\n";
    Out += "test: " + TestPath + " (" +
           std::to_string(Test->profileCount()) + " profile(s))\n";
    return reportDiagnostics(Diags, BasePath + " vs " + TestPath, WError,
                             Out);
  }
  auto Cohort = [](const std::string &Path, const CohortAccumulator &Acc) {
    json::Object Info;
    Info.set("path", Path);
    Info.set("profiles", static_cast<uint64_t>(Acc.profileCount()));
    return Info;
  };
  json::Object Root;
  Root.set("base", Cohort(BasePath, *Base));
  Root.set("test", Cohort(TestPath, *Test));
  json::Array Findings;
  for (const Diagnostic &D : Diags.all()) {
    json::Object F;
    F.set("id", D.Id);
    F.set("severity", std::string(severityName(D.Sev)));
    F.set("rule", D.Rule);
    F.set("message", D.Message);
    if (!D.Hint.empty())
      F.set("hint", D.Hint);
    if (D.Node != InvalidNode)
      F.set("node", static_cast<uint64_t>(D.Node));
    Findings.push_back(std::move(F));
  }
  Root.set("findings", std::move(Findings));
  Root.set("errors", static_cast<uint64_t>(Diags.count(Severity::Error)));
  Root.set("warnings",
           static_cast<uint64_t>(Diags.count(Severity::Warning)));
  Root.set("truncated", Diags.truncated());
  Out += json::Value(std::move(Root)).dump() + "\n";
  return diagnosticsExit(Diags, WError);
}

int cmdButterfly(const ParsedArgs &Args, std::string &Out,
                 std::string &Err) {
  const Profile &P = Args.Profiles[0];
  const std::string &Function = Args.Positional[1];
  Result<MetricId> Metric = resolveMetric(P, Args);
  if (!Metric)
    return failData(Err, Metric.error());
  ButterflyResult B = butterfly(P, Function, *Metric);
  if (B.Occurrences == 0)
    return failData(Err, "function '" + Function +
                             "' not found in the profile");
  Out += renderButterflyText(P, B, P.metrics()[*Metric].Unit);
  return 0;
}

int cmdAnnotate(const ParsedArgs &Args, std::string &Out, std::string &) {
  Out += renderAnnotationsText(Args.Profiles[0], Args.Positional[1]);
  return 0;
}

int cmdReport(const ParsedArgs &Args, std::string &Out, std::string &Err) {
  std::string Html = renderHtmlReport(Args.Profiles[0]);
  return writeOutput(Args.Positional[1], Html,
                     " (" + formatBytes(static_cast<double>(Html.size())) +
                         ")",
                     Out, Err);
}

/// 'store': loads profiles into a ProfileStore — optionally under a memory
/// budget with an out-of-core spill directory — and reports the same
/// memory-attribution stats the PVP server exposes as the store* fields of
/// pvp/stats (docs/PERF.md "Out-of-core profile store"). The quickest way
/// to eyeball spill/fault behavior on a cohort without standing up a
/// server.
int cmdStore(const ParsedArgs &Args, std::string &Out, std::string &Err) {
  if (!Args.has("stats"))
    return failUsage(Err, "store requires --stats");
  uint64_t Budget = Args.count("budget", 0);
  std::string SpillDir = Args.text("spill-dir");
  if (Budget != 0 && SpillDir.empty())
    return failUsage(Err, "--budget requires --spill-dir");

  ProfileStore Store;
  if (Budget != 0)
    if (Result<bool> R = Store.setBudget(Budget, SpillDir); !R)
      return failData(Err, R.error());

  std::vector<int64_t> Ids;
  for (const std::string &Path : Args.Positional)
    if (Result<size_t> R = loadEach(
            Path, [&](Profile P) { Ids.push_back(Store.add(std::move(P))); });
        !R)
      return failData(Err, R.error());
  if (Ids.empty())
    return failData(Err, "no profiles found in the given inputs");

  // Under a budget, read every profile once so the report reflects
  // steady-state streaming (spilled members fault in and age back out),
  // not just the load order.
  if (Budget != 0)
    for (int64_t Id : Ids)
      (void)Store.get(Id);

  StoreStats S = Store.stats();
  auto Bytes = [](uint64_t N) { return formatBytes(static_cast<double>(N)); };
  Out += "profiles:       " + std::to_string(S.Profiles) + "\n";
  Out += "budget:         " +
         (S.BudgetBytes ? Bytes(S.BudgetBytes) : std::string("unbudgeted")) +
         "\n";
  Out += "resident:       " + Bytes(S.ResidentBytes) + "\n";
  Out += "spilled:        " + Bytes(S.SpilledBytes) + " in " +
         std::to_string(S.Spills) + " block(s)\n";
  Out += "evictions:      " + std::to_string(S.Evictions) + "\n";
  Out += "faults:         " + std::to_string(S.Faults) + "\n";
  if (S.SpillFailures != 0)
    Out += "spill failures: " + std::to_string(S.SpillFailures) + "\n";
  return ExitSuccess;
}

/// The server a SIGINT/SIGTERM handler should drain. Handlers run on an
/// arbitrary thread at an arbitrary instruction; requestDrain() is
/// async-signal-safe (one atomic store plus one pipe write) so this is the
/// entire handler story.
std::atomic<net::NetServer *> ActiveServer{nullptr};

void serveSignalHandler(int) {
  if (net::NetServer *S = ActiveServer.load(std::memory_order_acquire))
    S->requestDrain();
}

/// `evtool serve --listen/--unix`: the real-socket deployment of the PVP
/// service (net/NetServer.h). Binds, prints "listening on ADDR" to stderr
/// (immediately — clients and tests wait for it), serves until a
/// SIGINT/SIGTERM (or --drain-after-ms) triggers a graceful drain, and
/// exits 0 when the drain finished cleanly inside its deadline.
int cmdServeSocket(const ParsedArgs &Args,
                   const SessionManager::Options &MOpts, std::string &Err) {
  bool Tcp = Args.has("listen");
  if (Tcp && Args.has("unix"))
    return failUsage(Err, "serve takes --listen or --unix, not both");
  if (Args.has("input") || !Args.Positional.empty())
    return failUsage(Err,
                     "serve takes --input (scripted) or a socket listener "
                     "(--listen/--unix), not both");

  net::NetServerOptions NOpts;
  NOpts.MaxConnections =
      static_cast<size_t>(Args.count("max-conns", NOpts.MaxConnections));
  NOpts.IdleTimeoutMs = Args.count("idle-ms", NOpts.IdleTimeoutMs);
  NOpts.FrameTimeoutMs = Args.count("frame-ms", NOpts.FrameTimeoutMs);
  NOpts.DrainDeadlineMs = Args.count("drain-ms", NOpts.DrainDeadlineMs);
  uint64_t DrainAfterMs = Args.count("drain-after-ms", 0);
  if (NOpts.MaxConnections == 0)
    return failUsage(Err, "--max-conns must be at least 1");

  SessionManager Manager(MOpts);
  net::NetServer Server(Manager, NOpts);
  Result<bool> Bound = Tcp ? Server.listenTcp(Args.text("listen"))
                           : Server.listenUnix(Args.text("unix"));
  if (!Bound)
    return failData(Err, Bound.error());
  if (Result<bool> Started = Server.start(); !Started)
    return failData(Err, Started.error());

  // Out/Err accumulate until process exit, which is useless for a live
  // server: announce readiness on the real stderr so callers can connect.
  std::fprintf(stderr, "evtool: listening on %s (%u session(s))\n",
               Server.boundAddress().c_str(), Manager.sessionCount());
  std::fflush(stderr);

  ActiveServer.store(&Server, std::memory_order_release);
  auto PrevInt = std::signal(SIGINT, serveSignalHandler);
  auto PrevTerm = std::signal(SIGTERM, serveSignalHandler);

  // --follow: tail a growing .evprof on a side thread. New bytes are fed
  // into the shared store's streaming decoder; every successful append
  // bumps the profile's generation and a publishAll() sweep pushes
  // pvp/viewDelta frames to whoever subscribed. The whole file is re-read
  // per poll and a consumed-byte cursor advances past what the decoder
  // has seen — the decoder buffers mid-field tails itself, so arbitrary
  // producer chunking is fine.
  std::atomic<bool> FollowStop{false};
  std::thread FollowThread;
  if (Args.has("follow")) {
    std::string Path = Args.text("follow");
    DecodeLimits Decode = MOpts.Limits.Decode;
    FollowThread = std::thread([&Manager, &FollowStop, Path, Decode] {
      int64_t Id = -1;
      size_t Consumed = 0;
      size_t LastTriedSize = 0;
      while (!FollowStop.load(std::memory_order_acquire)) {
        Result<std::string> Bytes = readFile(Path);
        if (Bytes && Bytes->size() > Consumed) {
          std::string_view Fresh(Bytes->data() + Consumed,
                                 Bytes->size() - Consumed);
          if (Id < 0) {
            // Too-short prefixes fail to open; retry once the file grew
            // past the last attempt instead of spinning on the same bytes.
            if (Bytes->size() != LastTriedSize) {
              LastTriedSize = Bytes->size();
              if (Result<int64_t> Opened =
                      Manager.store().openStream(Fresh, Decode)) {
                Id = *Opened;
                Consumed = Bytes->size();
                Manager.adoptProfileAll(Id);
                Manager.publishAll();
                std::fprintf(stderr,
                             "evtool: following %s as live profile %lld\n",
                             Path.c_str(),
                             static_cast<long long>(Id));
                std::fflush(stderr);
              }
            }
          } else {
            Result<size_t> Gained = Manager.store().append(Id, Fresh, Decode);
            Consumed = Bytes->size();
            if (!Gained) {
              std::fprintf(stderr, "evtool: --follow stopped: %s\n",
                           Gained.error().c_str());
              std::fflush(stderr);
              return;
            }
            if (*Gained > 0)
              Manager.publishAll();
          }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    });
  }

  // --drain-after-ms gives scripts and smoke tests a bounded lifetime
  // without needing to deliver a signal.
  if (DrainAfterMs > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(DrainAfterMs));
    Server.requestDrain();
  }
  bool Clean = Server.waitUntilStopped();

  FollowStop.store(true, std::memory_order_release);
  if (FollowThread.joinable())
    FollowThread.join();

  std::signal(SIGINT, PrevInt);
  std::signal(SIGTERM, PrevTerm);
  ActiveServer.store(nullptr, std::memory_order_release);

  Err += "served " + std::to_string(Server.acceptedConnections()) +
         " connection(s), dropped " +
         std::to_string(Server.droppedConnections()) + "; drain " +
         (Clean ? "clean" : "forced") + "\n";
  return Clean ? ExitSuccess : ExitDataError;
}

/// `evtool serve`: drives the concurrent multi-session PVP service
/// (ide/SessionManager.h) from a JSON-Lines script — one JSON-RPC request
/// object per line, optionally carrying a top-level "session" field that
/// routes it to one of the N sessions (default session 0). Requests are
/// submitted in file order and responses are printed in the SAME order,
/// one per line, so the output of a concurrent run is byte-comparable to a
/// sequential one.
int cmdServe(const ParsedArgs &Args, std::string &Out, std::string &Err) {
  SessionManager::Options Opts;
  uint64_t Sessions = Args.count("sessions", Opts.Sessions);
  if (Sessions == 0 || Sessions > 256)
    return failUsage(Err, "--sessions expects a count in [1, 256]");
  Opts.Sessions = static_cast<unsigned>(Sessions);
  if (Args.has("listen") || Args.has("unix"))
    return cmdServeSocket(Args, Opts, Err);
  std::string Path =
      Args.text("input", Args.Positional.empty() ? "" : Args.Positional[0]);
  if (Path.empty())
    return failUsage(Err, "serve needs --input <requests.jsonl>");
  Result<std::string> Script = readFileWithRetry(Path);
  if (!Script)
    return failData(Err, Script.error());
  SessionManager Manager(Opts);

  std::vector<std::future<json::Value>> Replies;
  size_t LineNo = 0;
  for (std::string_view Line : splitString(*Script, '\n')) {
    ++LineNo;
    if (Line.empty())
      continue;
    Result<json::Value> Request = json::parse(Line);
    if (!Request)
      return failData(Err, Path + ":" + std::to_string(LineNo) + ": " +
                               Request.error());
    unsigned Session = 0;
    if (Request->isObject())
      if (const json::Value *SV = Request->asObject().find("session"); SV) {
        int64_t S;
        if (!SV->getInteger(S) || S < 0 ||
            static_cast<uint64_t>(S) >= Manager.sessionCount())
          return failData(Err, Path + ":" + std::to_string(LineNo) +
                                   ": invalid 'session' field");
        Session = static_cast<unsigned>(S);
      }
    Replies.push_back(Manager.submit(Session, Request.take()));
  }
  for (std::future<json::Value> &F : Replies)
    Out += F.get().dump() + "\n";
  Err += "served " + std::to_string(Replies.size()) + " request(s) across " +
         std::to_string(Manager.sessionCount()) + " session(s)\n";

  // --trace-out dumps the service's own retained spans as Chrome
  // traceEvents JSON: loadable in any trace viewer, and round-trippable
  // back into a profile through `evtool convert --to evprof` (the Chrome
  // converter treats it like any foreign trace).
  if (Args.has("trace-out")) {
    std::string TracePath = Args.text("trace-out");
    if (Result<bool> W = writeFile(TracePath, trace::toChromeTraceJson()); !W)
      return failData(Err, W.error());
    Err += "wrote trace of " + std::to_string(trace::retainedSpans()) +
           " span(s) to " + TracePath + "\n";
  }
  return ExitSuccess;
}

int cmdHelp(const ParsedArgs &, std::string &Out, std::string &) {
  Out += usageText();
  return ExitSuccess;
}

/// One option a command accepts: `--Name Meta`, or a flag.
struct Option {
  std::string_view Name;
  Kind ValueKind = Kind::Flag;
  std::string_view Meta = {}; ///< The value's placeholder in the usage.
};

/// One positional argument, named as the usage shows it: "[<a>]" may be
/// left out and "<a...>" takes one or more.
struct Arg {
  std::string_view Name;
  bool IsProfile = false; ///< parseArgs loads it into ParsedArgs::Profiles.

  bool optional() const { return startsWith(Name, "["); }
  bool repeated() const { return endsWith(Name, "...>"); }
};

/// One evtool subcommand. Argument parsing and the usage text both derive
/// from this table, so an option is accepted exactly where it is
/// documented and a handler runs only on the arguments it declares.
struct Command {
  std::string_view Name;
  std::vector<Arg> Args;
  std::string_view Summary; ///< One-line description.
  int (*Run)(const ParsedArgs &, std::string &, std::string &);
  std::vector<Option> Options = {};

  const Option *option(std::string_view OptName) const {
    for (const Option &O : Options)
      if (O.Name == OptName)
        return &O;
    return nullptr;
  }
};

const std::vector<Command> &commands() {
  static const Arg Prof{"<profile>", true};
  static const Option Metric{"metric", Kind::Text, "M"};
  static const Option MinSeverity{"min-severity", Kind::Text, "S"};
  static const Option Disable{"disable", Kind::Text, "R,R..."};
  static const Option WError{"werror"};
  static const Option ListRules{"list-rules"};
  static const std::vector<Command> Table = {
      {"info", {{"<profile>"}}, "format, counts, metrics", cmdInfo},
      {"summary", {Prof}, "floating-window summary", cmdSummary},
      {"flame", {Prof}, "flame graph as text, or SVG with --svg", cmdFlame,
       {{"shape", Kind::Text, "top-down|bottom-up|flat"}, Metric,
        {"svg", Kind::Text, "F"}, {"columns", Kind::Count, "N"}}},
      {"table", {Prof}, "tree table, hot path open", cmdTable,
       {{"rows", Kind::Count, "N"}}},
      {"convert", {{"<in>", true}, {"<out>"}},
       "convert between profile formats", cmdConvert,
       {{"to", Kind::Text, "evprof|pprof|collapsed|speedscope|chrome"}}},
      {"diff", {{"<base>", true}, {"<test>", true}}, "differential view",
       cmdDiff, {Metric}},
      {"aggregate", {{"<out.evprof>"}, {"<in...>", true}}, "merge profiles",
       cmdAggregate},
      {"query", {Prof},
       "run an EVQL program given by --e or --file; --out writes the result",
       cmdQuery,
       {{"e", Kind::Text, "PROGRAM"}, {"file", Kind::Text, "F"},
        {"out", Kind::Text, "F"}}},
      {"check", {{"[<query.evql>]"}},
       "EVQL static analysis (no execution); --e checks an inline program",
       cmdCheck,
       {{"e", Kind::Text, "PROGRAM"}, {"profile", Kind::Text, "P"},
        MinSeverity, Disable, WError, ListRules}},
      {"lint", {{"<profile.evprof>"}}, "profile data-quality lints", cmdLint,
       {MinSeverity, Disable, WError, ListRules}},
      {"regress", {{"<base>"}, {"<test>"}},
       "diff two profile cohorts (files or directories) and report EVL3xx "
       "regressions",
       cmdRegress,
       {{"format", Kind::Text, "text|json"}, MinSeverity, Disable, WError,
        {"rel-min", Kind::Ratio, "F"}, {"abs-min", Kind::Ratio, "F"},
        {"sigma", Kind::Ratio, "F"}, {"node-budget", Kind::Count, "N"},
        ListRules}},
      {"butterfly", {Prof, {"<function>"}},
       "callers and callees of a function", cmdButterfly, {Metric}},
      {"annotate", {Prof, {"<source-file>"}}, "per-line code lenses",
       cmdAnnotate},
      {"report", {Prof, {"<out.html>"}}, "self-contained HTML report",
       cmdReport},
      {"store", {{"<profile|dir...>"}},
       "load into a (optionally budgeted) profile store and report resident, "
       "spilled and deduplicated memory; requires --stats",
       cmdStore,
       {{"stats"}, {"budget", Kind::Count, "BYTES"},
        {"spill-dir", Kind::Text, "D"}}},
      {"serve", {{"[<requests.jsonl>]"}},
       "run PVP requests from --input through the concurrent session "
       "service (--trace-out dumps the server's own spans as Chrome trace "
       "JSON), or serve PVP over a socket with --listen or --unix until "
       "SIGINT/SIGTERM drains it; --follow tails a growing .evprof as a live "
       "profile in every session",
       cmdServe,
       {{"input", Kind::Text, "F"}, {"sessions", Kind::Count, "N"},
        {"trace-out", Kind::Text, "F"}, {"listen", Kind::Text, "HOST:PORT"},
        {"unix", Kind::Text, "PATH"}, {"max-conns", Kind::Count, "N"},
        {"idle-ms", Kind::Count, "N"}, {"frame-ms", Kind::Count, "N"},
        {"drain-ms", Kind::Count, "N"}, {"drain-after-ms", Kind::Count, "N"},
        {"follow", Kind::Text, "FILE"}}},
      {"help", {}, "this text", cmdHelp},
  };
  return Table;
}

const Command *findCommand(std::string_view Name) {
  for (const Command &C : commands())
    if (C.Name == Name)
      return &C;
  return nullptr;
}

/// Checks \p Args (after the command name) against \p Cmd's declaration
/// into \p Out: every option declared, its value read by its kind
/// ("-Werror" is the compiler-style spelling of --werror), the declared
/// number of positionals, and each profile positional loaded. With
/// --list-rules the positionals are not needed. \returns 0, or the exit
/// code after reporting to \p Err.
int parseArgs(const Command &Cmd, const std::vector<std::string> &Args,
              ParsedArgs &Out, std::string &Err) {
  for (size_t I = 1; I < Args.size(); ++I) {
    const std::string &A = Args[I];
    std::string_view Name;
    if (A == "-Werror")
      Name = "werror";
    else if (startsWith(A, "--"))
      Name = std::string_view(A).substr(2);
    else {
      Out.Positional.push_back(A);
      continue;
    }
    const Option *O = Cmd.option(Name);
    if (!O)
      return failUsage(Err, "unknown option '" + A + "' for '" +
                                std::string(Cmd.Name) + "'");
    OptionValue &V = Out.Options[std::string(Name)];
    if (O->ValueKind == Kind::Flag)
      continue;
    if (I + 1 >= Args.size())
      return failUsage(Err, "option '" + A + "' needs a value");
    V.Text = Args[++I];
    if (O->ValueKind == Kind::Count && !parseUnsigned(V.Text, V.Count))
      return failUsage(Err, "--" + std::string(Name) +
                                " expects an unsigned number, got '" +
                                V.Text + "'");
    if (O->ValueKind == Kind::Ratio &&
        !(parseDouble(V.Text, V.Ratio) && V.Ratio >= 0.0))
      return failUsage(Err, "--" + std::string(Name) +
                                " expects a non-negative number, got '" +
                                V.Text + "'");
  }
  if (Out.has("list-rules"))
    return ExitSuccess;

  size_t Min = 0;
  for (const Arg &A : Cmd.Args)
    Min += !A.optional();
  bool Repeated = !Cmd.Args.empty() && Cmd.Args.back().repeated();
  size_t Given = Out.Positional.size();
  if (Given < Min || (!Repeated && Given > Cmd.Args.size())) {
    std::string Expected;
    for (const Arg &A : Cmd.Args)
      Expected += " " + std::string(A.Name);
    return failUsage(Err, std::string(Cmd.Name) + " expects" +
                              (Expected.empty() ? " no arguments" : Expected));
  }
  for (size_t I = 0; I < Given; ++I) {
    if (!Cmd.Args[std::min(I, Cmd.Args.size() - 1)].IsProfile)
      continue;
    Result<Profile> P = loadProfile(Out.Positional[I]);
    if (!P)
      return failData(Err, P.error());
    Out.Profiles.push_back(P.take());
  }
  return ExitSuccess;
}

/// Appends \p Words to \p Out in lines of at most 78 columns: the first
/// indented by \p Indent spaces, the rest by \p ContIndent.
void appendWrapped(std::string &Out, const std::vector<std::string> &Words,
                   size_t Indent, size_t ContIndent) {
  std::string Line(Indent, ' ');
  size_t Start = Indent;
  for (const std::string &W : Words) {
    if (Line.size() > Start && Line.size() + 1 + W.size() > 78) {
      Out += Line + "\n";
      Line.assign(ContIndent, ' ');
      Start = ContIndent;
    } else if (Line.size() > Start) {
      Line += ' ';
    }
    Line += W;
  }
  Out += Line + "\n";
}

} // namespace

std::string usageText() {
  std::string Out = "usage: evtool <command> [options]\n\ncommands:\n";
  for (const Command &C : commands()) {
    std::vector<std::string> Synopsis = {std::string(C.Name)};
    for (const Arg &A : C.Args)
      Synopsis.emplace_back(A.Name);
    for (const Option &O : C.Options)
      Synopsis.push_back("[--" + std::string(O.Name) +
                         (O.Meta.empty() ? "" : " " + std::string(O.Meta)) +
                         "]");
    appendWrapped(Out, Synopsis, 2, 4);
    std::vector<std::string> Summary;
    for (std::string_view Word : splitString(C.Summary, ' '))
      Summary.emplace_back(Word);
    appendWrapped(Out, Summary, 6, 6);
  }
  return Out;
}

int runEvTool(const std::vector<std::string> &Args, std::string &Out,
              std::string &Err) {
  if (Args.empty()) {
    Err += usageText();
    return ExitUsageError;
  }
  const Command *Cmd = findCommand(Args[0] == "--help" ? "help" : Args[0]);
  if (!Cmd) {
    Err += "evtool: error: unknown command '" + Args[0] + "'\n" + usageText();
    return ExitUsageError;
  }
  ParsedArgs Parsed;
  if (int Code = parseArgs(*Cmd, Args, Parsed, Err))
    return Code;
  // --list-rules, wherever declared, prints the catalogue of every rule
  // family instead of running the command.
  if (Parsed.has("list-rules")) {
    Out += renderRuleList();
    return ExitSuccess;
  }
  return Cmd->Run(Parsed, Out, Err);
}

} // namespace tool
} // namespace ev
