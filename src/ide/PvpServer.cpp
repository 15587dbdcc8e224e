//===- ide/PvpServer.cpp - Profile Viewer Protocol server -----------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "ide/PvpServer.h"

#include "ide/ViewDelta.h"

#include "analysis/Butterfly.h"
#include "analysis/Diff.h"
#include "analysis/FleetAggregate.h"
#include "analysis/MetricEngine.h"
#include "analysis/ProfileLint.h"
#include "analysis/Prune.h"
#include "analysis/Regression.h"
#include "analysis/RuleRegistry.h"
#include "analysis/Sema.h"
#include "analysis/Transform.h"
#include "convert/Converters.h"
#include "convert/Exporters.h"
#include "proto/EvProf.h"
#include "render/CorrelatedView.h"
#include "query/Parser.h"
#include "query/Vm.h"
#include "render/CodeAnnotations.h"
#include "render/DiffRenderer.h"
#include "render/FlameLayout.h"
#include "render/HtmlRenderer.h"
#include "render/TreeTable.h"
#include "support/Clock.h"
#include "support/Strings.h"
#include "support/Telemetry.h"
#include "support/Trace.h"

#include <algorithm>
#include <optional>

namespace ev {

namespace {

/// The trace span label of a request naming no known method.
constexpr const char *UnknownMethodLabel = "pvp/unknown";

/// The exact diagnostics handleMessage() maps to their own error codes: a
/// handler bailing on the deadline (RequestTimeout), a cancelled request
/// (RequestCancelled) and pvp/subscribe at the subscription cap
/// (SubscriptionLimit).
constexpr const char *DeadlineDiag = "request deadline exceeded";
constexpr const char *CancelDiag = "request cancelled";
constexpr const char *SubLimitDiag = "session is at its live-subscription cap";

/// Pinned handles for the sub.* counters (docs/OBSERVABILITY.md). The
/// bytes pair is what makes the compactness claim auditable in production:
/// sub.deltaBytes / sub.fullViewBytes is the fleet-wide delta ratio.
struct SubMetrics {
  telemetry::Counter &Subscribed;
  telemetry::Counter &Unsubscribed;
  telemetry::Counter &Acks;
  telemetry::Counter &Pushes;
  telemetry::Counter &Ended;
  telemetry::Counter &DeltaBytes;
  telemetry::Counter &FullViewBytes;

  static SubMetrics &get() {
    telemetry::Registry &R = telemetry::Registry::global();
    static SubMetrics M{R.counter("sub.subscribed"),
                        R.counter("sub.unsubscribed"),
                        R.counter("sub.acks"),
                        R.counter("sub.pushes"),
                        R.counter("sub.ended"),
                        R.counter("sub.deltaBytes"),
                        R.counter("sub.fullViewBytes")};
    return M;
  }
};

/// The exact diagnostic for a 'minSeverity' that names no severity.
constexpr const char *SeverityDiag =
    "invalid 'minSeverity' (expected note, info, warning, or error)";

/// Resolves metric selector \p V (an index or a name) in \p P. An absent
/// selector is metric 0, which \p P must have.
Result<MetricId> resolveMetric(const Profile &P, const json::Value *V) {
  int64_t Id = 0;
  if (!V && P.metrics().empty())
    return makeError("profile has no metrics");
  if (V && V->isString()) {
    MetricId M = P.findMetric(V->asString());
    if (M == Profile::InvalidMetric)
      return makeError("unknown metric '" + V->asString() + "'");
    return M;
  }
  if (V && !V->isNumber())
    return makeError("'metric' must be an index or a name");
  if (V && (!V->getInteger(Id) || Id < 0 ||
            static_cast<size_t>(Id) >= P.metrics().size()))
    return makeError("metric index out of range");
  return static_cast<MetricId>(Id);
}

/// The error for a required parameter that is absent or a parameter whose
/// value is not of its kind: an optional one "must be" its kind, any other
/// (and an id of any kind) is missing.
std::string invalidParam(const PvpServer::ParamSpec &S) {
  using K = PvpServer::ParamKind;
  static constexpr std::pair<K, const char *> MustBe[] = {
      {K::Metric, "an index or a name"}, {K::AnyMetric, "an index or a name"},
      {K::ViewMetric, "an index or a name"}, {K::String, "a string"},
      {K::Bool, "a boolean"}, {K::Count, "a non-negative integer"},
      {K::Number, "a number"}, {K::Ratio, "a non-negative number"},
      {K::Ids, "an array of node ids"},
      {K::Names, "an array of rule ids or names"}, {K::Object, "an object"}};
  if (!S.Invalid.empty())
    return std::string(S.Invalid);
  std::string Q = "'" + std::string(S.Name) + "'";
  if (S.Kind == K::Cohort)
    return "missing " + Q + " parameter (profile id or array of ids)";
  for (auto [Kind, Phrase] : MustBe)
    if (Kind == S.Kind && !S.Required)
      return Q + " must be " + Phrase;
  bool Text = S.Kind == K::String || S.Kind == K::Ids ||
              S.Kind == K::Names || S.Kind == K::Object;
  return (Text ? "missing " : "missing numeric ") + Q + " parameter";
}

/// The ids a profile-typed parameter names, which must be present and well
/// formed: one for Profile and ProfileId, a non-empty list for Cohort.
/// Ownership is the caller's to check.
Result<std::vector<int64_t>> profileIds(const PvpServer::ParamSpec &S,
                                        const json::Value *V) {
  bool Cohort = S.Kind == PvpServer::ParamKind::Cohort;
  int64_t Id;
  if (!V || (!Cohort && !V->getInteger(Id)))
    return makeError(invalidParam(S));
  if (!Cohort)
    return std::vector<int64_t>{Id};
  std::string Q = "'" + std::string(S.Name) + "'";
  std::vector<int64_t> Ids;
  const json::Array One = V->isArray() ? json::Array() : json::Array{*V};
  for (const json::Value &Entry : V->isArray() ? V->asArray() : One) {
    if (!Entry.getInteger(Id))
      return makeError(Q + (V->isArray()
                                ? " must hold integer profile ids"
                                : " must be a profile id or an array of ids"));
    Ids.push_back(Id);
  }
  if (Ids.empty())
    return makeError(Q + " cohort is empty");
  return Ids;
}

} // namespace

/// One Arg per declared parameter, present when required and of its kind.
/// A resolved handle keeps its profile alive for the whole request.
struct PvpServer::Args {
  struct Arg {
    const json::Value *Value = nullptr; ///< Null when absent.
    int64_t Id = 0; ///< Ids, counts and the resolved MetricId or NodeId.
    std::shared_ptr<const Profile> Handle;
    const AggregatedProfile *Agg = nullptr;
    std::vector<int64_t> Cohort;
  };
  const MethodEntry *Method = nullptr;
  std::vector<Arg> Values; ///< In Method->Params order.

  /// \returns the parameter \p Name, or nullptr when it is not declared.
  const Arg *find(std::string_view Name) const {
    for (size_t I = 0; I < Values.size(); ++I)
      if (Method->Params[I].Name == Name)
        return &Values[I];
    return nullptr;
  }
  const json::Value *value(std::string_view Name) const {
    assert(find(Name) && "parameter not declared");
    return find(Name)->Value;
  }
  bool has(std::string_view Name) const { return value(Name); }
  const Profile &profile(std::string_view Name = "profile") const {
    return *find(Name)->Handle;
  }
  /// An id or count, \p Default when absent.
  int64_t id(std::string_view Name, int64_t Default = 0) const {
    return has(Name) ? find(Name)->Id : Default;
  }
  std::string_view str(std::string_view Name,
                       std::string_view Default = {}) const {
    return has(Name) ? std::string_view(value(Name)->asString()) : Default;
  }
  double number(std::string_view Name, double Default) const {
    return has(Name) ? value(Name)->asNumber() : Default;
  }
  bool flag(std::string_view Name, bool Default) const {
    return has(Name) ? value(Name)->asBool() : Default;
  }
  const json::Object &object(std::string_view Name) const {
    return value(Name)->asObject();
  }
  const std::vector<int64_t> &cohort(std::string_view Name) const {
    return find(Name)->Cohort;
  }
  const AggregatedProfile &aggregate() const { return *find("aggregate")->Agg; }
  MetricId metric() const { return static_cast<MetricId>(id("metric")); }
  NodeId node() const { return static_cast<NodeId>(id("node")); }
  /// A ViewMetric resolved in \p View.
  Result<MetricId> metricIn(const Profile &View) const {
    return resolveMetric(View, value("metric"));
  }
  /// The entries of an Ids parameter, none when it is absent; an entry
  /// that is not an integer is nullopt.
  std::vector<std::optional<int64_t>> ids(std::string_view Name) const {
    std::vector<std::optional<int64_t>> Out;
    for (const json::Value &E : has(Name) ? value(Name)->asArray() : None) {
      int64_t Id;
      Out.push_back(E.getInteger(Id) ? std::optional(Id) : std::nullopt);
    }
    return Out;
  }
  /// The entries of a Names parameter; one that is not a string reads as
  /// the empty name, which names nothing.
  std::vector<std::string_view> names(std::string_view Name) const {
    std::vector<std::string_view> Out;
    for (const json::Value &E : has(Name) ? value(Name)->asArray() : None)
      Out.push_back(E.stringOr(""));
    return Out;
  }
  static inline const json::Array None;
};

PvpServer::PvpServer(ServerLimits Limits)
    : PvpServer(Limits, std::make_shared<ProfileStore>(),
                std::make_shared<ViewCache>(Limits.MaxCachedViews)) {}

PvpServer::PvpServer(ServerLimits Limits, std::shared_ptr<ProfileStore> Store,
                     std::shared_ptr<ViewCache> Cache)
    : Limits(Limits), Store(std::move(Store)), Reader(Limits.Wire),
      NowMs(monoMillis), Cache(std::move(Cache)) {
  // Arm the out-of-core budget (profile/ProfileStore.h). Best-effort: an
  // unwritable spill directory leaves the store unbudgeted rather than
  // failing construction — the server still works, it just holds
  // everything resident. Re-applying the same budget to an already shared,
  // already budgeted store is harmless (setBudget is idempotent for equal
  // arguments).
  if (Limits.StoreBudgetBytes != 0 && !Limits.SpillDir.empty())
    (void)this->Store->setBudget(Limits.StoreBudgetBytes, Limits.SpillDir);
}

void PvpServer::setClock(std::function<uint64_t()> Clock) {
  // Deadlines are durations, so the default is the MONOTONIC clock
  // (support/Clock.h): the wall clock can step backwards under NTP and
  // would fire or starve deadlines spuriously.
  NowMs = Clock ? std::move(Clock) : monoMillis;
}

bool PvpServer::deadlineExpired() const {
  return RequestDeadline != 0 && NowMs() > RequestDeadline;
}

int64_t PvpServer::addProfile(Profile P) {
  int64_t Id = Store->add(std::move(P));
  Owned.insert(Id);
  return Id;
}

std::shared_ptr<const Profile> PvpServer::profileHandle(int64_t Id) const {
  if (!Owned.count(Id))
    return nullptr;
  return Store->get(Id);
}

Result<std::string> PvpServer::payload(const Args &A,
                                       std::string *PathOut) const {
  std::string_view What = PathOut ? "profile" : "append";
  std::string Bytes;
  if (A.has("data")) {
    Bytes = A.str("data");
  } else if (A.has("dataBase64")) {
    std::string_view B64 = A.str("dataBase64");
    if (B64.size() / 4 * 3 > Limits.MaxOpenBytes)
      return makeError(std::string(What) +
                       " payload exceeds the open size limit");
    if (!base64Decode(B64, Bytes))
      return makeError("invalid base64 in 'dataBase64'");
  } else if (PathOut && A.has("path")) {
    // File loads retry with bounded exponential backoff: an editor saving
    // over the profile mid-read is transient, not fatal.
    *PathOut = A.str("path");
    Result<std::string> Read = readFileWithRetry(*PathOut, Limits.OpenRetry);
    if (!Read)
      return makeError(Read.error());
    Bytes = Read.take();
  } else {
    return makeError(PathOut
                         ? "pvp/open needs 'data', 'dataBase64', or 'path'"
                         : "pvp/append needs 'data' or 'dataBase64'");
  }
  if (Bytes.size() > Limits.MaxOpenBytes)
    return makeError(std::string(What) + " payload of " +
                     std::to_string(Bytes.size()) +
                     " bytes exceeds the open size limit");
  return Bytes;
}

Result<json::Value> PvpServer::doOpen(const Args &A) {
  std::string Path;
  Result<std::string> Bytes = payload(A, &Path);
  if (!Bytes)
    return makeError(Bytes.error());
  std::string Name(A.str("name", Path.empty() ? "profile" : Path));

  Result<Profile> P = convert::load(*Bytes, Name, Limits.Decode);
  if (!P)
    return makeError(P.error());
  Result<bool> Ok = P->verify();
  if (!Ok)
    return makeError("loaded profile failed verification: " + Ok.error());

  auto Stored = std::make_shared<const Profile>(P.take());
  int64_t Id = Store->add(Stored);
  Owned.insert(Id);
  json::Object Out;
  Out.set("profile", Id);
  Out.set("nodes", Stored->nodeCount());
  json::Array Metrics;
  for (const MetricDescriptor &M : Stored->metrics()) {
    json::Object MO;
    MO.set("name", M.Name);
    MO.set("unit", M.Unit);
    Metrics.push_back(std::move(MO));
  }
  Out.set("metrics", std::move(Metrics));
  return json::Value(std::move(Out));
}

Result<json::Value> PvpServer::doAppend(const Args &A) {
  int64_t Id = A.id("profile");
  Result<std::string> Bytes = payload(A, nullptr);
  if (!Bytes)
    return makeError(Bytes.error());

  // The store decodes incrementally (arbitrary chunking), swaps in a new
  // immutable snapshot, and bumps the generation — which is what retires
  // cached views and makes publishSubscriptions() push deltas after this
  // request completes.
  Result<size_t> Added = Store->append(Id, *Bytes, Limits.Decode);
  if (!Added)
    return makeError(Added.error());

  std::shared_ptr<const Profile> P = Store->get(Id);
  json::Object Out;
  Out.set("profile", Id);
  Out.set("nodesAdded", static_cast<uint64_t>(*Added));
  Out.set("nodes", P ? P->nodeCount() : 0);
  Out.set("generation", Store->generationOf(Id));
  return json::Value(std::move(Out));
}

Result<json::Value> PvpServer::doClose(const Args &A) {
  int64_t Id = A.id("profile");
  bool Removed = Owned.erase(Id) > 0;
  if (Removed)
    Store->drop(Id);
  Aggregates.erase(Id);
  json::Object Out;
  Out.set("closed", Removed);
  return json::Value(std::move(Out));
}

Result<json::Value> PvpServer::doSubscribe(const Args &A) {
  if (Subs.size() >= Limits.MaxSubscriptionsPerSession)
    return makeError(SubLimitDiag);
  int64_t Id = A.id("profile");
  std::string View(A.str("view"));
  const MethodEntry *ViewMethod = findMethod("pvp/" + View);
  if (!ViewMethod || !std::holds_alternative<ViewHandler>(ViewMethod->Run))
    return makeError("unknown view '" + View + "' (flame, treeTable)");

  json::Object ViewParams;
  ViewParams.set("profile", Id);
  if (A.has("params"))
    for (const auto &[Key, V] : A.object("params"))
      if (Key != "profile")
        ViewParams.set(Key, V);

  uint64_t Gen = Store->generationOf(Id);
  // dispatch() computes the view as an explicit re-query does, so the
  // payload is bit-for-bit its reply (the identity the delta codec is
  // tested against), and hands over the table it wrote: the delta base.
  std::optional<ViewTable> Table;
  Result<json::Value> Snapshot = dispatch(*ViewMethod, ViewParams, &Table);
  if (!Snapshot)
    return makeError(Snapshot.error());

  int64_t SubId = NextSubId++;
  Subs.emplace(SubId, Subscription{.ProfileId = Id,
                                   .View = ViewMethod,
                                   .ViewParams = std::move(ViewParams),
                                   .AckedGen = Gen,
                                   .AckedView = std::move(*Table),
                                   .PushedGen = Gen,
                                   .PushedView = std::nullopt,
                                   .Sink = CurrentNotify});
  SubMetrics::get().Subscribed.add();

  json::Object Out;
  Out.set("subscription", SubId);
  Out.set("profile", Id);
  Out.set("generation", Gen);
  Out.set("view", *Snapshot);
  return json::Value(std::move(Out));
}

Result<json::Value> PvpServer::doAck(const Args &A) {
  int64_t SubId = A.id("subscription");
  auto It = Subs.find(SubId);
  if (It == Subs.end())
    return makeError("no subscription with id " + std::to_string(SubId));
  int64_t Gen = A.id("generation");

  Subscription &S = It->second;
  bool Acked = false;
  if (static_cast<uint64_t>(Gen) == S.AckedGen) {
    // Replay (reconnect, duplicate ack): already the delta base.
    Acked = true;
  } else if (static_cast<uint64_t>(Gen) == S.PushedGen && S.PushedView) {
    // Promote the pushed view to the delta base: from here deltas diff
    // against state the client has confirmed applying.
    S.AckedView = std::move(*S.PushedView);
    S.PushedView.reset();
    S.AckedGen = S.PushedGen;
    Acked = true;
  }
  // Any other generation is stale (superseded by a newer push): refuse
  // the promotion, keep diffing from the last good ack. Correct, just
  // larger deltas until the client catches up.
  if (Acked)
    SubMetrics::get().Acks.add();
  json::Object Out;
  Out.set("subscription", SubId);
  Out.set("acked", Acked);
  Out.set("generation", S.AckedGen);
  return json::Value(std::move(Out));
}

Result<json::Value> PvpServer::doUnsubscribe(const Args &A) {
  bool Removed = Subs.erase(A.id("subscription")) > 0;
  if (Removed)
    SubMetrics::get().Unsubscribed.add();
  json::Object Out;
  Out.set("removed", Removed);
  return json::Value(std::move(Out));
}

void PvpServer::endSubscription(int64_t SubId, const Subscription &S,
                                const std::string &Reason) {
  SubMetrics::get().Ended.add();
  json::Object P;
  P.set("subscription", SubId);
  P.set("profile", S.ProfileId);
  P.set("reason", Reason);
  if (S.Sink)
    S.Sink(rpc::makeNotification("pvp/subscriptionEnd",
                                 json::Value(std::move(P))));
}

size_t PvpServer::publishSubscriptions() {
  if (Subs.empty())
    return 0;
  SubMetrics &M = SubMetrics::get();
  size_t Pushed = 0;
  std::vector<int64_t> Ended;
  for (auto &[SubId, S] : Subs) {
    // Unlike get(), the generation faults no spilled profile back in.
    uint64_t Gen = Store->generationOf(S.ProfileId);
    if (!Owned.count(S.ProfileId) || Gen == ProfileStore::RetiredGeneration) {
      endSubscription(SubId, S, "profile closed");
      Ended.push_back(SubId);
      continue;
    }
    // Nothing new past what the client holds (AckedGen) or was already
    // sent (PushedGen): no push. An unacked push followed by ANOTHER bump
    // re-enters here and diffs AckedView -> newest — pushes are
    // idempotent against the acked base, never chained on each other.
    if (Gen == S.AckedGen || Gen == S.PushedGen)
      continue;
    std::optional<ViewTable> Table;
    Result<json::Value> View = dispatch(*S.View, S.ViewParams, &Table);
    if (!View) {
      endSubscription(SubId, S, View.error());
      Ended.push_back(SubId);
      continue;
    }
    std::string Delta = encodeViewDelta(S.AckedView, *Table, S.AckedGen, Gen);
    M.Pushes.add();
    M.DeltaBytes.add(Delta.size());
    M.FullViewBytes.add(View->serializedText()->size());

    json::Object P;
    P.set("subscription", SubId);
    P.set("profile", S.ProfileId);
    P.set("fromGeneration", S.AckedGen);
    P.set("toGeneration", Gen);
    P.set("deltaBase64", base64Encode(Delta));
    if (S.Sink)
      S.Sink(rpc::makeNotification("pvp/viewDelta", json::Value(std::move(P))));
    S.PushedGen = Gen;
    S.PushedView = std::move(Table);
    ++Pushed;
  }
  for (int64_t SubId : Ended)
    Subs.erase(SubId);
  return Pushed;
}

std::vector<json::Value> PvpServer::takeNotifications() {
  std::vector<json::Value> Out;
  Out.swap(QueuedNotifications);
  return Out;
}

Result<ViewTable> PvpServer::doFlame(const Args &A) {
  // The flat shape lays out a temporary flat tree, which adds inclusive
  // columns, so the metric resolves in it. The bottom-up shape lays out
  // the profile's callers tree and builds no tree.
  std::string_view Shape = A.str("shape", "top-down");
  bool BottomUp = Shape == "bottom-up";
  std::optional<Profile> Flat;
  if (Shape == "flat")
    Flat = flatTree(A.profile(), ActiveCancel);
  else if (!BottomUp && Shape != "top-down")
    return makeError("unknown shape '" + std::string(Shape) +
                     "' (top-down, bottom-up, flat)");
  const Profile &View = Flat ? *Flat : A.profile();
  Result<MetricId> Metric = A.metricIn(View);
  if (!Metric)
    return makeError(Metric.error());

  // Oversized budgets degrade to the server ceiling rather than erroring:
  // the reply is marked truncated and stays renderable.
  size_t MaxRects = std::min(static_cast<size_t>(A.id("maxRects", 4096)),
                             Limits.MaxFlameRects);

  FlameGraph Graph = BottomUp
                         ? FlameGraph(CallersTree(View, *Metric, ActiveCancel))
                         : FlameGraph(View, *Metric);
  size_t Kept = std::min(Graph.rects().size(), MaxRects);
  ViewTable Out(ViewKind::Flame);
  Out.addScalar("total", Graph.totalValue());
  Out.addScalar("culled", Graph.culledCount());
  Out.addScalar("depth", Graph.depth());
  Out.addScalar("truncated", Graph.rects().size() > Kept);
  Out.addScalar("droppedRects", Graph.rects().size() - Kept);
  Out.rowsHere();
  for (size_t I = 0; I < Kept; ++I) {
    if ((I & 1023) == 0) {
      ActiveCancel.checkpoint();
      if (deadlineExpired())
        return makeError(DeadlineDiag);
    }
    const FlameRect &R = Graph.rects()[I];
    Out.addRow(R.Node, R.Depth, R.X, R.Width, R.Value, Graph.nameOf(R),
               toHexColor(R.Color));
  }
  return Out;
}

Result<ViewTable> PvpServer::doTreeTable(const Args &A) {
  const Profile &P = A.profile();
  TreeTable Table(P);
  if (A.has("expand")) {
    for (std::optional<int64_t> Node : A.ids("expand"))
      if (Node && *Node >= 0 && static_cast<size_t>(*Node) < P.nodeCount())
        Table.expand(static_cast<NodeId>(*Node));
  } else if (!P.metrics().empty()) {
    Table.expandHotPath(0);
  }
  // Tables beyond the ceiling truncate rather than error; the editor
  // still gets a renderable prefix plus the truncation marker.
  std::vector<TreeTableRow> Rows = Table.rows();
  size_t Kept = std::min(Rows.size(), Limits.MaxTreeTableRows);
  ViewTable Out(ViewKind::TreeTable);
  Out.addScalar("truncated", Rows.size() > Kept);
  Out.addScalar("droppedRows", Rows.size() - Kept);
  Out.rowsHere();
  for (size_t I = 0; I < Kept; ++I) {
    if ((I & 1023) == 0) {
      ActiveCancel.checkpoint();
      if (deadlineExpired())
        return makeError(DeadlineDiag);
    }
    const TreeTableRow &Row = Rows[I];
    Out.addRow(Row.Node, Row.Depth, P.nameOf(Row.Node), Row.Expandable,
               Row.Expanded);
  }
  // Subscriptions pass includeText:false — the rendered text is O(table)
  // and rewrites wholesale on every generation, which would dominate the
  // delta; the rows alone reconstruct the table.
  if (A.flag("includeText", true))
    Out.addScalar("text", Table.renderText());
  return Out;
}

Result<json::Value> PvpServer::doCodeLink(const Args &A) {
  const Profile &P = A.profile();
  const Frame &F = P.frameOf(A.node());
  json::Object Out;
  Out.set("available", F.Loc.hasSourceMapping());
  Out.set("file", std::string(P.text(F.Loc.File)));
  Out.set("line", F.Loc.Line);
  Out.set("module", std::string(P.text(F.Loc.Module)));
  return json::Value(std::move(Out));
}

Result<json::Value> PvpServer::doHover(const Args &A) {
  json::Object Out;
  Out.set("contents", hoverText(A.profile(), A.node()));
  return json::Value(std::move(Out));
}

Result<json::Value> PvpServer::doCodeLens(const Args &A) {
  json::Array Lenses;
  for (const LineAnnotation &L : annotateFile(A.profile(), A.str("file"))) {
    json::Object LO;
    LO.set("line", L.Line);
    LO.set("text", L.LensText);
    LO.set("hotness", L.Hotness);
    json::Array Contexts;
    for (NodeId Ctx : L.Contexts)
      Contexts.push_back(Ctx);
    LO.set("contexts", std::move(Contexts));
    Lenses.push_back(std::move(LO));
  }
  json::Object Out;
  Out.set("lenses", std::move(Lenses));
  return json::Value(std::move(Out));
}

Result<json::Value> PvpServer::doSummary(const Args &A) {
  json::Object Out;
  Out.set("text", renderSummaryText(A.profile()));
  return json::Value(std::move(Out));
}

Result<json::Value> PvpServer::doSearch(const Args &A) {
  const Profile &P = A.profile();
  std::string_view Pattern = A.str("pattern");
  json::Array Matches;
  for (NodeId Id = 0; Id < P.nodeCount(); ++Id) {
    if ((Id & 4095) == 0) {
      ActiveCancel.checkpoint();
      if (deadlineExpired())
        return makeError(DeadlineDiag);
    }
    if (P.nameOf(Id).find(Pattern) != std::string_view::npos)
      Matches.push_back(Id);
  }
  json::Object Out;
  Out.set("count", Matches.size());
  Out.set("matches", std::move(Matches));
  return json::Value(std::move(Out));
}

Result<json::Value> PvpServer::doAggregate(const Args &A) {
  // Held keeps every input alive for the whole aggregation even if
  // another session closes one mid-request.
  std::vector<std::shared_ptr<const Profile>> Held;
  std::vector<const Profile *> Inputs;
  for (std::optional<int64_t> InputId : A.ids("profiles")) {
    if (!InputId)
      return makeError("'profiles' must contain numeric ids");
    std::shared_ptr<const Profile> P = profileHandle(*InputId);
    if (!P)
      return makeError("no profile with id " + std::to_string(*InputId));
    Inputs.push_back(P.get());
    Held.push_back(std::move(P));
  }
  AggregateOptions Opt;
  Opt.WithMin = Opt.WithMax = Opt.WithMean = true;
  AggregatedProfile Agg = aggregate(Inputs, Opt, ActiveCancel);

  // The registered profile shares the merged block with the histogram
  // state kept in Aggregates.
  int64_t Id = addProfile(Agg.merged());
  json::Object Out;
  Out.set("profile", Id);
  Out.set("nodes", Agg.merged().nodeCount());
  Out.set("inputs", Inputs.size());
  Aggregates.emplace(Id, std::move(Agg));
  return json::Value(std::move(Out));
}

Result<json::Value> PvpServer::doHistogram(const Args &A) {
  // The merged profile lists the input metrics first, so an index or name
  // below inputMetricCount() is an input metric.
  const AggregatedProfile &Agg = A.aggregate();
  if (A.metric() >= Agg.inputMetricCount())
    return makeError("metric index out of aggregate input range");

  json::Array Series;
  for (double V : Agg.perProfileInclusive(A.node(), A.metric()))
    Series.push_back(V);
  json::Object Out;
  Out.set("series", std::move(Series));
  return json::Value(std::move(Out));
}

Result<json::Value> PvpServer::doDiff(const Args &A) {
  DiffResult Diff =
      diffProfiles(A.profile("base"), A.profile("test"), A.metric(),
                   /*RelativeEpsilon=*/1e-9, ActiveCancel);
  auto Count = [&](DiffTag Tag) {
    return static_cast<size_t>(
        std::count(Diff.Tags.begin(), Diff.Tags.end(), Tag));
  };
  json::Object Out;
  Out.set("profile", addProfile(std::move(Diff.Merged)));
  Out.set("added", Count(DiffTag::Added));
  Out.set("deleted", Count(DiffTag::Deleted));
  Out.set("increased", Count(DiffTag::Increased));
  Out.set("decreased", Count(DiffTag::Decreased));
  return json::Value(std::move(Out));
}

Result<json::Value> PvpServer::doQuery(const Args &A) {
  std::string_view Source = A.str("program");
  if (std::optional<std::string> TooLarge =
          evql::programSizeError(Source, Limits.Analysis))
    return makeError(std::move(*TooLarge));
  // Warm path: compilation reads only the source, so a program compiled
  // once serves every profile and generation and a hit goes straight to
  // the batched VM.
  std::string CacheKey = evql::programCacheKey(Source);
  std::shared_ptr<const evql::CompiledProgram> Compiled =
      Cache->programs().lookup(CacheKey);
  if (!Compiled) {
    Result<evql::Program> Prog = evql::parseProgram(Source);
    if (!Prog)
      return makeError(Prog.error());
    Compiled = evql::compileProgram(*Prog, Limits.Analysis);
    Cache->programs().insert(CacheKey, Compiled);
  }
  Result<evql::QueryOutput> Out = evql::runCompiled(A.profile(), *Compiled);
  if (!Out)
    return makeError(Out.error());

  json::Object Reply;
  Reply.set("profile", addProfile(std::move(Out->Result)));
  json::Array Printed;
  for (std::string &Line : Out->Printed)
    Printed.push_back(std::move(Line));
  Reply.set("printed", std::move(Printed));
  json::Array Derived;
  for (std::string &Name : Out->DerivedMetrics)
    Derived.push_back(std::move(Name));
  Reply.set("derived", std::move(Derived));
  return json::Value(std::move(Reply));
}

Result<json::Value> PvpServer::doTransform(const Args &A) {
  const Profile &P = A.profile();
  std::string_view Shape = A.str("shape");
  // A materialized top-down tree is a fresh copy, not a second handle on
  // the profile's block.
  std::optional<Profile> Shaped;
  if (Shape == "top-down")
    Shaped = topDownTree(P, ActiveCancel);
  else if (Shape == "bottom-up")
    Shaped = bottomUpTree(P, ActiveCancel);
  else if (Shape == "flat")
    Shaped = flatTree(P, ActiveCancel);
  else if (Shape == "collapse-recursion")
    Shaped = collapseRecursion(P, ActiveCancel);
  if (!Shaped)
    return makeError("unknown shape '" + std::string(Shape) + "'");

  json::Object Out;
  Out.set("nodes", Shaped->nodeCount());
  Out.set("profile", addProfile(std::move(*Shaped)));
  return json::Value(std::move(Out));
}

Result<json::Value> PvpServer::doPrune(const Args &A) {
  double MinFraction = A.number("minFraction", 0.001);
  if (MinFraction < 0.0 || MinFraction > 1.0)
    return makeError("'minFraction' must be in [0, 1]");
  Profile Pruned = pruneByFraction(A.profile(), A.metric(), MinFraction);
  json::Object Out;
  Out.set("nodes", Pruned.nodeCount());
  Out.set("removed", A.profile().nodeCount() - Pruned.nodeCount());
  Out.set("profile", addProfile(std::move(Pruned)));
  return json::Value(std::move(Out));
}

Result<json::Value> PvpServer::doExport(const Args &A) {
  std::string_view Fmt = A.str("format");
  std::optional<std::string> Bytes =
      convert::exportProfile(A.profile(), Fmt, A.metric());
  if (!Bytes)
    return makeError("unknown export format '" + std::string(Fmt) + "'");

  json::Object Out;
  Out.set("bytes", Bytes->size());
  Out.set("dataBase64", base64Encode(*Bytes));
  return json::Value(std::move(Out));
}

Result<json::Value> PvpServer::doButterfly(const Args &A) {
  std::string Function(A.str("function"));
  ButterflyResult B = butterfly(A.profile(), Function, A.metric());
  if (B.Occurrences == 0)
    return makeError("function '" + Function + "' not found in the profile");
  auto ToArray = [](const std::vector<ButterflyEntry> &Entries) {
    json::Array Out;
    for (const ButterflyEntry &E : Entries) {
      json::Object EO;
      EO.set("name", E.Name);
      EO.set("value", E.Value);
      Out.push_back(std::move(EO));
    }
    return Out;
  };
  json::Object Out;
  Out.set("function", B.Focus);
  Out.set("occurrences", B.Occurrences);
  Out.set("totalInclusive", B.TotalInclusive);
  Out.set("selfExclusive", B.SelfExclusive);
  Out.set("callers", ToArray(B.Callers));
  Out.set("callees", ToArray(B.Callees));
  return json::Value(std::move(Out));
}

Result<json::Value> PvpServer::doCorrelated(const Args &A) {
  const Profile &P = A.profile();
  std::string Kind(A.str("kind"));
  CorrelatedView View(P, Kind);
  if (View.roleCount() == 0)
    return makeError("no context groups of kind '" + Kind + "'");
  size_t Role = 0;
  for (std::optional<int64_t> Node : A.ids("select")) {
    if (!Node || *Node < 0)
      return makeError("'select' must contain node ids");
    if (!View.select(Role, static_cast<NodeId>(*Node)))
      return makeError("node " + std::to_string(*Node) + " is not in pane " +
                       std::to_string(Role));
    ++Role;
  }

  json::Object Out;
  Out.set("roles", View.roleCount());
  Out.set("activeGroups", View.activeGroupCount());
  json::Array Panes;
  for (size_t Role = 0; Role < View.roleCount(); ++Role) {
    json::Array Contexts;
    for (auto &[Node, Value] : View.paneContexts(Role)) {
      json::Object CO;
      CO.set("node", Node);
      CO.set("name", std::string(P.nameOf(Node)));
      CO.set("value", Value);
      Contexts.push_back(std::move(CO));
    }
    Panes.push_back(std::move(Contexts));
  }
  Out.set("panes", std::move(Panes));
  return json::Value(std::move(Out));
}

namespace {

/// The finding filters shared by pvp/diagnostics and pvp/regressions.
struct DiagnosticFilter {
  AnalysisLimits Analysis;
  RuleFilter Rules;
};

/// Reads 'maxDiagnostics' (a positive value can only lower \p Analysis's
/// cap), 'minSeverity' and 'disable'.
Result<DiagnosticFilter> diagnosticFilter(const PvpServer::Args &A,
                                          const AnalysisLimits &Analysis) {
  DiagnosticFilter F;
  F.Analysis = Analysis;
  if (int64_t MaxDiags = A.id("maxDiagnostics", 0); MaxDiags > 0)
    F.Analysis.MaxDiagnostics = std::min<size_t>(
        F.Analysis.MaxDiagnostics, static_cast<size_t>(MaxDiags));
  if (A.has("minSeverity") &&
      !parseSeverity(A.str("minSeverity"), F.Rules.MinSeverity))
    return makeError(SeverityDiag);
  for (std::string_view Rule : A.names("disable")) {
    // Names are validated against the whole rule table, matching the
    // evtool subcommands: disabling another family's rule is accepted
    // (and inert), only typos are errors.
    if (!findRule(Rule))
      return makeError("unknown rule in 'disable'");
    F.Rules.Disabled.emplace_back(Rule);
  }
  return F;
}

/// The reply shared by pvp/diagnostics and pvp/regressions: the findings
/// under \p Key and their counts, which include the findings the cap
/// dropped. The passes applied the rule filter while emitting.
/// Serialization stops once \p Expired reports the request deadline,
/// degrading to a truncated (but valid) reply rather than discarding the
/// findings.
json::Object diagnosticsReply(const DiagnosticSet &Diags,
                              std::string_view Key,
                              const std::function<bool()> &Expired) {
  json::Array Arr;
  bool DeadlineHit = false;
  for (const Diagnostic &D : Diags.all()) {
    // Past the deadline the rest is counted as dropped.
    if ((Arr.size() & 255) == 0 && (DeadlineHit = Expired()))
      break;
    json::Object DO;
    DO.set("id", D.Id);
    DO.set("severity", std::string(severityName(D.Sev)));
    DO.set("message", D.Message);
    DO.set("rule", D.Rule);
    if (!D.Hint.empty())
      DO.set("hint", D.Hint);
    if (D.Line > 0) {
      DO.set("line", D.Line);
      DO.set("column", D.Column);
    }
    if (D.Node != InvalidNode)
      DO.set("node", D.Node);
    Arr.push_back(json::Value(std::move(DO)));
  }

  json::Object Reply;
  size_t Shown = Arr.size();
  Reply.set(std::string(Key), std::move(Arr));
  Reply.set("errors", Diags.count(Severity::Error));
  Reply.set("warnings", Diags.count(Severity::Warning));
  Reply.set("dropped", Diags.dropped() + (Diags.size() - Shown));
  Reply.set("truncated", Diags.truncated() || DeadlineHit);
  if (DeadlineHit)
    Reply.set("deadlineExpired", true);
  return Reply;
}

} // namespace

Result<json::Value> PvpServer::doDiagnostics(const Args &A) {
  if (!A.has("program") && !A.has("profile"))
    return makeError("pvp/diagnostics needs 'program' and/or 'profile'");
  Result<DiagnosticFilter> Filter = diagnosticFilter(A, Limits.Analysis);
  if (!Filter)
    return makeError(Filter.error());
  const Profile *P = A.has("profile") ? &A.profile() : nullptr;

  // Batch both passes into one diagnostic set: program findings first
  // (they carry source spans), then profile findings.
  DiagnosticSet Diags(Filter->Analysis.MaxDiagnostics);
  if (A.has("program")) {
    SemaOptions SOpts;
    SOpts.MetricSource = P;
    SOpts.Limits = Filter->Analysis;
    SOpts.Filter = Filter->Rules;
    SemaChecker(SOpts).checkSource(A.str("program"), Diags);
  }
  if (P) {
    LintOptions LOpts;
    LOpts.Limits = Filter->Analysis;
    LOpts.Filter = Filter->Rules;
    ProfileLinter(LOpts).lintProfile(*P, Diags);
  }
  Diags.sortBySource();
  return json::Value(diagnosticsReply(Diags, "diagnostics",
                                      [this] { return deadlineExpired(); }));
}

Result<json::Value> PvpServer::doRegressions(const Args &A) {
  Result<DiagnosticFilter> Filter = diagnosticFilter(A, Limits.Analysis);
  if (!Filter)
    return makeError(Filter.error());
  RegressionOptions Opts;
  Opts.Limits = Filter->Analysis;
  Opts.Filter = Filter->Rules;
  Opts.RelativeMin = A.number("relativeMin", Opts.RelativeMin);
  Opts.AbsoluteMin = A.number("absoluteMin", Opts.AbsoluteMin);
  Opts.SigmaGate = A.number("sigma", Opts.SigmaGate);
  FleetAggregateOptions AggOpts;
  AggOpts.NodeBudget = static_cast<size_t>(
      A.id("nodeBudget", static_cast<int64_t>(AggOpts.NodeBudget)));

  // Stream each cohort member through the accumulator. Memory stays
  // O(merged CCT): profiles live in the store either way, but the cohort
  // analysis itself never materializes an O(N profiles) matrix. On a
  // budgeted store only the member being folded is held (spilled members
  // fault in and age right back out), so a cohort far larger than the
  // budget streams through without the store ever exceeding it.
  auto Fill = [&](const std::vector<int64_t> &Ids,
                  CohortAccumulator &Acc) -> Result<bool> {
    for (int64_t ProfId : Ids) {
      if (deadlineExpired())
        return makeError(DeadlineDiag);
      std::shared_ptr<const Profile> P = profileHandle(ProfId);
      if (!P)
        return makeError("no profile with id " + std::to_string(ProfId));
      Acc.add(*P, ActiveCancel);
    }
    return true;
  };
  CohortAccumulator Base(AggOpts), Test(AggOpts);
  if (Result<bool> R = Fill(A.cohort("base"), Base); !R)
    return makeError(R.error());
  if (Result<bool> R = Fill(A.cohort("test"), Test); !R)
    return makeError(R.error());

  DiagnosticSet Diags(Filter->Analysis.MaxDiagnostics);
  RegressionAnalyzer(Opts).analyze(Base, Test, Diags, ActiveCancel);
  json::Object Reply = diagnosticsReply(Diags, "findings",
                                        [this] { return deadlineExpired(); });
  Reply.set("baseProfiles", Base.profileCount());
  Reply.set("testProfiles", Test.profileCount());
  return json::Value(std::move(Reply));
}

Result<json::Value> PvpServer::doStats(const Args &) {
  json::Object Out;
  Out.set("profiles", static_cast<int64_t>(Owned.size()));
  // Cache counters live on the SHARED cache object, so every session
  // reports the same totals.
  Out.set("cachedViews", static_cast<int64_t>(Cache->size()));
  Out.set("cacheCapacity", static_cast<int64_t>(Cache->capacity()));
  Out.set("cacheHits", Cache->hits());
  Out.set("cacheMisses", Cache->misses());
  Out.set("cacheEvictions", Cache->evictions());
  Out.set("storeProfiles", static_cast<int64_t>(Store->size()));
  // Memory attribution (docs/PERF.md "Out-of-core profile store"): cache
  // memory and store memory reported SEPARATELY so an operator can tell
  // which layer is holding bytes. cacheBytes is the reply text the view
  // cache holds; storeResidentBytes (the resident profile blocks, strings
  // included) is what counts against storeBudgetBytes.
  Out.set("cacheBytes", Cache->bytes());
  StoreStats SS = Store->stats();
  Out.set("storeBudgetBytes", SS.BudgetBytes);
  Out.set("storeResidentBytes", SS.ResidentBytes);
  Out.set("storeSpilledBytes", SS.SpilledBytes);
  Out.set("storeSpills", SS.Spills);
  Out.set("storeEvictions", SS.Evictions);
  Out.set("storeFaults", SS.Faults);
  Out.set("storeSpillFailures", SS.SpillFailures);
  // Compiled-EVQL program cache (docs/EVQL.md "Bytecode VM"): hits are
  // pvp/query requests that skipped lex/parse/compile entirely.
  Out.set("programCacheSize",
          static_cast<int64_t>(Cache->programs().size()));
  Out.set("programCacheCapacity",
          static_cast<int64_t>(Cache->programs().capacity()));
  Out.set("programCacheHits", Cache->programs().hits());
  Out.set("programCacheMisses", Cache->programs().misses());
  return json::Value(std::move(Out));
}

Result<json::Value> PvpServer::doMetrics(const Args &A) {
  telemetry::SnapshotOptions Opts;
  Opts.IncludeTimings = A.flag("includeTimings", Opts.IncludeTimings);
  json::Value Snap = telemetry::Registry::global().snapshot(Opts);

  json::Object Out;
  // wallTimeMs is the one user-facing timestamp (system clock, epoch ms,
  // comparable across machines); monoTimeMs is for computing deltas
  // between two snapshots of THIS process only.
  Out.set("wallTimeMs", wallMillis());
  Out.set("monoTimeMs", monoMillis());
  for (const auto &[Key, V] : Snap.asObject())
    Out.set(Key, V);

  json::Object Spans;
  Spans.set("enabled", trace::enabled());
  Spans.set("retained", static_cast<uint64_t>(trace::retainedSpans()));
  Spans.set("dropped", trace::droppedSpans());
  Spans.set("lanes", static_cast<uint64_t>(trace::laneCount()));
  Out.set("spans", std::move(Spans));

  Out.set("stats", doStats(A).take());
  return json::Value(std::move(Out));
}

Result<json::Value> PvpServer::doSelfProfile(const Args &A) {
  std::vector<trace::SpanRecord> Records = trace::collectSpans();
  if (Records.empty())
    return makeError("no spans retained (tracing disabled or nothing ran)");

  Profile Self =
      trace::toProfile(std::string(A.str("name", "easyview-self")));
  Result<bool> Ok = Self.verify();
  if (!Ok)
    return makeError("self-profile failed verification: " + Ok.error());

  std::string Bytes = writeEvProf(Self);
  size_t Nodes = Self.nodeCount();
  // Register the profile in this session so the editor can immediately ask
  // for pvp/flame of the server's own execution — the paper's dogfooding
  // move: the profiler profiled with its own representation.
  int64_t Id = addProfile(std::move(Self));

  if (A.flag("reset", false))
    trace::clear();

  json::Object Out;
  Out.set("profile", Id);
  Out.set("nodes", static_cast<uint64_t>(Nodes));
  Out.set("spans", static_cast<uint64_t>(Records.size()));
  Out.set("bytes", static_cast<uint64_t>(Bytes.size()));
  Out.set("dataBase64", base64Encode(Bytes));
  return json::Value(std::move(Out));
}

const std::vector<PvpServer::MethodEntry> &PvpServer::methods() {
  // Built once: a client naming unknown methods registers nothing. Each
  // method name is declared here and nowhere else.
  static const std::vector<MethodEntry> Table = [] {
    using S = PvpServer;
    using K = ParamKind;
    constexpr bool Req = true, Cached = true, Retires = true;
    const ParamSpec Prof{"profile", K::Profile, Req},
        Node{"node", K::Node, Req}, MaxDiags{"maxDiagnostics", K::Count},
        MinSeverity{"minSeverity", K::String, false, SeverityDiag},
        Disable{"disable", K::Names};
    std::vector<MethodEntry> T = {
        {"pvp/open", &S::doOpen,
         {{"data", K::String}, {"dataBase64", K::String}, {"path", K::String},
          {"name", K::String}}},
        {"pvp/append", &S::doAppend,
         {{"profile", K::ProfileId, Req}, {"data", K::String},
          {"dataBase64", K::String}}},
        {"pvp/subscribe", &S::doSubscribe,
         {{"profile", K::ProfileId, Req},
          {"view", K::String, Req,
           "missing 'view' parameter (flame or treeTable)"},
          {"params", K::Object}}},
        {"pvp/ack", &S::doAck,
         {{"subscription", K::Int, Req}, {"generation", K::Count, Req}}},
        {"pvp/unsubscribe", &S::doUnsubscribe, {{"subscription", K::Int, Req}}},
        {"pvp/close", &S::doClose, {{"profile", K::Int, Req}}},
        {"pvp/flame", &S::doFlame,
         {Prof, {"shape", K::String}, {"metric", K::ViewMetric},
          {"maxRects", K::Count}},
         Cached},
        {"pvp/treeTable", &S::doTreeTable,
         {Prof, {"expand", K::Ids}, {"includeText", K::Bool}}, Cached},
        {"pvp/codeLink", &S::doCodeLink, {Prof, Node}},
        {"pvp/hover", &S::doHover, {Prof, Node}},
        {"pvp/codeLens", &S::doCodeLens, {Prof, {"file", K::String, Req}}},
        {"pvp/summary", &S::doSummary, {Prof}, Cached},
        {"pvp/search", &S::doSearch, {Prof, {"pattern", K::String, Req}}},
        {"pvp/aggregate", &S::doAggregate,
         {{"profiles", K::Ids, Req,
           "pvp/aggregate needs a non-empty 'profiles' array"}}},
        {"pvp/histogram", &S::doHistogram,
         {{"aggregate", K::Aggregate, Req}, Node, {"metric", K::AnyMetric}}},
        {"pvp/diff", &S::doDiff,
         {{"base", K::Profile, Req}, {"test", K::Profile, Req},
          {"metric", K::Metric}}},
        {"pvp/query", &S::doQuery, {Prof, {"program", K::String, Req}},
         !Cached, Retires},
        {"pvp/transform", &S::doTransform, {Prof, {"shape", K::String, Req}},
         !Cached, Retires},
        {"pvp/prune", &S::doPrune,
         {Prof, {"metric", K::Metric}, {"minFraction", K::Number}}, !Cached,
         Retires},
        {"pvp/export", &S::doExport,
         {Prof, {"format", K::String, Req}, {"metric", K::AnyMetric}}},
        {"pvp/butterfly", &S::doButterfly,
         {Prof, {"function", K::String, Req}, {"metric", K::Metric}}},
        {"pvp/correlated", &S::doCorrelated,
         {Prof, {"kind", K::String, Req}, {"select", K::Ids}}},
        {"pvp/diagnostics", &S::doDiagnostics,
         {{"program", K::String}, MaxDiags, MinSeverity, Disable,
          {"profile", K::Profile}}},
        {"pvp/regressions", &S::doRegressions,
         {{"base", K::Cohort, Req}, {"test", K::Cohort, Req}, MaxDiags,
          MinSeverity, Disable, {"relativeMin", K::Ratio},
          {"absoluteMin", K::Ratio}, {"sigma", K::Ratio},
          {"nodeBudget", K::Count}},
         Cached},
        {"pvp/stats", &S::doStats, {}},
        {"pvp/metrics", &S::doMetrics, {{"includeTimings", K::Bool}}},
        {"pvp/selfProfile", &S::doSelfProfile,
         {{"name", K::String}, {"reset", K::Bool}}},
    };
    telemetry::Registry &Reg = telemetry::Registry::global();
    for (MethodEntry &E : T)
      E.Latency = &Reg.histogram("pvp.latencyUs." + std::string(E.Name));
    return T;
  }();
  return Table;
}

const PvpServer::MethodEntry *PvpServer::findMethod(std::string_view Method) {
  for (const MethodEntry &E : methods())
    if (E.Name == Method)
      return &E;
  return nullptr;
}

std::optional<std::string>
PvpServer::cacheKey(const MethodEntry &Method, const json::Object &Params,
                    std::vector<int64_t> &Profiles) const {
  // Only declared members enter the key, in declaration order, so member
  // order and members no handler reads do not split an entry.
  std::string Key(Method.Name);
  for (const ParamSpec &S : Method.Params) {
    const json::Value *V = Params.find(S.Name);
    if (!isProfileTyped(S.Kind)) {
      if (V)
        Key.append("|").append(S.Name).append("=").append(V->dump());
      continue;
    }
    Result<std::vector<int64_t>> Ids = profileIds(S, V);
    if (!Ids)
      return std::nullopt;
    Key.append("|").append(S.Name).append("=");
    for (int64_t P : *Ids) {
      if (!Owned.count(P))
        return std::nullopt;
      Key += std::to_string(P) + ':' +
             std::to_string(Store->generationOf(P)) + ',';
      Profiles.push_back(P);
    }
  }
  return Key;
}

Result<PvpServer::Args>
PvpServer::parseArgs(const MethodEntry &Method,
                     const json::Object &Params) const {
  using K = ParamKind;
  Args A{&Method, std::vector<Args::Arg>(Method.Params.size())};
  // Metric and Node parameters resolve in the first profile or aggregate.
  const Profile *Subject = nullptr;
  for (size_t I = 0; I < Method.Params.size(); ++I) {
    const ParamSpec &S = Method.Params[I];
    Args::Arg &Out = A.Values[I];
    const json::Value *V = Out.Value = Params.find(S.Name);
    if (!V && S.Required)
      return makeError(invalidParam(S));
    if (!V && S.Kind != K::Metric)
      continue;
    if (isProfileTyped(S.Kind)) {
      Result<std::vector<int64_t>> Ids = profileIds(S, V);
      if (!Ids)
        return makeError(Ids.error());
      if (S.Kind == K::Cohort) {
        Out.Cohort = Ids.take();
        continue;
      }
      Out.Id = Ids->front();
      if (S.Kind == K::Profile)
        Out.Handle = profileHandle(Out.Id);
      if (S.Kind == K::Profile ? !Out.Handle : !Owned.count(Out.Id))
        return makeError("no profile with id " + std::to_string(Out.Id));
      Subject = Subject ? Subject : Out.Handle.get();
      continue;
    }
    if (S.Kind == K::Metric || S.Kind == K::AnyMetric) {
      Result<MetricId> M = resolveMetric(*Subject, V);
      if (!M)
        return makeError(M.error());
      Out.Id = *M;
      continue;
    }
    if (S.Kind == K::Node && V->isNumber()) {
      if (!V->getInteger(Out.Id) || Out.Id < 0 ||
          static_cast<size_t>(Out.Id) >= Subject->nodeCount())
        return makeError("node id out of range");
      continue;
    }
    if (S.Kind == K::Aggregate && V->getInteger(Out.Id)) {
      auto It = Aggregates.find(Out.Id);
      if (It == Aggregates.end())
        return makeError("no aggregate with id " + std::to_string(Out.Id));
      Out.Agg = &It->second;
      Subject = &Out.Agg->merged();
      continue;
    }
    // A ViewMetric is resolved by its handler; a Node or Aggregate that
    // got here is not a number.
    bool Ok = S.Kind == K::String   ? V->isString()
              : S.Kind == K::Bool   ? V->isBool()
              : S.Kind == K::Int    ? V->getInteger(Out.Id)
              : S.Kind == K::Count  ? V->getInteger(Out.Id) && Out.Id >= 0
              : S.Kind == K::Number ? V->isNumber()
              : S.Kind == K::Ratio  ? V->isNumber() && V->asNumber() >= 0.0
              : S.Kind == K::Ids    ? V->isArray() &&
                                       !(S.Required && V->asArray().empty())
              : S.Kind == K::Names  ? V->isArray()
              : S.Kind == K::Object ? V->isObject()
                                    : S.Kind == K::ViewMetric;
    if (!Ok)
      return makeError(invalidParam(S));
  }
  return A;
}

Result<json::Value> PvpServer::dispatch(const MethodEntry &Method,
                                        const json::Object &Params,
                                        std::optional<ViewTable> *Table) {
  // Memoized fast path: a cached method is served straight from the LRU,
  // before any other parameter is checked. The key folds in the generation
  // of each profile its profile-typed parameters name, the cache's one
  // staleness rule: a view of an old generation is never looked up again.
  // Ownership gates the cache: sessions share one LRU keyed by globally
  // unique profile ids, so without the check a session could be served a
  // view of a profile it never opened. A caller taking the table skips the
  // lookup: computing a view costs less than reading its text back.
  std::string CacheKey;
  std::vector<int64_t> CacheProfiles;
  if (Method.Cached && Cache->capacity() != 0) {
    if (std::optional<std::string> Key =
            cacheKey(Method, Params, CacheProfiles)) {
      if (ViewCache::Text Hit = Table ? nullptr : Cache->lookup(*Key))
        return json::Value::serialized(std::move(Hit));
      CacheKey = std::move(*Key);
    }
  }
  Result<Args> A = parseArgs(Method, Params);
  if (!A)
    return makeError(A.error());
  // The 'profile' this session owned when the request arrived. A retiring
  // method bumps only such a profile: closing another session's id changes
  // nothing of it. Whatever ends its generation during the request (the
  // bump below, a close's drop, an append's own bump) retires its views.
  const Args::Arg *Target = A->find("profile");
  bool OwnedOnArrival = Target && Target->Value && Owned.count(Target->Id);
  int64_t Arrived = OwnedOnArrival ? Target->Id : 0;
  uint64_t GenBefore = OwnedOnArrival ? Store->generationOf(Arrived) : 0;

  // Arm the soft per-request deadline; long-running handler loops check
  // it periodically and bail with DeadlineDiag. A nested dispatch (the
  // view pvp/subscribe computes) spends what is left of its request's
  // budget; one outside any request (a subscription push) arms its own.
  uint64_t Enclosing = RequestDeadline;
  if (Enclosing == 0 && Limits.RequestDeadlineMs != 0)
    RequestDeadline = NowMs() + Limits.RequestDeadlineMs;
  // A view handler fills View and leaves R empty.
  Result<json::Value> R = json::Value();
  std::optional<ViewTable> View;
  try {
    if (const ViewHandler *Run = std::get_if<ViewHandler>(&Method.Run)) {
      if (Result<ViewTable> T = (this->**Run)(*A))
        View = T.take();
      else
        R = makeError(T.error());
    } else {
      R = (this->*std::get<ReplyHandler>(Method.Run))(*A);
    }
  } catch (const CancelledException &) {
    // Cooperative cancellation unwound the handler. The reply is an
    // error, so nothing below touches the view cache: no partial view is
    // memoized and no valid entry is displaced.
    R = makeError(CancelDiag);
  }
  RequestDeadline = Enclosing;
  if (!R)
    return R;
  if (OwnedOnArrival) {
    if (Method.Retires)
      Store->bumpGeneration(Arrived);
    if (Store->generationOf(Arrived) != GenBefore)
      Cache->retire(Arrived);
  }
  json::Value Payload = View ? View->reply() : R.take();
  // Only successful replies are memoized; errors stay uncached so a later
  // retry (e.g. after the deadline budget recovers) re-runs the handler.
  // The key holds the generations read before the handler ran: a view
  // computed while another request retired its profile lands under a key
  // no later lookup builds, and ages out of the LRU. Every view reply, and
  // a cached tree reply, is written once, here, not by the frame writer.
  if (!CacheKey.empty()) {
    if (!Payload.isSerialized())
      Payload = json::Value::serialized(Payload.dump());
    Cache->insert(std::move(CacheKey), std::move(CacheProfiles),
                  Payload.serializedText());
  }
  if (Table)
    *Table = std::move(View);
  return Payload;
}

json::Value PvpServer::handleMessage(const json::Value &Request,
                                     const CancelToken &Cancel,
                                     std::function<void(json::Value)> Notify) {
  // Request-level telemetry: handles are pinned once (registration locks
  // a shard; updates are relaxed atomics on the hot path).
  telemetry::Registry &Reg = telemetry::Registry::global();
  static telemetry::Counter &Requests = Reg.counter("pvp.requests");
  static telemetry::Counter &Errors = Reg.counter("pvp.errors");
  static telemetry::Histogram &Latency = Reg.histogram("pvp.latencyUs");
  Requests.add();
  uint64_t T0 = monoMicros();

  ActiveCancel = Cancel;
  // Subscriptions created by THIS request bind the caller's notification
  // channel. Without one, pushes queue on the server and a wire loop
  // (handleWire) drains them after the response.
  CurrentNotify = Notify ? std::move(Notify) : [this](json::Value N) {
    QueuedNotifications.push_back(std::move(N));
  };
  json::Value Response = [&] {
    if (!Request.isObject())
      return rpc::makeErrorResponse(0, rpc::InvalidRequest,
                                    "request is not an object");
    const json::Object &Obj = Request.asObject();
    int64_t Id = 0;
    if (const json::Value *IdV = Obj.find("id"); IdV)
      IdV->getInteger(Id);
    const json::Value *MethodV = Obj.find("method");
    if (!MethodV || !MethodV->isString())
      return rpc::makeErrorResponse(Id, rpc::InvalidRequest,
                                    "request has no method");
    static const json::Object EmptyParams;
    const json::Object *Params = &EmptyParams;
    if (const json::Value *PV = Obj.find("params"); PV && PV->isObject())
      Params = &PV->asObject();
    // The span label is the table's name, a string literal, so it
    // outlives the request. Unknown names share one label, so junk method
    // names grow neither the label table nor the histograms.
    const MethodEntry *Entry = findMethod(MethodV->asString());
    if (!Entry) {
      trace::Span Span(UnknownMethodLabel, "pvp");
      return rpc::makeErrorResponse(Id, rpc::MethodNotFound,
                                    "unknown method '" + MethodV->asString() +
                                        "'");
    }
    trace::Span Span(Entry->Name.data(), "pvp");
    uint64_t M0 = monoMicros();
    Result<json::Value> Reply = dispatch(*Entry, *Params);
    Entry->Latency->record(monoMicros() - M0);
    if (Reply)
      return rpc::makeResponse(Id, Reply.take());
    int Code = Reply.error() == DeadlineDiag   ? rpc::RequestTimeout
               : Reply.error() == SubLimitDiag ? rpc::SubscriptionLimit
               : Reply.error() == CancelDiag   ? rpc::RequestCancelled
                                               : rpc::InvalidParams;
    return rpc::makeErrorResponse(Id, Code, Reply.error());
  }();
  ActiveCancel = CancelToken();
  // The publish sweep runs with the request's cancel token already
  // cleared: a cancelled request must not abort OTHER subscribers' view
  // computations mid-sweep.
  publishSubscriptions();
  CurrentNotify = nullptr;

  Latency.record(monoMicros() - T0);
  if (Response.isObject() && Response.asObject().contains("error"))
    Errors.add();
  return Response;
}

std::string PvpServer::handleWire(std::string_view Bytes) {
  telemetry::Registry &Reg = telemetry::Registry::global();
  static telemetry::Counter &BytesIn = Reg.counter("wire.bytesIn");
  static telemetry::Counter &BytesOut = Reg.counter("wire.bytesOut");
  static telemetry::Counter &FramesIn = Reg.counter("wire.framesIn");
  static telemetry::Counter &FrameErrors = Reg.counter("wire.frameErrors");
  trace::Span Span("pvp/handleWire", "wire");
  BytesIn.add(Bytes.size());

  Reader.feed(Bytes);
  std::string Out;
  for (;;) {
    auto Msg = Reader.poll();
    // Each corrupt frame costs one error response; the reader has already
    // resynchronized, so later frames on the same stream still decode.
    for (rpc::FrameError &E : Reader.takeErrors()) {
      FrameErrors.add();
      Out += rpc::frame(
          rpc::makeErrorResponse(0, E.Code, E.Message));
    }
    if (!Msg)
      break;
    FramesIn.add();
    Out += rpc::frame(handleMessage(*Msg));
    // Pushes triggered by this message (queued by the default sink) ride
    // the same byte stream, framed AFTER the response so request/response
    // pairing stays intact for simple clients.
    for (json::Value &N : takeNotifications())
      Out += rpc::frame(N);
  }
  BytesOut.add(Out.size());
  return Out;
}

} // namespace ev
