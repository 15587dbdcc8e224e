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

/// The exact diagnostic a handler returns when it bails on the deadline;
/// dispatch() maps it to the RequestTimeout error code.
constexpr const char *DeadlineDiag = "request deadline exceeded";

/// The trace span label of a request naming no known method.
constexpr const char *UnknownMethodLabel = "pvp/unknown";

/// The exact diagnostic doSubscribe returns at the subscription cap;
/// dispatch() maps it to the SubscriptionLimit error code.
constexpr const char *SubLimitDiag =
    "session is at its live-subscription cap";

/// Pinned handles for the sub.* counters (docs/OBSERVABILITY.md). The
/// bytes pair is what makes the compactness claim auditable in production:
/// sub.deltaBytes / sub.fullViewBytes is the fleet-wide delta ratio.
struct SubMetrics {
  telemetry::Counter &Subscribed;
  telemetry::Counter &Unsubscribed;
  telemetry::Counter &Acks;
  telemetry::Counter &Pushes;
  telemetry::Counter &Ended;
  telemetry::Counter &FullFallbacks;
  telemetry::Counter &DeltaBytes;
  telemetry::Counter &FullViewBytes;

  static SubMetrics &get() {
    telemetry::Registry &R = telemetry::Registry::global();
    static SubMetrics M{R.counter("sub.subscribed"),
                        R.counter("sub.unsubscribed"),
                        R.counter("sub.acks"),
                        R.counter("sub.pushes"),
                        R.counter("sub.ended"),
                        R.counter("sub.fullFallbacks"),
                        R.counter("sub.deltaBytes"),
                        R.counter("sub.fullViewBytes")};
    return M;
  }
};

/// Strict integer extraction: \returns false when \p Key is absent, not a
/// number, or a number that is not exactly representable as int64 (NaN,
/// infinity, fractional, or out of range). Every id-like parameter goes
/// through this so a hostile 1e300 or NaN becomes a clean InvalidParams
/// error instead of undefined behavior in the double-to-int cast.
bool intParam(const json::Object &Params, std::string_view Key,
              int64_t &Out) {
  const json::Value *V = Params.find(Key);
  return V && V->getInteger(Out);
}

} // namespace

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

const Profile *PvpServer::profile(int64_t Id) const {
  // The raw pointer stays valid while the store holds the profile, i.e.
  // until this session closes it (sequential embedders never race that).
  return profileHandle(Id).get();
}

std::shared_ptr<const Profile> PvpServer::profileHandle(int64_t Id) const {
  if (!Owned.count(Id))
    return nullptr;
  return Store->get(Id);
}

Result<std::shared_ptr<const Profile>>
PvpServer::lookup(const json::Object &Params, std::string_view Key) const {
  int64_t Id;
  if (!intParam(Params, Key, Id))
    return makeError("missing numeric '" + std::string(Key) + "' parameter");
  std::shared_ptr<const Profile> P = profileHandle(Id);
  if (!P)
    return makeError("no profile with id " + std::to_string(Id));
  return P;
}

namespace {

/// Resolves the metric parameter: numeric index, name string, or default 0.
Result<MetricId> metricParam(const Profile &P, const json::Object &Params) {
  const json::Value *MV = Params.find("metric");
  if (!MV) {
    if (P.metrics().empty())
      return makeError("profile has no metrics");
    return MetricId(0);
  }
  if (MV->isNumber()) {
    int64_t Id;
    if (!MV->getInteger(Id) || Id < 0 ||
        static_cast<size_t>(Id) >= P.metrics().size())
      return makeError("metric index out of range");
    return static_cast<MetricId>(Id);
  }
  if (MV->isString()) {
    MetricId Id = P.findMetric(MV->asString());
    if (Id == Profile::InvalidMetric)
      return makeError("unknown metric '" + MV->asString() + "'");
    return Id;
  }
  return makeError("'metric' must be an index or a name");
}

Result<NodeId> nodeParam(const Profile &P, const json::Object &Params) {
  int64_t Id;
  const json::Value *NV = Params.find("node");
  if (!NV || !NV->isNumber())
    return makeError("missing numeric 'node' parameter");
  if (!NV->getInteger(Id) || Id < 0 ||
      static_cast<size_t>(Id) >= P.nodeCount())
    return makeError("node id out of range");
  return static_cast<NodeId>(Id);
}

} // namespace

Result<std::string> PvpServer::payloadParam(const json::Object &Params,
                                            std::string *PathOut) const {
  std::string_view What = PathOut ? "profile" : "append";
  std::string Bytes;
  if (const json::Value *DataV = Params.find("data");
      DataV && DataV->isString()) {
    Bytes = DataV->asString();
  } else if (const json::Value *B64 = Params.find("dataBase64");
             B64 && B64->isString()) {
    if (B64->asString().size() / 4 * 3 > Limits.MaxOpenBytes)
      return makeError(std::string(What) +
                       " payload exceeds the open size limit");
    if (!base64Decode(B64->asString(), Bytes))
      return makeError("invalid base64 in 'dataBase64'");
  } else if (const json::Value *PathV = Params.find("path");
             PathOut && PathV && PathV->isString()) {
    // File loads retry with bounded exponential backoff: an editor saving
    // over the profile mid-read is transient, not fatal.
    Result<std::string> Read =
        readFileWithRetry(PathV->asString(), Limits.OpenRetry);
    if (!Read)
      return makeError(Read.error());
    Bytes = Read.take();
    *PathOut = PathV->asString();
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

Result<json::Value> PvpServer::doOpen(const json::Object &Params) {
  std::string Path;
  Result<std::string> Bytes = payloadParam(Params, &Path);
  if (!Bytes)
    return makeError(Bytes.error());
  std::string Name = Path.empty() ? "profile" : Path;
  if (const json::Value *NameV = Params.find("name"))
    Name = NameV->stringOr("profile");

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

Result<json::Value> PvpServer::doAppend(const json::Object &Params) {
  int64_t Id;
  if (!intParam(Params, "profile", Id))
    return makeError("missing numeric 'profile' parameter");
  if (!Owned.count(Id))
    return makeError("no profile with id " + std::to_string(Id));

  Result<std::string> Bytes = payloadParam(Params, nullptr);
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

Result<json::Value> PvpServer::doClose(const json::Object &Params) {
  int64_t Id;
  if (!intParam(Params, "profile", Id))
    return makeError("missing numeric 'profile' parameter");
  bool Removed = Owned.erase(Id) > 0;
  if (Removed)
    Store->drop(Id);
  Aggregates.erase(Id);
  json::Object Out;
  Out.set("closed", Removed);
  return json::Value(std::move(Out));
}

Result<json::Value> PvpServer::computeView(const MethodEntry &View,
                                           const json::Object &ViewParams) {
  // Going through dispatch() (not doFlame/doTreeTable directly) buys two
  // properties: the shared view cache serves repeated computations, and
  // the payload is bit-for-bit what an explicit re-query of the same
  // params would return — the identity the delta codec is tested against.
  json::Value Envelope = dispatch(View, ViewParams, /*Id=*/0);
  const json::Object &Obj = Envelope.asObject();
  if (const json::Value *Err = Obj.find("error")) {
    std::string Message = "view computation failed";
    if (Err->isObject())
      if (const json::Value *MV = Err->asObject().find("message"))
        Message = std::string(MV->stringOr(Message));
    return makeError(Message);
  }
  const json::Value *ResultV = Obj.find("result");
  if (!ResultV)
    return makeError("view computation produced no result");
  return *ResultV;
}

Result<json::Value> PvpServer::doSubscribe(const json::Object &Params) {
  if (Subs.size() >= Limits.MaxSubscriptionsPerSession)
    return makeError(SubLimitDiag);
  int64_t Id;
  if (!intParam(Params, "profile", Id))
    return makeError("missing numeric 'profile' parameter");
  if (!Owned.count(Id))
    return makeError("no profile with id " + std::to_string(Id));

  const json::Value *ViewV = Params.find("view");
  if (!ViewV || !ViewV->isString())
    return makeError("missing 'view' parameter (flame or treeTable)");
  const MethodEntry *ViewMethod;
  std::string RowsKey;
  if (ViewV->asString() == "flame") {
    ViewMethod = findMethod("pvp/flame");
    RowsKey = "rects";
  } else if (ViewV->asString() == "treeTable") {
    ViewMethod = findMethod("pvp/treeTable");
    RowsKey = "rows";
  } else {
    return makeError("unknown view '" + ViewV->asString() +
                     "' (flame, treeTable)");
  }

  json::Object ViewParams;
  ViewParams.set("profile", Id);
  if (const json::Value *PV = Params.find("params")) {
    if (!PV->isObject())
      return makeError("'params' must be an object");
    for (const auto &[Key, V] : PV->asObject())
      if (Key != "profile")
        ViewParams.set(Key, V);
  }

  uint64_t Gen = Store->generationOf(Id);
  Result<json::Value> View = computeView(*ViewMethod, ViewParams);
  if (!View)
    return makeError(View.error());

  int64_t SubId = NextSubId++;
  Subscription &S = Subs[SubId];
  S.ProfileId = Id;
  S.View = ViewMethod;
  S.RowsKey = std::move(RowsKey);
  S.ViewParams = std::move(ViewParams);
  S.AckedGen = Gen;
  S.AckedView = *View;
  S.PushedGen = Gen;
  S.Sink = CurrentNotify;
  SubMetrics::get().Subscribed.add();

  json::Object Out;
  Out.set("subscription", SubId);
  Out.set("profile", Id);
  Out.set("generation", Gen);
  Out.set("view", *View);
  return json::Value(std::move(Out));
}

Result<json::Value> PvpServer::doAck(const json::Object &Params) {
  int64_t SubId;
  if (!intParam(Params, "subscription", SubId))
    return makeError("missing numeric 'subscription' parameter");
  auto It = Subs.find(SubId);
  if (It == Subs.end())
    return makeError("no subscription with id " + std::to_string(SubId));
  int64_t Gen;
  if (!intParam(Params, "generation", Gen) || Gen < 0)
    return makeError("missing numeric 'generation' parameter");

  Subscription &S = It->second;
  bool Acked = false;
  if (static_cast<uint64_t>(Gen) == S.AckedGen) {
    // Replay (reconnect, duplicate ack): already the delta base.
    Acked = true;
  } else if (static_cast<uint64_t>(Gen) == S.PushedGen &&
             !S.PushedView.isNull()) {
    // Promote the pushed view to the delta base: from here deltas diff
    // against state the client has confirmed applying.
    S.AckedView = std::move(S.PushedView);
    S.PushedView = json::Value();
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

Result<json::Value> PvpServer::doUnsubscribe(const json::Object &Params) {
  int64_t SubId;
  if (!intParam(Params, "subscription", SubId))
    return makeError("missing numeric 'subscription' parameter");
  bool Removed = Subs.erase(SubId) > 0;
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
    if (!Owned.count(S.ProfileId) || !Store->get(S.ProfileId)) {
      endSubscription(SubId, S, "profile closed");
      Ended.push_back(SubId);
      continue;
    }
    uint64_t Gen = Store->generationOf(S.ProfileId);
    // Nothing new past what the client holds (AckedGen) or was already
    // sent (PushedGen): no push. An unacked push followed by ANOTHER bump
    // re-enters here and diffs AckedView -> newest — pushes are
    // idempotent against the acked base, never chained on each other.
    if (Gen == S.AckedGen || Gen == S.PushedGen)
      continue;
    Result<json::Value> View = computeView(*S.View, S.ViewParams);
    if (!View) {
      endSubscription(SubId, S, View.error());
      Ended.push_back(SubId);
      continue;
    }
    ViewDeltaStats DS;
    std::string Delta =
        encodeViewDelta(S.AckedView, *View, S.RowsKey, S.AckedGen, Gen, &DS);
    M.Pushes.add();
    M.DeltaBytes.add(Delta.size());
    M.FullViewBytes.add(View->dump().size());
    if (DS.FullFallback)
      M.FullFallbacks.add();

    json::Object P;
    P.set("subscription", SubId);
    P.set("profile", S.ProfileId);
    P.set("fromGeneration", S.AckedGen);
    P.set("toGeneration", Gen);
    P.set("deltaBase64", base64Encode(Delta));
    if (S.Sink)
      S.Sink(rpc::makeNotification("pvp/viewDelta", json::Value(std::move(P))));
    S.PushedGen = Gen;
    S.PushedView = std::move(*View);
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

Result<json::Value> PvpServer::doFlame(const json::Object &Params) {
  Result<std::shared_ptr<const Profile>> P = lookup(Params);
  if (!P)
    return makeError(P.error());

  std::string Shape = "top-down";
  if (const json::Value *SV = Params.find("shape"); SV) {
    if (!SV->isString())
      return makeError("'shape' must be a string");
    Shape = SV->asString();
  }

  // Shape transforms produce a temporary tree; the geometry refers to it,
  // so node ids in the reply are resolved back to names eagerly.
  std::optional<Profile> View = flameShape(**P, Shape, ActiveCancel);
  if (!View)
    return makeError("unknown shape '" + Shape +
                     "' (top-down, bottom-up, flat)");

  Result<MetricId> Metric = metricParam(*View, Params);
  if (!Metric)
    return makeError(Metric.error());

  size_t MaxRects = 4096;
  if (const json::Value *MR = Params.find("maxRects"); MR) {
    int64_t Requested;
    if (!MR->getInteger(Requested) || Requested < 0)
      return makeError("'maxRects' must be a non-negative integer");
    MaxRects = static_cast<size_t>(Requested);
  }
  // Oversized budgets degrade to the server ceiling rather than erroring:
  // the reply is marked truncated and stays renderable.
  MaxRects = std::min(MaxRects, Limits.MaxFlameRects);

  FlameGraph Graph(*View, *Metric);
  json::Object Out;
  Out.set("total", Graph.totalValue());
  Out.set("culled", Graph.culledCount());
  Out.set("depth", Graph.depth());
  json::Array Rects;
  for (const FlameRect &R : Graph.rects()) {
    if (Rects.size() >= MaxRects)
      break;
    if ((Rects.size() & 1023) == 0) {
      ActiveCancel.checkpoint();
      if (deadlineExpired())
        return makeError(DeadlineDiag);
    }
    json::Object RO;
    RO.set("node", R.Node);
    RO.set("depth", R.Depth);
    RO.set("x", R.X);
    RO.set("width", R.Width);
    RO.set("value", R.Value);
    RO.set("name", std::string(View->nameOf(R.Node)));
    RO.set("color", toHexColor(R.Color));
    Rects.push_back(std::move(RO));
  }
  Out.set("truncated", Graph.rects().size() > Rects.size());
  Out.set("droppedRects", Graph.rects().size() - Rects.size());
  Out.set("rects", std::move(Rects));
  return json::Value(std::move(Out));
}

Result<json::Value> PvpServer::doTreeTable(const json::Object &Params) {
  Result<std::shared_ptr<const Profile>> P = lookup(Params);
  if (!P)
    return makeError(P.error());
  TreeTable Table(**P);
  if (const json::Value *ExpandV = Params.find("expand"); ExpandV) {
    if (!ExpandV->isArray())
      return makeError("'expand' must be an array of node ids");
    for (const json::Value &NV : ExpandV->asArray()) {
      int64_t Node;
      if (NV.getInteger(Node) && Node >= 0 &&
          static_cast<size_t>(Node) < (*P)->nodeCount())
        Table.expand(static_cast<NodeId>(Node));
    }
  } else if (!(*P)->metrics().empty()) {
    Table.expandHotPath(0);
  }
  json::Object Out;
  json::Array Rows;
  size_t Total = 0;
  for (const TreeTableRow &Row : Table.rows()) {
    ++Total;
    // Tables beyond the ceiling truncate rather than error; the editor
    // still gets a renderable prefix plus the truncation marker.
    if (Rows.size() >= Limits.MaxTreeTableRows)
      continue;
    if ((Rows.size() & 1023) == 0) {
      ActiveCancel.checkpoint();
      if (deadlineExpired())
        return makeError(DeadlineDiag);
    }
    json::Object RO;
    RO.set("node", Row.Node);
    RO.set("depth", Row.Depth);
    RO.set("name", std::string((*P)->nameOf(Row.Node)));
    RO.set("expandable", Row.Expandable);
    RO.set("expanded", Row.Expanded);
    Rows.push_back(std::move(RO));
  }
  Out.set("truncated", Total > Rows.size());
  Out.set("droppedRows", Total - Rows.size());
  Out.set("rows", std::move(Rows));
  // Subscriptions pass includeText:false — the rendered text is O(table)
  // and rewrites wholesale on every generation, which would dominate the
  // delta; the row objects alone reconstruct the table.
  bool IncludeText = true;
  if (const json::Value *IT = Params.find("includeText"); IT && IT->isBool())
    IncludeText = IT->asBool();
  if (IncludeText)
    Out.set("text", Table.renderText());
  return json::Value(std::move(Out));
}

Result<json::Value> PvpServer::doCodeLink(const json::Object &Params) {
  Result<std::shared_ptr<const Profile>> P = lookup(Params);
  if (!P)
    return makeError(P.error());
  Result<NodeId> Node = nodeParam(**P, Params);
  if (!Node)
    return makeError(Node.error());
  const Frame &F = (*P)->frameOf(*Node);
  json::Object Out;
  Out.set("available", F.Loc.hasSourceMapping());
  Out.set("file", std::string((*P)->text(F.Loc.File)));
  Out.set("line", F.Loc.Line);
  Out.set("module", std::string((*P)->text(F.Loc.Module)));
  return json::Value(std::move(Out));
}

Result<json::Value> PvpServer::doHover(const json::Object &Params) {
  Result<std::shared_ptr<const Profile>> P = lookup(Params);
  if (!P)
    return makeError(P.error());
  Result<NodeId> Node = nodeParam(**P, Params);
  if (!Node)
    return makeError(Node.error());

  json::Object Out;
  Out.set("contents", hoverText(**P, *Node));
  return json::Value(std::move(Out));
}

Result<json::Value> PvpServer::doCodeLens(const json::Object &Params) {
  Result<std::shared_ptr<const Profile>> P = lookup(Params);
  if (!P)
    return makeError(P.error());
  const json::Value *FileV = Params.find("file");
  if (!FileV || !FileV->isString())
    return makeError("missing 'file' parameter");
  const std::string &File = FileV->asString();

  json::Array Lenses;
  for (const LineAnnotation &A : annotateFile(**P, File)) {
    json::Object LO;
    LO.set("line", A.Line);
    LO.set("text", A.LensText);
    LO.set("hotness", A.Hotness);
    json::Array Contexts;
    for (NodeId Ctx : A.Contexts)
      Contexts.push_back(Ctx);
    LO.set("contexts", std::move(Contexts));
    Lenses.push_back(std::move(LO));
  }
  json::Object Out;
  Out.set("lenses", std::move(Lenses));
  return json::Value(std::move(Out));
}

Result<json::Value> PvpServer::doSummary(const json::Object &Params) {
  Result<std::shared_ptr<const Profile>> P = lookup(Params);
  if (!P)
    return makeError(P.error());
  json::Object Out;
  Out.set("text", renderSummaryText(**P));
  return json::Value(std::move(Out));
}

Result<json::Value> PvpServer::doSearch(const json::Object &Params) {
  Result<std::shared_ptr<const Profile>> P = lookup(Params);
  if (!P)
    return makeError(P.error());
  const json::Value *PatV = Params.find("pattern");
  if (!PatV || !PatV->isString())
    return makeError("missing 'pattern' parameter");
  const std::string &Pattern = PatV->asString();

  json::Array Matches;
  for (NodeId Id = 0; Id < (*P)->nodeCount(); ++Id) {
    if ((Id & 4095) == 0) {
      ActiveCancel.checkpoint();
      if (deadlineExpired())
        return makeError(DeadlineDiag);
    }
    if ((*P)->nameOf(Id).find(Pattern) != std::string_view::npos)
      Matches.push_back(Id);
  }
  json::Object Out;
  Out.set("count", Matches.size());
  Out.set("matches", std::move(Matches));
  return json::Value(std::move(Out));
}

Result<json::Value> PvpServer::doAggregate(const json::Object &Params) {
  const json::Value *IdsV = Params.find("profiles");
  if (!IdsV || !IdsV->isArray() || IdsV->asArray().empty())
    return makeError("pvp/aggregate needs a non-empty 'profiles' array");
  std::vector<int64_t> Ids;
  for (const json::Value &IdV : IdsV->asArray()) {
    int64_t InputId;
    if (!IdV.getInteger(InputId))
      return makeError("'profiles' must contain numeric ids");
    if (!Owned.count(InputId))
      return makeError("no profile with id " + std::to_string(InputId));
    Ids.push_back(InputId);
  }
  AggregateOptions Opt;
  Opt.WithMin = Opt.WithMax = Opt.WithMean = true;

  // Held keeps every input alive for the whole aggregation even if
  // another session closes one mid-request.
  std::vector<std::shared_ptr<const Profile>> Held;
  std::vector<const Profile *> Inputs;
  for (int64_t InputId : Ids) {
    std::shared_ptr<const Profile> P = profileHandle(InputId);
    if (!P)
      return makeError("no profile with id " + std::to_string(InputId));
    Inputs.push_back(P.get());
    Held.push_back(std::move(P));
  }
  AggregatedProfile Agg = aggregate(Inputs, Opt, ActiveCancel);

  // The registered profile shares the merged block with the histogram
  // state kept in Aggregates.
  int64_t Id = addProfile(Agg.merged());
  json::Object Out;
  Out.set("profile", Id);
  Out.set("nodes", Agg.merged().nodeCount());
  Out.set("inputs", Ids.size());
  Aggregates.emplace(Id, std::move(Agg));
  return json::Value(std::move(Out));
}

Result<json::Value> PvpServer::doHistogram(const json::Object &Params) {
  int64_t AggId;
  if (!intParam(Params, "aggregate", AggId))
    return makeError("missing numeric 'aggregate' parameter");
  auto It = Aggregates.find(AggId);
  if (It == Aggregates.end())
    return makeError("no aggregate with id " + std::to_string(AggId));
  const AggregatedProfile &Agg = It->second;

  Result<NodeId> Node = nodeParam(Agg.merged(), Params);
  if (!Node)
    return makeError(Node.error());
  // The merged profile lists the input metrics first, so an index or name
  // below inputMetricCount() is an input metric.
  MetricId Metric = 0;
  if (Params.find("metric")) {
    Result<MetricId> M = metricParam(Agg.merged(), Params);
    if (!M)
      return makeError(M.error());
    Metric = *M;
  }
  if (Metric >= Agg.inputMetricCount())
    return makeError("metric index out of aggregate input range");

  json::Array Series;
  for (double V : Agg.perProfileInclusive(*Node, Metric))
    Series.push_back(V);
  json::Object Out;
  Out.set("series", std::move(Series));
  return json::Value(std::move(Out));
}

Result<json::Value> PvpServer::doDiff(const json::Object &Params) {
  Result<std::shared_ptr<const Profile>> Base = lookup(Params, "base");
  if (!Base)
    return makeError(Base.error());
  Result<std::shared_ptr<const Profile>> Test = lookup(Params, "test");
  if (!Test)
    return makeError(Test.error());
  Result<MetricId> Metric = metricParam(**Base, Params);
  if (!Metric)
    return makeError(Metric.error());

  DiffResult Diff =
      diffProfiles(**Base, **Test, *Metric, /*RelativeEpsilon=*/1e-9,
                   ActiveCancel);
  size_t Added = 0, Deleted = 0, Increased = 0, Decreased = 0;
  for (DiffTag Tag : Diff.Tags) {
    switch (Tag) {
    case DiffTag::Added:
      ++Added;
      break;
    case DiffTag::Deleted:
      ++Deleted;
      break;
    case DiffTag::Increased:
      ++Increased;
      break;
    case DiffTag::Decreased:
      ++Decreased;
      break;
    case DiffTag::Common:
      break;
    }
  }
  json::Object Out;
  Out.set("profile", addProfile(std::move(Diff.Merged)));
  Out.set("added", Added);
  Out.set("deleted", Deleted);
  Out.set("increased", Increased);
  Out.set("decreased", Decreased);
  return json::Value(std::move(Out));
}

Result<json::Value> PvpServer::doQuery(const json::Object &Params) {
  Result<std::shared_ptr<const Profile>> P = lookup(Params);
  if (!P)
    return makeError(P.error());
  const json::Value *ProgV = Params.find("program");
  if (!ProgV || !ProgV->isString())
    return makeError("missing 'program' parameter");

  const std::string &Source = ProgV->asString();
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
  Result<evql::QueryOutput> Out = evql::runCompiled(**P, *Compiled);
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

Result<json::Value> PvpServer::doTransform(const json::Object &Params) {
  Result<std::shared_ptr<const Profile>> P = lookup(Params);
  if (!P)
    return makeError(P.error());
  const json::Value *ShapeV = Params.find("shape");
  if (!ShapeV || !ShapeV->isString())
    return makeError("missing 'shape' parameter");
  const std::string &Shape = ShapeV->asString();

  // A materialized top-down tree is a fresh copy (flameShape() would
  // share the block); the other view shapes are the flame ones.
  std::optional<Profile> Shaped;
  if (Shape == "top-down")
    Shaped = topDownTree(**P, ActiveCancel);
  else if (Shape == "collapse-recursion")
    Shaped = collapseRecursion(**P, ActiveCancel);
  else
    Shaped = flameShape(**P, Shape, ActiveCancel);
  if (!Shaped)
    return makeError("unknown shape '" + Shape + "'");

  json::Object Out;
  Out.set("nodes", Shaped->nodeCount());
  Out.set("profile", addProfile(std::move(*Shaped)));
  return json::Value(std::move(Out));
}

Result<json::Value> PvpServer::doPrune(const json::Object &Params) {
  Result<std::shared_ptr<const Profile>> P = lookup(Params);
  if (!P)
    return makeError(P.error());
  Result<MetricId> Metric = metricParam(**P, Params);
  if (!Metric)
    return makeError(Metric.error());
  double MinFraction = 0.001;
  if (const json::Value *MF = Params.find("minFraction"); MF) {
    if (!MF->isNumber())
      return makeError("'minFraction' must be a number");
    MinFraction = MF->asNumber();
  }
  if (MinFraction < 0.0 || MinFraction > 1.0)
    return makeError("'minFraction' must be in [0, 1]");
  Profile Pruned = pruneByFraction(**P, *Metric, MinFraction);
  json::Object Out;
  Out.set("nodes", Pruned.nodeCount());
  Out.set("removed", (*P)->nodeCount() - Pruned.nodeCount());
  Out.set("profile", addProfile(std::move(Pruned)));
  return json::Value(std::move(Out));
}

Result<json::Value> PvpServer::doExport(const json::Object &Params) {
  Result<std::shared_ptr<const Profile>> P = lookup(Params);
  if (!P)
    return makeError(P.error());
  const json::Value *FmtV = Params.find("format");
  if (!FmtV || !FmtV->isString())
    return makeError("missing 'format' parameter");
  const std::string &Fmt = FmtV->asString();
  // An absent metric defaults to 0 even when the profile has none: the
  // metric-free formats (evprof, pprof) never read it.
  MetricId Metric = 0;
  if (Params.find("metric")) {
    Result<MetricId> M = metricParam(**P, Params);
    if (!M)
      return makeError(M.error());
    Metric = *M;
  }

  std::optional<std::string> Bytes = convert::exportProfile(**P, Fmt, Metric);
  if (!Bytes)
    return makeError("unknown export format '" + Fmt + "'");

  json::Object Out;
  Out.set("bytes", Bytes->size());
  Out.set("dataBase64", base64Encode(*Bytes));
  return json::Value(std::move(Out));
}

Result<json::Value> PvpServer::doButterfly(const json::Object &Params) {
  Result<std::shared_ptr<const Profile>> P = lookup(Params);
  if (!P)
    return makeError(P.error());
  const json::Value *FnV = Params.find("function");
  if (!FnV || !FnV->isString())
    return makeError("missing 'function' parameter");
  Result<MetricId> Metric = metricParam(**P, Params);
  if (!Metric)
    return makeError(Metric.error());

  ButterflyResult B = butterfly(**P, FnV->asString(), *Metric);
  if (B.Occurrences == 0)
    return makeError("function '" + FnV->asString() +
                     "' not found in the profile");
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

Result<json::Value> PvpServer::doCorrelated(const json::Object &Params) {
  Result<std::shared_ptr<const Profile>> P = lookup(Params);
  if (!P)
    return makeError(P.error());
  const json::Value *KindV = Params.find("kind");
  if (!KindV || !KindV->isString())
    return makeError("missing 'kind' parameter");

  CorrelatedView View(**P, KindV->asString());
  if (View.roleCount() == 0)
    return makeError("no context groups of kind '" + KindV->asString() +
                     "'");
  if (const json::Value *SelectV = Params.find("select");
      SelectV && SelectV->isArray()) {
    size_t Role = 0;
    for (const json::Value &NV : SelectV->asArray()) {
      int64_t Node;
      if (!NV.getInteger(Node) || Node < 0)
        return makeError("'select' must contain node ids");
      if (!View.select(Role, static_cast<NodeId>(Node)))
        return makeError("node " + std::to_string(Node) +
                         " is not in pane " + std::to_string(Role));
      ++Role;
    }
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
      CO.set("name", std::string((*P)->nameOf(Node)));
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

/// Parses 'maxDiagnostics' (which can only lower \p Analysis's cap),
/// 'minSeverity' and 'disable'.
Result<DiagnosticFilter> diagnosticFilterParam(const json::Object &Params,
                                               const AnalysisLimits &Analysis) {
  DiagnosticFilter F;
  F.Analysis = Analysis;
  if (const json::Value *MV = Params.find("maxDiagnostics"); MV) {
    int64_t MaxDiags;
    if (MV->getInteger(MaxDiags) && MaxDiags > 0)
      F.Analysis.MaxDiagnostics = std::min<size_t>(
          F.Analysis.MaxDiagnostics, static_cast<size_t>(MaxDiags));
  }
  if (const json::Value *SV = Params.find("minSeverity")) {
    if (!SV->isString() ||
        !parseSeverity(SV->asString(), F.Rules.MinSeverity))
      return makeError(
          "invalid 'minSeverity' (expected note, info, warning, or error)");
  }
  if (const json::Value *DV = Params.find("disable")) {
    if (!DV->isArray())
      return makeError("'disable' must be an array of rule ids or names");
    for (const json::Value &Entry : DV->asArray()) {
      // Names are validated against the UNIFIED registry, matching the
      // evtool subcommands: disabling another family's rule is accepted
      // (and inert), only typos are errors.
      if (!Entry.isString() || !findRule(Entry.asString()))
        return makeError("unknown rule in 'disable'");
      F.Rules.Disabled.push_back(Entry.asString());
    }
  }
  return F;
}

/// The reply shared by pvp/diagnostics and pvp/regressions: the findings
/// \p Filter keeps, under \p Key, and their counts. Serialization stops
/// once \p Expired reports the request deadline, degrading to a truncated
/// (but valid) reply rather than discarding the findings.
json::Object diagnosticsReply(const DiagnosticSet &Diags,
                              const DiagnosticFilter &Filter,
                              std::string_view Key,
                              const std::function<bool()> &Expired) {
  size_t Errors = 0, Warnings = 0, Kept = 0;
  for (const Diagnostic &D : Diags.all()) {
    if (!Filter.Rules.keeps(D))
      continue;
    ++Kept;
    if (D.Sev == Severity::Error)
      ++Errors;
    else if (D.Sev == Severity::Warning)
      ++Warnings;
  }

  json::Array Arr;
  bool DeadlineHit = false;
  for (const Diagnostic &D : Diags.all()) {
    if (!Filter.Rules.keeps(D))
      continue;
    if ((Arr.size() & 255) == 0 && Expired()) {
      DeadlineHit = true;
      break;
    }
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
  Reply.set("errors", Errors);
  Reply.set("warnings", Warnings);
  Reply.set("dropped", Diags.dropped() + (Kept - Shown));
  Reply.set("truncated", Diags.truncated() || DeadlineHit);
  if (DeadlineHit)
    Reply.set("deadlineExpired", true);
  return Reply;
}

} // namespace

Result<json::Value> PvpServer::doDiagnostics(const json::Object &Params) {
  const json::Value *ProgV = Params.find("program");
  const json::Value *ProfV = Params.find("profile");
  if (!ProgV && !ProfV)
    return makeError("pvp/diagnostics needs 'program' and/or 'profile'");
  if (ProgV && !ProgV->isString())
    return makeError("'program' must be a string");

  Result<DiagnosticFilter> Filter =
      diagnosticFilterParam(Params, Limits.Analysis);
  if (!Filter)
    return makeError(Filter.error());

  std::shared_ptr<const Profile> Held;
  const Profile *P = nullptr;
  if (ProfV) {
    Result<std::shared_ptr<const Profile>> L = lookup(Params);
    if (!L)
      return makeError(L.error());
    Held = *L;
    P = Held.get();
  }

  // Batch both passes into one diagnostic set: program findings first
  // (they carry source spans), then profile findings.
  DiagnosticSet Diags(Filter->Analysis.MaxDiagnostics);
  if (ProgV) {
    SemaOptions SOpts;
    SOpts.MetricSource = P;
    SOpts.Limits = Filter->Analysis;
    SemaChecker(SOpts).checkSource(ProgV->asString(), Diags);
  }
  if (P) {
    LintOptions LOpts;
    LOpts.Limits = Filter->Analysis;
    LOpts.Filter = Filter->Rules;
    ProfileLinter(LOpts).lintProfile(*P, Diags);
  }
  Diags.sortBySource();
  return json::Value(diagnosticsReply(Diags, *Filter, "diagnostics",
                                      [this] { return deadlineExpired(); }));
}

namespace {

/// Parses a cohort parameter: a single profile id or a non-empty array of
/// ids.
Result<std::vector<int64_t>> cohortParam(const json::Object &Params,
                                         std::string_view Key) {
  const json::Value *V = Params.find(Key);
  if (!V)
    return makeError("missing '" + std::string(Key) +
                     "' parameter (profile id or array of ids)");
  std::vector<int64_t> Out;
  if (V->isArray()) {
    for (const json::Value &Entry : V->asArray()) {
      int64_t Id;
      if (!Entry.getInteger(Id))
        return makeError("'" + std::string(Key) +
                         "' must hold integer profile ids");
      Out.push_back(Id);
    }
  } else {
    int64_t Id;
    if (!V->getInteger(Id))
      return makeError("'" + std::string(Key) +
                       "' must be a profile id or an array of ids");
    Out.push_back(Id);
  }
  if (Out.empty())
    return makeError("'" + std::string(Key) + "' cohort is empty");
  return Out;
}

/// Optional non-negative number parameter; leaves \p Out untouched when
/// absent. \returns false on a present-but-invalid value.
bool ratioParam(const json::Object &Params, std::string_view Key,
                double &Out) {
  const json::Value *V = Params.find(Key);
  if (!V)
    return true;
  if (!V->isNumber() || !(V->asNumber() >= 0.0))
    return false;
  Out = V->asNumber();
  return true;
}

} // namespace

Result<json::Value> PvpServer::doRegressions(const json::Object &Params) {
  Result<std::vector<int64_t>> BaseIds = cohortParam(Params, "base");
  if (!BaseIds)
    return makeError(BaseIds.error());
  Result<std::vector<int64_t>> TestIds = cohortParam(Params, "test");
  if (!TestIds)
    return makeError(TestIds.error());

  Result<DiagnosticFilter> Filter =
      diagnosticFilterParam(Params, Limits.Analysis);
  if (!Filter)
    return makeError(Filter.error());
  RegressionOptions Opts;
  Opts.Limits = Filter->Analysis;
  Opts.Filter = Filter->Rules;
  if (!ratioParam(Params, "relativeMin", Opts.RelativeMin))
    return makeError("'relativeMin' must be a non-negative number");
  if (!ratioParam(Params, "absoluteMin", Opts.AbsoluteMin))
    return makeError("'absoluteMin' must be a non-negative number");
  if (!ratioParam(Params, "sigma", Opts.SigmaGate))
    return makeError("'sigma' must be a non-negative number");

  FleetAggregateOptions AggOpts;
  if (const json::Value *BV = Params.find("nodeBudget"); BV) {
    int64_t Budget;
    if (!BV->getInteger(Budget) || Budget < 0)
      return makeError("'nodeBudget' must be a non-negative integer");
    AggOpts.NodeBudget = static_cast<size_t>(Budget);
  }

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
  if (Result<bool> R = Fill(*BaseIds, Base); !R)
    return makeError(R.error());
  if (Result<bool> R = Fill(*TestIds, Test); !R)
    return makeError(R.error());

  // The analyzer applies the same filter while emitting, so the reply's
  // pass over it keeps every finding.
  DiagnosticSet Diags(Filter->Analysis.MaxDiagnostics);
  RegressionAnalyzer(Opts).analyze(Base, Test, Diags, ActiveCancel);
  json::Object Reply = diagnosticsReply(Diags, *Filter, "findings",
                                        [this] { return deadlineExpired(); });
  Reply.set("baseProfiles", Base.profileCount());
  Reply.set("testProfiles", Test.profileCount());
  return json::Value(std::move(Reply));
}

Result<json::Value> PvpServer::doStats(const json::Object &) {
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
  // which layer is holding bytes. cacheBytes is the view cache's reply
  // payload; storeResidentBytes (the resident profile blocks, strings
  // included) is what counts against storeBudgetBytes.
  Out.set("cacheBytes", Cache->approxBytes());
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

Result<json::Value> PvpServer::doMetrics(const json::Object &Params) {
  telemetry::SnapshotOptions Opts;
  if (const json::Value *T = Params.find("includeTimings"); T && T->isBool())
    Opts.IncludeTimings = T->asBool();
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

  Result<json::Value> Stats = doStats(Params);
  if (!Stats)
    return Stats;
  Out.set("stats", Stats.take());
  return json::Value(std::move(Out));
}

Result<json::Value> PvpServer::doSelfProfile(const json::Object &Params) {
  std::vector<trace::SpanRecord> Records = trace::collectSpans();
  if (Records.empty())
    return makeError("no spans retained (tracing disabled or nothing ran)");

  std::string Name = "easyview-self";
  if (const json::Value *NV = Params.find("name"); NV && NV->isString())
    Name = NV->asString();
  Profile Self = trace::toProfile(Name);
  Result<bool> Ok = Self.verify();
  if (!Ok)
    return makeError("self-profile failed verification: " + Ok.error());

  std::string Bytes = writeEvProf(Self);
  size_t Nodes = Self.nodeCount();
  // Register the profile in this session so the editor can immediately ask
  // for pvp/flame of the server's own execution — the paper's dogfooding
  // move: the profiler profiled with its own representation.
  int64_t Id = addProfile(std::move(Self));

  if (const json::Value *RV = Params.find("reset"); RV && RV->boolOr(false))
    trace::clear();

  json::Object Out;
  Out.set("profile", Id);
  Out.set("nodes", static_cast<uint64_t>(Nodes));
  Out.set("spans", static_cast<uint64_t>(Records.size()));
  Out.set("bytes", static_cast<uint64_t>(Bytes.size()));
  Out.set("dataBase64", base64Encode(Bytes));
  return json::Value(std::move(Out));
}

namespace {

/// The profiles a successful reply is a pure function of. Naming them
/// makes a method memoized in the view cache; None is never cached.
enum class Deps : uint8_t {
  None,
  Profile, ///< The 'profile' param.
  Cohorts, ///< Every id of the 'base' and 'test' cohorts.
};

} // namespace

/// One row of the PVP method table: the handler, its pinned latency
/// histogram, and the policy dispatch() applies around it. docs/PVP.md
/// lists every method's policy.
struct PvpServer::MethodEntry {
  std::string_view Name; ///< Views a string literal (a span label).
  Result<json::Value> (PvpServer::*Run)(const json::Object &);
  Deps DependsOn = Deps::None;
  /// Success bumps the 'profile' param's generation, retiring every
  /// cached view of it and waking its subscriptions.
  bool Retires = false;
  telemetry::Histogram *Latency = nullptr;
};

namespace {

/// The profile ids \p On names in \p Params, or nullopt when they are
/// missing or malformed (the handler reports that).
std::optional<std::vector<int64_t>>
referencedProfiles(Deps On, const json::Object &Params) {
  std::vector<int64_t> Ids;
  if (On == Deps::Profile) {
    int64_t Id;
    if (!intParam(Params, "profile", Id))
      return std::nullopt;
    Ids.push_back(Id);
  } else if (On == Deps::Cohorts) {
    for (std::string_view Key : {"base", "test"}) {
      Result<std::vector<int64_t>> Cohort = cohortParam(Params, Key);
      if (!Cohort)
        return std::nullopt;
      Ids.insert(Ids.end(), Cohort->begin(), Cohort->end());
    }
  }
  return Ids;
}

} // namespace

const std::vector<PvpServer::MethodEntry> &PvpServer::methods() {
  // Built once: a client naming unknown methods registers nothing. Each
  // method name is declared here and nowhere else.
  static const std::vector<MethodEntry> Table = [] {
    using S = PvpServer;
    std::vector<MethodEntry> T = {
        {"pvp/open", &S::doOpen},
        {"pvp/append", &S::doAppend},
        {"pvp/subscribe", &S::doSubscribe},
        {"pvp/ack", &S::doAck},
        {"pvp/unsubscribe", &S::doUnsubscribe},
        {"pvp/close", &S::doClose},
        {"pvp/flame", &S::doFlame, Deps::Profile},
        {"pvp/treeTable", &S::doTreeTable, Deps::Profile},
        {"pvp/codeLink", &S::doCodeLink},
        {"pvp/hover", &S::doHover},
        {"pvp/codeLens", &S::doCodeLens},
        {"pvp/summary", &S::doSummary, Deps::Profile},
        {"pvp/search", &S::doSearch},
        {"pvp/aggregate", &S::doAggregate},
        {"pvp/histogram", &S::doHistogram},
        {"pvp/diff", &S::doDiff},
        {"pvp/query", &S::doQuery, Deps::None, /*Retires=*/true},
        {"pvp/transform", &S::doTransform, Deps::None, /*Retires=*/true},
        {"pvp/prune", &S::doPrune, Deps::None, /*Retires=*/true},
        {"pvp/export", &S::doExport},
        {"pvp/butterfly", &S::doButterfly},
        {"pvp/correlated", &S::doCorrelated},
        {"pvp/diagnostics", &S::doDiagnostics},
        {"pvp/regressions", &S::doRegressions, Deps::Cohorts},
        {"pvp/stats", &S::doStats},
        {"pvp/metrics", &S::doMetrics},
        {"pvp/selfProfile", &S::doSelfProfile},
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

std::vector<std::string_view> PvpServer::methodNames() {
  std::vector<std::string_view> Names;
  for (const MethodEntry &E : methods())
    Names.push_back(E.Name);
  return Names;
}

json::Value PvpServer::dispatch(const MethodEntry &Method,
                                const json::Object &Params, int64_t Id) {
  // Memoized fast path: a method that declares the profiles its reply
  // depends on is served straight from the LRU. The key folds in each
  // profile's generation, the cache's one staleness rule: a view of an old
  // generation is never looked up again. Ownership gates the cache:
  // sessions share one LRU keyed by globally unique profile ids, so
  // without the check a session could be served a view of a profile it
  // never opened.
  std::string CacheKey;
  std::vector<int64_t> CacheProfiles;
  if (Method.DependsOn != Deps::None && Cache->capacity() != 0) {
    std::optional<std::vector<int64_t>> Ids =
        referencedProfiles(Method.DependsOn, Params);
    if (Ids && std::all_of(Ids->begin(), Ids->end(),
                           [&](int64_t P) { return Owned.count(P) > 0; })) {
      CacheKey = std::string(Method.Name) + '|';
      for (int64_t P : *Ids)
        CacheKey += std::to_string(P) + ':' +
                    std::to_string(Store->generationOf(P)) + ',';
      CacheKey += '|' + json::Value(Params).dump();
      if (std::optional<json::Value> Hit = Cache->lookup(CacheKey))
        return rpc::makeResponse(Id, std::move(*Hit));
      CacheProfiles = std::move(*Ids);
    }
  }
  // The 'profile' this session owned when the request arrived. A retiring
  // method bumps only such a profile: closing another session's id changes
  // nothing of it. Whatever ends its generation during the request (the
  // bump below, a close's drop, an append's own bump) retires its views.
  int64_t Arrived = 0;
  bool OwnedOnArrival =
      intParam(Params, "profile", Arrived) && Owned.count(Arrived);
  uint64_t GenBefore = OwnedOnArrival ? Store->generationOf(Arrived) : 0;

  // Arm the soft per-request deadline; long-running handler loops check
  // it periodically and bail with DeadlineDiag.
  RequestDeadline =
      Limits.RequestDeadlineMs == 0 ? 0 : NowMs() + Limits.RequestDeadlineMs;
  Result<json::Value> R = makeError("unreachable");
  try {
    R = (this->*Method.Run)(Params);
  } catch (const CancelledException &) {
    // Cooperative cancellation unwound the handler. The reply is an
    // error, so nothing below touches the view cache: no partial view is
    // memoized and no valid entry is displaced.
    RequestDeadline = 0;
    return rpc::makeErrorResponse(Id, rpc::RequestCancelled,
                                  "request cancelled");
  }
  RequestDeadline = 0;
  if (!R) {
    int Code = R.error() == DeadlineDiag    ? rpc::RequestTimeout
               : R.error() == SubLimitDiag  ? rpc::SubscriptionLimit
                                            : rpc::InvalidParams;
    return rpc::makeErrorResponse(Id, Code, R.error());
  }
  if (OwnedOnArrival) {
    if (Method.Retires)
      Store->bumpGeneration(Arrived);
    if (Store->generationOf(Arrived) != GenBefore)
      Cache->retire(Arrived);
  }
  json::Value Payload = R.take();
  // Only successful replies are memoized; errors stay uncached so a later
  // retry (e.g. after the deadline budget recovers) re-runs the handler.
  // The key holds the generations read before the handler ran: a view
  // computed while another request retired its profile lands under a key
  // no later lookup builds, and ages out of the LRU.
  if (!CacheKey.empty())
    Cache->insert(std::move(CacheKey), std::move(CacheProfiles), Payload);
  return rpc::makeResponse(Id, std::move(Payload));
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
    json::Value Reply = dispatch(*Entry, *Params, Id);
    Entry->Latency->record(monoMicros() - M0);
    return Reply;
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
