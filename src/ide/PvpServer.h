//===- ide/PvpServer.h - Profile Viewer Protocol server -------------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Profile Viewer Protocol (PVP): an LSP-inspired protocol that carries
/// EasyView's IDE actions (paper §VI-B). The server owns loaded profiles
/// and serves the editor: the mandatory pvp/codeLink action, the optional
/// IDE actions, the data and analysis planes, live view subscriptions and
/// introspection. docs/PVP.md documents every method together with the
/// method table in PvpServer.cpp: each method's declared parameters, which
/// replies the view cache memoizes and which methods retire a profile's
/// generation. dispatch() parses a request against its declared
/// parameters once; handlers read the typed result, never the raw params.
///
/// Errors use standard JSON-RPC codes. The server is transport-agnostic:
/// handleMessage() maps one decoded request to one response, and
/// handleWire() speaks Content-Length framing for stdio-style streams.
///
/// Concurrency model (docs/PVP.md "Sessions, scheduling, and
/// cancellation"): one PvpServer is one SESSION — a synchronous engine
/// with no internal locking, safe as long as at most one request runs on
/// it at a time. ide/SessionManager.h provides that guarantee (per-session
/// FIFO strands) while running many sessions in parallel over a SHARED
/// ProfileStore and ViewCache, both thread-safe. A standalone PvpServer
/// simply owns a private store and cache, so the sequential embedding API
/// is unchanged.
///
//===----------------------------------------------------------------------===//

#ifndef EASYVIEW_IDE_PVPSERVER_H
#define EASYVIEW_IDE_PVPSERVER_H

#include "analysis/Aggregate.h"
#include "ide/JsonRpc.h"
#include "ide/ViewCache.h"
#include "ide/ViewTable.h"
#include "profile/Profile.h"
#include "profile/ProfileStore.h"
#include "support/Cancel.h"
#include "support/FileIo.h"
#include "support/Limits.h"

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace ev {

namespace telemetry {
class Histogram;
} // namespace telemetry

/// Guardrails for one PVP session. Every request runs under these; inputs
/// that exceed them produce JSON-RPC errors (or degraded-but-valid
/// replies), never unbounded work, so a hostile or buggy editor cannot
/// take the session down.
struct ServerLimits {
  /// Decode budgets applied to every profile the session opens.
  DecodeLimits Decode;
  /// Static-analysis budgets applied to every pvp/diagnostics request.
  AnalysisLimits Analysis;
  /// Wire framing guardrails (frame size cap, header cap).
  rpc::FrameReaderOptions Wire;
  /// Largest pvp/open payload (after base64 decoding) accepted.
  size_t MaxOpenBytes = 64u << 20;
  /// Hard ceiling on pvp/flame rect replies; larger maxRects requests are
  /// clamped, not refused.
  size_t MaxFlameRects = 65536;
  /// Hard ceiling on pvp/treeTable rows; larger tables are truncated.
  size_t MaxTreeTableRows = 50000;
  /// Soft per-request deadline. 0 disables deadline checking.
  uint64_t RequestDeadlineMs = 10000;
  /// Retry policy for path-based pvp/open file loads.
  RetryPolicy OpenRetry;
  /// Capacity of the memoized view cache serving the methods docs/PVP.md
  /// "Method policy" marks as cached. 0 disables caching entirely.
  /// Ignored when the session is constructed over an externally shared
  /// cache.
  size_t MaxCachedViews = 128;
  /// Memory budget for the profile store's resident blocks (docs/PERF.md
  /// "Out-of-core profile store"). 0 (the default) disables budgeting:
  /// every profile stays resident. Non-zero requires SpillDir and turns on
  /// LRU spilling: cold profile blocks spill to disk and fault back in by
  /// mmap on their next use.
  uint64_t StoreBudgetBytes = 0;
  /// Directory for spilled profile blocks; must be set (and writable)
  /// when StoreBudgetBytes is non-zero, otherwise the budget is ignored.
  std::string SpillDir;
  /// Live view subscriptions one session may hold at once; pvp/subscribe
  /// past the cap fails with SubscriptionLimit (-32004).
  size_t MaxSubscriptionsPerSession = 64;
};

class PvpServer {
public:
  PvpServer() : PvpServer(ServerLimits()) {}
  /// Standalone session: owns a private profile store and a private
  /// view cache of ServerLimits::MaxCachedViews entries.
  explicit PvpServer(ServerLimits Limits);
  /// Session over shared state: profiles and cached views live in \p Store
  /// and \p Cache, which other sessions may share concurrently (both are
  /// thread-safe; this object itself still serves one request at a time).
  PvpServer(ServerLimits Limits, std::shared_ptr<ProfileStore> Store,
            std::shared_ptr<ViewCache> Cache);

  /// Handles one decoded JSON-RPC request; \returns the response payload.
  /// Handlers poll \p Cancel at loop boundaries and a triggered token
  /// yields a RequestCancelled (-32800) error response. A cancelled request
  /// never populates the view cache.
  ///
  /// \p Notify is the sink for server-initiated messages (pvp/viewDelta,
  /// pvp/subscriptionEnd). A pvp/subscribe served under this call binds it
  /// to the subscription for its whole life, so the callable must be
  /// self-contained (capture shared state by value). When \p Notify is
  /// null, notifications queue internally — drain them with
  /// takeNotifications() (handleWire does so after every message and
  /// appends them, framed, after the response).
  json::Value handleMessage(const json::Value &Request,
                            const CancelToken &Cancel = CancelToken(),
                            std::function<void(json::Value)> Notify = nullptr);

  /// Feeds framed bytes; \returns the framed responses produced (possibly
  /// several, possibly none while a message is incomplete). Corrupt frames
  /// yield error responses and the reader resynchronizes: the wire session
  /// survives any byte stream.
  std::string handleWire(std::string_view Bytes);

  /// Replaces the millisecond clock behind request deadlines (tests inject
  /// a deterministic clock); nullptr restores the steady clock.
  void setClock(std::function<uint64_t()> NowMs);

  /// Wire-reader telemetry (resync and dropped-byte counters).
  const rpc::FrameReader &wireReader() const { return Reader; }

  /// Sweeps every live subscription: for each whose profile generation
  /// moved past the last acked AND last pushed generation, recomputes the
  /// view (the reply an explicit re-query returns, inserted into the
  /// shared view cache) and pushes a pvp/viewDelta notification from its
  /// table through the subscription's sink; subscriptions whose profile is
  /// gone get a pvp/subscriptionEnd and are dropped. Runs after every
  /// handleMessage(); SessionManager::publishAll() runs it on the strand
  /// for cross-session bumps. \returns the number of deltas pushed.
  size_t publishSubscriptions();

  /// Drains notifications produced for null-sink subscriptions.
  std::vector<json::Value> takeNotifications();

  /// Live subscriptions held by this session.
  size_t subscriptionCount() const { return Subs.size(); }

  /// Grants this session addressing rights to \p Id (a profile another
  /// session — or `evtool serve --follow` — registered in the shared
  /// store) without re-registering it.
  void adoptProfile(int64_t Id) { Owned.insert(Id); }

  /// Direct (non-RPC) access used by in-process embedding and tests.
  /// Registers \p P; \returns its id.
  int64_t addProfile(Profile P);
  /// \returns the profile for \p Id (nullptr if unknown to this session).
  /// The pointer stays valid until the profile is closed; concurrent
  /// callers should prefer profileHandle().
  const Profile *profile(int64_t Id) const { return profileHandle(Id).get(); }
  /// As profile(), but the returned reference keeps the profile alive
  /// independent of a concurrent pvp/close.
  std::shared_ptr<const Profile> profileHandle(int64_t Id) const;
  /// Profiles owned by THIS session (not the whole shared store).
  size_t profileCount() const { return Owned.size(); }

  /// What a declared parameter holds; the profile-typed kinds come first.
  /// Metric and Node resolve in the first Profile or Aggregate parameter.
  enum class ParamKind : uint8_t {
    Profile,    ///< Id of a profile this session owns, resolved.
    ProfileId,  ///< As Profile, left to the store to resolve.
    Cohort,     ///< Profile id or non-empty id array; the handler resolves.
    Aggregate,  ///< Id of an aggregate this session made.
    Metric,     ///< Index or name; absent is metric 0, which must exist.
    AnyMetric,  ///< As Metric, but absent is 0 even without metrics.
    ViewMetric, ///< As Metric, resolved by the handler in a derived view.
    Node,       ///< Node id.
    String,
    Bool,
    Int,
    Count,      ///< A non-negative integer.
    Number,
    Ratio,      ///< A non-negative number.
    Ids,        ///< An array whose integer entries are ids.
    Names,      ///< An array whose string entries are names.
    Object,
  };
  /// \returns true for the kinds that name profiles: a cached method's
  /// replies are memoized on exactly these parameters.
  static bool isProfileTyped(ParamKind K) { return K <= ParamKind::Cohort; }
  struct ParamSpec {
    std::string_view Name;
    ParamKind Kind;
    bool Required = false;
    /// The error for a missing or ill-typed value, where the protocol
    /// words it its own way.
    std::string_view Invalid = {};
  };

  /// A request's parameters parsed against its method's declared list.
  struct Args;

  /// A method's handler. The view methods (pvp/flame, pvp/treeTable)
  /// return their table, which dispatch() writes; the others their reply.
  using ReplyHandler = Result<json::Value> (PvpServer::*)(const Args &);
  using ViewHandler = Result<ViewTable> (PvpServer::*)(const Args &);
  /// One row of the method table; docs/PVP.md lists every row.
  struct MethodEntry {
    std::string_view Name; ///< Views a string literal (a span label).
    std::variant<ReplyHandler, ViewHandler> Run;
    /// The declared parameters, in the order dispatch() checks them.
    std::vector<ParamSpec> Params;
    /// Replies are memoized in the view cache, keyed on the generations of
    /// the profile-typed parameters and the values of the others.
    bool Cached = false;
    /// Success bumps the 'profile' param's generation, retiring every
    /// cached view of it and waking its subscriptions.
    bool Retires = false;
    telemetry::Histogram *Latency = nullptr;
  };
  static const std::vector<MethodEntry> &methods();

private:
  /// \returns the table entry of a known PVP method, or nullptr.
  static const MethodEntry *findMethod(std::string_view Method);
  /// Runs \p Method under its table policy: serves and fills the view
  /// cache, parses \p Params against the declared list, arms the deadline,
  /// and retires the 'profile' generation after a successful retiring
  /// method. \returns the result payload or the error message. \p Table,
  /// when given, receives a view's table; the view is then computed, not
  /// looked up, and its reply still inserted.
  Result<json::Value> dispatch(const MethodEntry &Method,
                               const json::Object &Params,
                               std::optional<ViewTable> *Table = nullptr);
  /// The view-cache key of a request for a cached method, or nullopt when
  /// a profile-typed parameter is missing, malformed or not owned. Appends
  /// the profiles it names to \p Profiles.
  std::optional<std::string> cacheKey(const MethodEntry &Method,
                                      const json::Object &Params,
                                      std::vector<int64_t> &Profiles) const;
  /// Checks \p Params against \p Method's declared list, in order.
  Result<Args> parseArgs(const MethodEntry &Method,
                         const json::Object &Params) const;

  // Method implementations; each returns a result payload or an error
  // string which handleMessage() converts into a JSON-RPC error.
  Result<json::Value> doOpen(const Args &A);
  Result<json::Value> doAppend(const Args &A);
  Result<json::Value> doClose(const Args &A);
  Result<json::Value> doSubscribe(const Args &A);
  Result<json::Value> doAck(const Args &A);
  Result<json::Value> doUnsubscribe(const Args &A);
  Result<ViewTable> doFlame(const Args &A);
  Result<ViewTable> doTreeTable(const Args &A);
  Result<json::Value> doCodeLink(const Args &A);
  Result<json::Value> doHover(const Args &A);
  Result<json::Value> doCodeLens(const Args &A);
  Result<json::Value> doSummary(const Args &A);
  Result<json::Value> doSearch(const Args &A);
  Result<json::Value> doAggregate(const Args &A);
  Result<json::Value> doHistogram(const Args &A);
  Result<json::Value> doDiff(const Args &A);
  Result<json::Value> doQuery(const Args &A);
  Result<json::Value> doTransform(const Args &A);
  Result<json::Value> doPrune(const Args &A);
  Result<json::Value> doExport(const Args &A);
  Result<json::Value> doButterfly(const Args &A);
  Result<json::Value> doCorrelated(const Args &A);
  Result<json::Value> doDiagnostics(const Args &A);
  Result<json::Value> doRegressions(const Args &A);
  Result<json::Value> doStats(const Args &A);
  Result<json::Value> doMetrics(const Args &A);
  Result<json::Value> doSelfProfile(const Args &A);

  /// The profile bytes of pvp/open and pvp/append: 'data' verbatim or
  /// 'dataBase64' decoded, or, for pvp/open (\p PathOut non-null), the file
  /// named by 'path', which is stored in *PathOut. Every source is held to
  /// the open size limit.
  Result<std::string> payload(const Args &A, std::string *PathOut) const;

  /// \returns true once the in-flight request ran past its soft deadline.
  bool deadlineExpired() const;

  /// One live view subscription. The server keeps the view the client last
  /// ACKNOWLEDGED (AckedView) so every delta is computed against a state
  /// the client provably holds — an unacked push is superseded by the next
  /// one, which still diffs from AckedView, making replays idempotent.
  /// PushedView is promoted to AckedView by pvp/ack.
  struct Subscription {
    int64_t ProfileId = 0;
    const MethodEntry *View = nullptr; ///< pvp/flame or pvp/treeTable.
    json::Object ViewParams;
    uint64_t AckedGen = 0;
    ViewTable AckedView;
    uint64_t PushedGen = 0;
    std::optional<ViewTable> PushedView;
    /// Delivery path bound at subscribe time (per-subscriber, so two
    /// connections multiplexed on one session never see each other's
    /// pushes).
    std::function<void(json::Value)> Sink;
  };

  /// Sends pvp/subscriptionEnd through the subscription's sink.
  void endSubscription(int64_t SubId, const Subscription &S,
                       const std::string &Reason);

  ServerLimits Limits;
  /// Shared (or private, for standalone sessions) profile storage. Ids are
  /// unique across every session on the same store.
  std::shared_ptr<ProfileStore> Store;
  /// Ids this session opened and may address; close removes them here and
  /// retires them from the store.
  std::set<int64_t> Owned;
  std::map<int64_t, AggregatedProfile> Aggregates;
  rpc::FrameReader Reader;
  std::function<uint64_t()> NowMs;
  uint64_t RequestDeadline = 0; ///< Absolute ms; 0 while idle/disabled.
  /// Token of the in-flight request; inert between requests. Handlers and
  /// the analysis kernels they call poll it at loop boundaries.
  CancelToken ActiveCancel;

  /// Notification sink of the in-flight request (null between requests);
  /// pvp/subscribe copies it into the subscription it creates.
  std::function<void(json::Value)> CurrentNotify;
  /// Fallback delivery target when a subscription was created without an
  /// explicit sink; drained by takeNotifications()/handleWire().
  std::vector<json::Value> QueuedNotifications;
  std::map<int64_t, Subscription> Subs;
  int64_t NextSubId = 1;

  // Memoized view cache (ide/ViewCache.h). dispatch() fills and serves it,
  // bumps generations as the method table says (docs/PVP.md "Method
  // policy") and retires a profile's views when its generation ends.
  std::shared_ptr<ViewCache> Cache;
};

} // namespace ev

#endif // EASYVIEW_IDE_PVPSERVER_H
