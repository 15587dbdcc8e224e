//===- ide/SessionManager.h - Concurrent multi-session PVP service --------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The concurrent service layer over PvpServer: N independent PVP sessions
/// (one per connected editor pane) multiplexed onto a shared TaskQueue,
/// over a shared refcounted ProfileStore and a shared ViewCache.
///
/// Scheduling is a classic strand model. Each session keeps a FIFO queue
/// of pending requests plus a Running flag; at most one request per
/// session executes at any moment, so the single-threaded PvpServer needs
/// no internal locking, and per-session request order — hence every
/// response byte — is identical to running that session's traffic against
/// a standalone sequential server. Distinct sessions run genuinely in
/// parallel: the strand reposts itself to the shared TaskQueue after every
/// request instead of draining its whole queue in one task, so a session
/// with a deep backlog cannot starve its neighbors.
///
/// Cancellation is cooperative and follows LSP's `$/cancelRequest`: the
/// manager intercepts the method, and
///  - a still-QUEUED target is unlinked and answered RequestCancelled
///    (-32800) immediately, never reaching the server;
///  - a RUNNING target has its CancelToken triggered; the analysis kernels
///    poll the token at loop boundaries and unwind, and the server answers
///    -32800. A cancelled request never populates the view cache and never
///    invalidates a valid entry.
///
/// See docs/PVP.md, "Sessions, scheduling, and cancellation".
///
//===----------------------------------------------------------------------===//

#ifndef EASYVIEW_IDE_SESSIONMANAGER_H
#define EASYVIEW_IDE_SESSIONMANAGER_H

#include "ide/PvpServer.h"
#include "ide/ViewCache.h"
#include "profile/ProfileStore.h"
#include "support/Cancel.h"
#include "support/ThreadPool.h"

#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <vector>

namespace ev {

class SessionManager {
public:
  struct Options {
    /// Number of independent sessions to create. The shared dispatcher
    /// gets one worker per session, so every session can be on-CPU at
    /// once.
    unsigned Sessions = 4;
    /// Guardrails applied to every session.
    ServerLimits Limits;
    /// Pending requests a single session may queue before new submissions
    /// are rejected with a SessionBusy error.
    size_t MaxQueuedPerSession = 256;
  };

  explicit SessionManager(Options Opts);
  /// Drains every session's queue, then joins the dispatcher.
  ~SessionManager();

  SessionManager(const SessionManager &) = delete;
  SessionManager &operator=(const SessionManager &) = delete;

  unsigned sessionCount() const {
    return static_cast<unsigned>(Sessions.size());
  }

  /// Enqueues \p Request on \p Session's strand; the future resolves with
  /// the JSON-RPC response once the request ran (or was cancelled or
  /// rejected). `$/cancelRequest` is handled by the manager itself and
  /// resolves immediately. Invalid session ids resolve with an error
  /// response, never throw.
  std::future<json::Value> submit(unsigned Session, json::Value Request);

  /// Callback-based submission for transports that must not block: \p Done
  /// is invoked exactly once with the JSON-RPC response. Submission-time
  /// rejections (unknown session, SessionBusy) and `$/cancelRequest`
  /// invoke \p Done inline on the calling thread; everything else invokes
  /// it on a dispatcher thread when the strand finishes (or on the
  /// canceller's thread for a queued request that is cancelled), so \p Done
  /// must be thread-safe and cheap — the network transport just routes the
  /// response to its event loop.
  /// \p Notify, when provided, becomes the push channel for any live
  /// subscription (pvp/subscribe) created by this request: the server
  /// binds it into the subscription and later pvp/viewDelta and
  /// pvp/subscriptionEnd notifications flow through it from the session's
  /// strand. It must therefore be self-contained (own its captures) and
  /// thread-safe, like \p Done.
  void submitAsync(unsigned Session, json::Value Request,
                   std::function<void(json::Value)> Done,
                   std::function<void(json::Value)> Notify = nullptr);

  /// Posts \p Fn onto \p Session's strand as an internal task. Internal
  /// tasks respect strand exclusivity (they never run concurrently with a
  /// request on the same session) but bypass MaxQueuedPerSession — the
  /// server's own maintenance must not be sheddable by a client flood.
  void postInternal(unsigned Session, std::function<void(PvpServer &)> Fn);

  /// Schedules a subscription publish sweep on every session's strand.
  /// Call after mutating the shared store outside any request (e.g. the
  /// --follow file tail appending sections): requests publish on their own.
  void publishAll();

  /// Grants every session ownership of store profile \p Id (strand-safe,
  /// asynchronous). Pair with store().adopt()-style external inserts so
  /// any connected editor can immediately open views of a followed file.
  void adoptProfileAll(int64_t Id);

  /// Synchronous convenience: submit() + wait.
  json::Value handle(unsigned Session, const json::Value &Request);

  /// Cancels the request with JSON-RPC id \p RequestId on \p Session.
  /// \returns true when a queued or running request was targeted.
  bool cancel(unsigned Session, int64_t RequestId);

  /// The shared profile store (ids are unique across sessions).
  ProfileStore &store() { return *Store; }
  /// The shared view cache.
  ViewCache &viewCache() { return *Cache; }
  /// Requests executed by the dispatcher so far (telemetry).
  uint64_t executedCount() const { return Dispatcher.executedCount(); }

private:
  struct PendingRequest {
    json::Value Request;
    int64_t RequestId = 0;
    CancelToken Cancel = CancelToken::create();
    /// Resolution callback; invoked exactly once with the response.
    std::function<void(json::Value)> Done;
    /// Push channel bound into subscriptions this request creates.
    std::function<void(json::Value)> Notify;
    /// When set, the strand runs this instead of dispatching Request (and
    /// Done/Notify are unused): internal maintenance such as publish
    /// sweeps and profile adoption.
    std::function<void(PvpServer &)> Internal;
    uint64_t EnqueuedUs = 0; ///< monoMicros() at submit; queue-wait metric.
  };

  struct Session {
    std::unique_ptr<PvpServer> Server;
    std::mutex Mutex; ///< Guards Queue, Current, and Running.
    std::deque<std::shared_ptr<PendingRequest>> Queue;
    std::shared_ptr<PendingRequest> Current; ///< Executing now, if any.
    bool Running = false; ///< A strand task is scheduled or executing.
  };

  /// Runs ONE request of \p S, then reposts the strand if work remains.
  void pumpOne(Session &S);

  Options Opts;
  std::shared_ptr<ProfileStore> Store;
  std::shared_ptr<ViewCache> Cache;
  std::vector<std::unique_ptr<Session>> Sessions;
  /// Declared last: destroyed first, so the drain finishes while the
  /// sessions it references are still alive.
  TaskQueue Dispatcher;
};

} // namespace ev

#endif // EASYVIEW_IDE_SESSIONMANAGER_H
