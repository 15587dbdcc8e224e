//===- ide/SessionManager.cpp - Concurrent multi-session PVP service ------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "ide/SessionManager.h"

#include "support/Clock.h"
#include "support/Telemetry.h"
#include "support/Trace.h"

#include <algorithm>
#include <string>

namespace ev {


SessionManager::SessionManager(Options Opts)
    : Opts(Opts), Store(std::make_shared<ProfileStore>()),
      Cache(std::make_shared<ViewCache>(Opts.Limits.MaxCachedViews)),
      Dispatcher(std::max(1u, Opts.Sessions)) {
  unsigned Count = std::max(1u, Opts.Sessions);
  Sessions.reserve(Count);
  for (unsigned I = 0; I < Count; ++I) {
    auto S = std::make_unique<Session>();
    S->Server = std::make_unique<PvpServer>(Opts.Limits, Store, Cache);
    Sessions.push_back(std::move(S));
  }
}

SessionManager::~SessionManager() = default;

std::future<json::Value> SessionManager::submit(unsigned SessionId,
                                                json::Value Request) {
  auto P = std::make_shared<std::promise<json::Value>>();
  std::future<json::Value> F = P->get_future();
  submitAsync(SessionId, std::move(Request),
              [P](json::Value Response) { P->set_value(std::move(Response)); });
  return F;
}

void SessionManager::submitAsync(unsigned SessionId, json::Value Request,
                                 std::function<void(json::Value)> Done,
                                 std::function<void(json::Value)> Notify) {
  int64_t RequestId = 0;
  std::string_view Method;
  if (Request.isObject()) {
    const json::Object &Obj = Request.asObject();
    if (const json::Value *IdV = Obj.find("id"); IdV)
      IdV->getInteger(RequestId);
    if (const json::Value *MV = Obj.find("method"); MV && MV->isString())
      Method = MV->asString();
  }

  if (SessionId >= Sessions.size()) {
    Done(rpc::makeErrorResponse(RequestId, rpc::InvalidRequest,
                                "no session " + std::to_string(SessionId)));
    return;
  }

  // `$/cancelRequest` must bypass the strand: queued behind the very
  // request it targets it could never fire in time.
  if (Method == "$/cancelRequest") {
    int64_t Target = 0;
    bool HaveTarget = false;
    if (Request.isObject())
      if (const json::Value *PV = Request.asObject().find("params");
          PV && PV->isObject())
        if (const json::Value *TV = PV->asObject().find("id"); TV)
          HaveTarget = TV->getInteger(Target);
    if (!HaveTarget) {
      Done(rpc::makeErrorResponse(RequestId, rpc::InvalidParams,
                                  "$/cancelRequest needs a numeric params.id"));
      return;
    }
    bool Hit = cancel(SessionId, Target);
    json::Object Out;
    Out.set("cancelled", Hit);
    Done(rpc::makeResponse(RequestId, json::Value(std::move(Out))));
    return;
  }

  auto Pending = std::make_shared<PendingRequest>();
  Pending->Request = std::move(Request);
  Pending->RequestId = RequestId;
  Pending->Done = std::move(Done);
  Pending->Notify = std::move(Notify);
  Pending->EnqueuedUs = monoMicros();

  static telemetry::Counter &Submitted =
      telemetry::Registry::global().counter("session.submitted");
  static telemetry::Counter &RejectedBusy =
      telemetry::Registry::global().counter("session.rejectedBusy");

  Session &S = *Sessions[SessionId];
  bool Spawn = false;
  size_t BusyDepth = 0;
  {
    std::lock_guard<std::mutex> Lock(S.Mutex);
    if (S.Queue.size() >= Opts.MaxQueuedPerSession) {
      RejectedBusy.add();
      BusyDepth = S.Queue.size();
    } else {
      Submitted.add();
      S.Queue.push_back(std::move(Pending));
      if (!S.Running) {
        S.Running = true;
        Spawn = true;
      }
    }
  }
  if (BusyDepth > 0) {
    // Resolve outside the lock; the callback may run arbitrary code.
    Pending->Done(rpc::makeErrorResponse(
        RequestId, rpc::SessionBusy,
        "session " + std::to_string(SessionId) + " has " +
            std::to_string(BusyDepth) + " requests pending"));
    return;
  }
  if (Spawn)
    Dispatcher.post([this, &S] { pumpOne(S); });
}

void SessionManager::postInternal(unsigned SessionId,
                                  std::function<void(PvpServer &)> Fn) {
  if (SessionId >= Sessions.size() || !Fn)
    return;
  auto Pending = std::make_shared<PendingRequest>();
  Pending->Internal = std::move(Fn);
  Pending->EnqueuedUs = monoMicros();
  Session &S = *Sessions[SessionId];
  bool Spawn = false;
  {
    std::lock_guard<std::mutex> Lock(S.Mutex);
    // Deliberately no MaxQueuedPerSession check: these are the manager's
    // own maintenance tasks, bounded by the caller (one sweep per store
    // mutation), and shedding them would silently freeze live views.
    S.Queue.push_back(std::move(Pending));
    if (!S.Running) {
      S.Running = true;
      Spawn = true;
    }
  }
  if (Spawn)
    Dispatcher.post([this, &S] { pumpOne(S); });
}

void SessionManager::publishAll() {
  for (unsigned I = 0; I < Sessions.size(); ++I)
    postInternal(I, [](PvpServer &Server) { Server.publishSubscriptions(); });
}

void SessionManager::adoptProfileAll(int64_t Id) {
  for (unsigned I = 0; I < Sessions.size(); ++I)
    postInternal(I, [Id](PvpServer &Server) { Server.adoptProfile(Id); });
}

json::Value SessionManager::handle(unsigned SessionId,
                                   const json::Value &Request) {
  return submit(SessionId, Request).get();
}

bool SessionManager::cancel(unsigned SessionId, int64_t RequestId) {
  if (SessionId >= Sessions.size())
    return false;
  Session &S = *Sessions[SessionId];
  std::shared_ptr<PendingRequest> Unlinked;
  bool Hit = false;
  {
    std::lock_guard<std::mutex> Lock(S.Mutex);
    for (auto It = S.Queue.begin(); It != S.Queue.end(); ++It) {
      // Internal tasks (null Done) are not cancellable: they carry id 0,
      // which a hostile `$/cancelRequest {id:0}` could otherwise target.
      if (!(*It)->Internal && (*It)->RequestId == RequestId) {
        Unlinked = *It;
        S.Queue.erase(It);
        Hit = true;
        break;
      }
    }
    if (!Hit && S.Current && S.Current->RequestId == RequestId) {
      // Running: trigger the token; the handler unwinds at its next
      // checkpoint and the strand resolves the promise with -32800.
      S.Current->Cancel.requestCancel();
      Hit = true;
    }
  }
  // Resolve the unlinked request outside the lock (the completion callback
  // may run arbitrary code).
  if (Unlinked)
    Unlinked->Done(rpc::makeErrorResponse(RequestId, rpc::RequestCancelled,
                                          "request cancelled"));
  return Hit;
}

void SessionManager::pumpOne(Session &S) {
  std::shared_ptr<PendingRequest> Req;
  {
    std::lock_guard<std::mutex> Lock(S.Mutex);
    if (S.Queue.empty()) {
      S.Running = false;
      return;
    }
    Req = S.Queue.front();
    S.Queue.pop_front();
    S.Current = Req;
  }

  // Queue-wait vs run time: the two halves of perceived latency. A hot
  // cache with long queue waits means the dispatcher is undersized, not
  // the handlers slow — the split tells them apart.
  static telemetry::Histogram &QueueWait =
      telemetry::Registry::global().histogram("session.queueWaitUs");
  static telemetry::Histogram &RunTime =
      telemetry::Registry::global().histogram("session.runUs");
  uint64_t StartUs = monoMicros();
  QueueWait.record(StartUs > Req->EnqueuedUs ? StartUs - Req->EnqueuedUs : 0);

  // The session's server is only ever touched from its strand, so this
  // needs no lock despite running on an arbitrary dispatcher thread.
  json::Value Response;
  {
    trace::Span Span("session/pumpOne", "session");
    if (Req->Internal)
      Req->Internal(*S.Server);
    else
      Response = S.Server->handleMessage(Req->Request, Req->Cancel,
                                         Req->Notify);
  }
  uint64_t EndUs = monoMicros();
  RunTime.record(EndUs > StartUs ? EndUs - StartUs : 0);

  bool Repost;
  {
    std::lock_guard<std::mutex> Lock(S.Mutex);
    S.Current.reset();
    Repost = !S.Queue.empty();
    if (!Repost)
      S.Running = false;
  }
  if (Req->Done)
    Req->Done(std::move(Response));
  // Repost instead of looping: round-robin fairness across sessions
  // sharing the dispatcher.
  if (Repost)
    Dispatcher.post([this, &S] { pumpOne(S); });
}

} // namespace ev
