//===- net/NetServer.cpp - Event-loop socket transport for PVP ------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "net/NetServer.h"

#include "net/Socket.h"
#include "support/Clock.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <optional>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace ev {
namespace net {

namespace {

/// Handles into the global registry, pinned once (docs/OBSERVABILITY.md,
/// "net.*"). They surface through pvp/metrics like every other metric, so
/// a fleet operator sees transport health next to request latency.
struct NetMetrics {
  telemetry::Counter &Accepted;
  telemetry::Counter &Closed;
  telemetry::Counter &Dropped;
  telemetry::Counter &DropIdle;
  telemetry::Counter &DropBackpressure;
  telemetry::Counter &DropMaxConns;
  telemetry::Counter &DropParse;
  telemetry::Gauge &ActiveGauge;
  telemetry::Counter &BytesIn;
  telemetry::Counter &BytesOut;
  telemetry::Counter &FramesIn;
  telemetry::Counter &FrameErrors;
  telemetry::Counter &WriteErrors;
  telemetry::Histogram &FirstByteUs;
  telemetry::Histogram &FirstFrameUs;

  static NetMetrics &get() {
    telemetry::Registry &R = telemetry::Registry::global();
    static NetMetrics M{R.counter("net.connectionsAccepted"),
                        R.counter("net.connectionsClosed"),
                        R.counter("net.connectionsDropped"),
                        R.counter("net.drop.idleTimeout"),
                        R.counter("net.drop.writeBackpressure"),
                        R.counter("net.drop.maxConnections"),
                        R.counter("net.drop.parseError"),
                        R.gauge("net.connectionsActive"),
                        R.counter("net.bytesIn"),
                        R.counter("net.bytesOut"),
                        R.counter("net.framesIn"),
                        R.counter("net.frameErrors"),
                        R.counter("net.writeErrors"),
                        R.histogram("net.acceptToFirstByteUs"),
                        R.histogram("net.acceptToFirstFrameUs")};
    return M;
  }
};

} // namespace

const char *dropReasonName(DropReason Reason) {
  switch (Reason) {
  case DropReason::IdleTimeout:
    return "idleTimeout";
  case DropReason::WriteBackpressure:
    return "writeBackpressure";
  case DropReason::MaxConnections:
    return "maxConnections";
  case DropReason::ParseError:
    return "parseError";
  }
  return "unknown";
}

void NetServer::ReplyRouter::route(uint64_t ConnId, std::string FramedBytes,
                                   bool Notification) {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Closed)
    return; // Loop shut down; the session's reply has nowhere to go.
  Pending.push_back({ConnId, std::move(FramedBytes), Notification});
  if (WakeWriteFd >= 0) {
    char B = 'r';
    // A full pipe means wakes are already pending; the loop will drain
    // Pending regardless, so the byte (and any error) is droppable.
    (void)!::write(WakeWriteFd, &B, 1);
  }
}

NetServer::NetServer(SessionManager &Manager, NetServerOptions Opts)
    : Manager(Manager), Opts(std::move(Opts)),
      Router(std::make_shared<ReplyRouter>()) {
  ignoreSigpipe();
  if (!this->Opts.Log)
    this->Opts.Log = [](const std::string &Line) {
      std::fprintf(stderr, "evtool-net: %s\n", Line.c_str());
    };
}

NetServer::~NetServer() {
  stop();
  waitUntilStopped();
}

Result<bool> NetServer::listenTcp(const std::string &HostPort) {
  if (ListenFd >= 0)
    return makeError("already listening on " + BoundAddr);
  Result<int> Fd = net::listenTcp(HostPort, BoundAddr);
  if (!Fd)
    return makeError(Fd.error());
  ListenFd = *Fd;
  return true;
}

Result<bool> NetServer::listenUnix(const std::string &Path) {
  if (ListenFd >= 0)
    return makeError("already listening on " + BoundAddr);
  Result<int> Fd = net::listenUnix(Path);
  if (!Fd)
    return makeError(Fd.error());
  ListenFd = *Fd;
  BoundAddr = Path;
  UnixPath = Path;
  return true;
}

Result<bool> NetServer::start() {
  if (ListenFd < 0)
    return makeError("start() needs a successful listenTcp()/listenUnix()");
  if (LoopRunning.load(std::memory_order_acquire) || LoopThread.joinable())
    return makeError("server already started");

  int Pipe[2];
  if (pipe(Pipe) != 0)
    return makeError(std::string("pipe: ") + std::strerror(errno));
  WakeReadFd = Pipe[0];
  WakeWriteFd = Pipe[1];
  for (int Fd : Pipe)
    if (Result<bool> NB = setNonBlocking(Fd); !NB) {
      closeSocket(WakeReadFd);
      closeSocket(WakeWriteFd);
      WakeReadFd = WakeWriteFd = -1;
      return makeError(NB.error());
    }
  {
    std::lock_guard<std::mutex> Lock(Router->Mutex);
    Router->WakeWriteFd = WakeWriteFd;
    Router->Closed = false;
  }
  DrainRequested.store(false, std::memory_order_release);
  StopRequested.store(false, std::memory_order_release);
  DrainedCleanly.store(true, std::memory_order_release);
  LoopRunning.store(true, std::memory_order_release);
  LoopThread = std::thread([this] { loopMain(); });
  return true;
}

void NetServer::requestDrain() {
  // Async-signal-safe on purpose: one atomic store plus one pipe write, so
  // SIGINT/SIGTERM handlers may call this directly.
  DrainRequested.store(true, std::memory_order_release);
  if (WakeWriteFd >= 0) {
    char B = 'd';
    (void)!::write(WakeWriteFd, &B, 1);
  }
}

void NetServer::stop() {
  StopRequested.store(true, std::memory_order_release);
  if (WakeWriteFd >= 0) {
    char B = 's';
    (void)!::write(WakeWriteFd, &B, 1);
  }
}

bool NetServer::waitUntilStopped() {
  if (LoopThread.joinable())
    LoopThread.join();
  // The loop has exited (or never started): reclaim the wake pipe and the
  // listener socket file.
  closeSocket(WakeReadFd);
  closeSocket(WakeWriteFd);
  WakeReadFd = WakeWriteFd = -1;
  if (ListenFd >= 0) {
    closeSocket(ListenFd);
    ListenFd = -1;
  }
  if (!UnixPath.empty()) {
    unlink(UnixPath.c_str());
    UnixPath.clear();
  }
  return DrainedCleanly.load(std::memory_order_acquire);
}

void NetServer::log(const std::string &Line) {
  if (Opts.Log)
    Opts.Log(Line);
}

void NetServer::loopMain() {
  NetMetrics &M = NetMetrics::get();
  bool Draining = false;

  for (;;) {
    uint64_t NowMs = monoMillis();

    // Enter drain exactly once: stop accepting, stop reading, let
    // in-flight strand work and reply flushes finish under the deadline.
    if (!Draining && (DrainRequested.load(std::memory_order_acquire) ||
                      StopRequested.load(std::memory_order_acquire))) {
      Draining = true;
      DrainDeadlineAtMs = NowMs + Opts.DrainDeadlineMs;
      if (ListenFd >= 0) {
        closeSocket(ListenFd);
        ListenFd = -1;
      }
      size_t InFlightTotal = 0;
      for (auto &[Id, C] : Conns) {
        C.ReadClosed = true;
        InFlightTotal += C.InFlight;
      }
      log("drain: stopped accepting; " + std::to_string(Conns.size()) +
          " connection(s), " + std::to_string(InFlightTotal) +
          " request(s) in flight, deadline " +
          std::to_string(Opts.DrainDeadlineMs) + "ms");
    }

    routeReplies(NowMs);

    // Retire connections that are finished: read side closed (peer EOF or
    // drain), no request in flight, every reply flushed.
    for (auto &[Id, C] : Conns)
      if (C.Fd >= 0 && C.ReadClosed && C.InFlight == 0 && C.Outbox.empty())
        closeConnection(C, "done");

    // Sweep closed entries before building the poll set.
    for (auto It = Conns.begin(); It != Conns.end();)
      It = It->second.Fd < 0 ? Conns.erase(It) : ++It;

    if (StopRequested.load(std::memory_order_acquire) ||
        (Draining && NowMs >= DrainDeadlineAtMs)) {
      if (!Conns.empty()) {
        DrainedCleanly.store(false, std::memory_order_release);
        log("drain: deadline exceeded; force-closing " +
            std::to_string(Conns.size()) + " connection(s)");
        for (auto &[Id, C] : Conns)
          closeConnection(C, "force-closed");
        Conns.clear();
      }
      break;
    }
    if (Draining && Conns.empty())
      break; // Clean drain: everything finished inside the deadline.

    // Poll set: wake pipe, listener (while accepting), every connection.
    std::vector<pollfd> Fds;
    std::vector<uint64_t> FdConn;
    Fds.push_back({WakeReadFd, POLLIN, 0});
    size_t Base = 1;
    if (!Draining && ListenFd >= 0) {
      Fds.push_back({ListenFd, POLLIN, 0});
      Base = 2;
    }
    for (auto &[Id, C] : Conns) {
      short Events = 0;
      if (!C.ReadClosed)
        Events |= POLLIN;
      if (!C.Outbox.empty())
        Events |= POLLOUT;
      Fds.push_back({C.Fd, Events, 0});
      FdConn.push_back(Id);
    }

    // Sleep until the nearest deadline (drain, idle, or frame-completion),
    // capped so bookkeeping stays fresh even under clock oddities.
    uint64_t NextDeadline = UINT64_MAX;
    if (Draining)
      NextDeadline = DrainDeadlineAtMs;
    for (auto &[Id, C] : Conns) {
      if (!C.ReadClosed && Opts.FrameTimeoutMs && C.PartialSinceMs)
        NextDeadline =
            std::min(NextDeadline, C.PartialSinceMs + Opts.FrameTimeoutMs);
      if (!C.ReadClosed && Opts.IdleTimeoutMs && C.InFlight == 0 &&
          C.Outbox.empty())
        NextDeadline =
            std::min(NextDeadline, C.LastActivityMs + Opts.IdleTimeoutMs);
    }
    int Timeout = 500;
    if (NextDeadline != UINT64_MAX)
      Timeout = NextDeadline <= NowMs
                    ? 0
                    : static_cast<int>(
                          std::min<uint64_t>(NextDeadline - NowMs, 500));

    int Ready = ::poll(Fds.data(), static_cast<nfds_t>(Fds.size()), Timeout);
    NowMs = monoMillis();
    if (Ready < 0 && errno != EINTR) {
      log(std::string("poll failed: ") + std::strerror(errno) +
          "; shutting down");
      StopRequested.store(true, std::memory_order_release);
      continue;
    }

    if (Fds[0].revents & POLLIN) {
      char Buf[256];
      while (::read(WakeReadFd, Buf, sizeof(Buf)) > 0) {
      }
    }
    if (Base == 2 && (Fds[1].revents & POLLIN))
      acceptPending(NowMs);

    for (size_t I = Base; I < Fds.size(); ++I) {
      auto It = Conns.find(FdConn[I - Base]);
      if (It == Conns.end())
        continue;
      Connection &C = It->second;
      if (C.Fd >= 0 && (Fds[I].revents & POLLOUT))
        flushTo(C, NowMs);
      if (C.Fd >= 0 && (Fds[I].revents & POLLIN))
        readFrom(C, NowMs);
      if (C.Fd >= 0 && (Fds[I].revents & (POLLERR | POLLNVAL)))
        closeConnection(C, "socket error");
      // A pure hangup on a connection we no longer read from (POLLIN
      // cases see the EOF via read()).
      if (C.Fd >= 0 && (Fds[I].revents & POLLHUP) && C.ReadClosed &&
          C.Outbox.empty() && C.InFlight == 0)
        closeConnection(C, "hangup");
    }

    enforceTimeouts(NowMs);
  }

  // Shut the router: completion callbacks still in flight inside the
  // SessionManager hold it by shared_ptr and will now drop their replies
  // instead of touching the dead wake pipe.
  {
    std::lock_guard<std::mutex> Lock(Router->Mutex);
    Router->Closed = true;
    Router->WakeWriteFd = -1;
    Router->Pending.clear();
  }
  if (ListenFd >= 0) {
    closeSocket(ListenFd);
    ListenFd = -1;
  }
  M.ActiveGauge.set(0);
  Active.store(0, std::memory_order_relaxed);
  LoopRunning.store(false, std::memory_order_release);
}

void NetServer::acceptPending(uint64_t NowMs) {
  NetMetrics &M = NetMetrics::get();
  for (;;) {
    Result<int> A = acceptConnection(ListenFd);
    if (!A) {
      log("accept failed: " + A.error());
      return;
    }
    if (*A < 0)
      return; // Nothing pending.
    int Fd = *A;
    M.Accepted.add();
    AcceptedTotal.fetch_add(1, std::memory_order_relaxed);

    if (Conns.size() >= Opts.MaxConnections) {
      // Shed load loudly: a clean JSON-RPC error (best effort — the
      // socket buffer of a fresh connection always has room for one small
      // frame) and an attributed drop, instead of a mystery hang. The drop
      // is counted before the close, as in dropConnection(), so a peer
      // that sees the close also sees the counter.
      std::string Frame = rpc::frame(rpc::makeErrorResponse(
          0, rpc::ServerOverloaded,
          "server at its connection cap (" +
              std::to_string(Opts.MaxConnections) + ")"));
      (void)sendNoSignal(Fd, Frame.data(), Frame.size());
      M.Dropped.add();
      M.DropMaxConns.add();
      DroppedTotal.fetch_add(1, std::memory_order_relaxed);
      log("connection shed: at the " + std::to_string(Opts.MaxConnections) +
          "-connection cap (maxConnections)");
      closeSocket(Fd);
      continue;
    }

    if (Opts.SendBufferBytes > 0)
      setsockopt(Fd, SOL_SOCKET, SO_SNDBUF, &Opts.SendBufferBytes,
                 sizeof(Opts.SendBufferBytes));

    uint64_t Id = ++NextConnId;
    Connection &C = Conns[Id];
    C.Fd = Fd;
    C.Id = Id;
    C.Session = NextSession;
    NextSession = (NextSession + 1) % std::max(1u, Manager.sessionCount());
    C.Reader = rpc::FrameReader(Opts.Wire);
    C.AcceptUs = monoMicros();
    C.LastActivityMs = NowMs;
    refreshActive();
  }
}

void NetServer::readFrom(Connection &C, uint64_t NowMs) {
  NetMetrics &M = NetMetrics::get();
  thread_local std::string Scratch;
  Scratch.resize(std::max<size_t>(Opts.ReadChunkBytes, 512));

  size_t PassBytes = 0;
  for (;;) {
    ssize_t N = ::read(C.Fd, Scratch.data(), Scratch.size());
    if (N > 0) {
      M.BytesIn.add(static_cast<uint64_t>(N));
      C.LastActivityMs = NowMs;
      if (!C.SawFirstByte) {
        C.SawFirstByte = true;
        M.FirstByteUs.record(monoMicros() - C.AcceptUs);
      }
      C.Reader.feed(std::string_view(Scratch.data(), static_cast<size_t>(N)));
      for (;;) {
        std::optional<json::Value> Msg = C.Reader.poll();
        // Corrupt frames cost one error response each; the reader has
        // already resynchronized (same contract as handleWire).
        for (rpc::FrameError &E : C.Reader.takeErrors()) {
          M.FrameErrors.add();
          ++C.FrameErrors;
          if (!enqueueReply(
                  C, rpc::frame(rpc::makeErrorResponse(0, E.Code, E.Message))))
            return; // Dropped for backpressure.
        }
        if (!Msg)
          break;
        M.FramesIn.add();
        if (!C.SawFirstFrame) {
          C.SawFirstFrame = true;
          M.FirstFrameUs.record(monoMicros() - C.AcceptUs);
        }
        submitFrame(C, std::move(*Msg));
      }
      if (C.FrameErrors > Opts.MaxFrameErrors) {
        dropConnection(C, DropReason::ParseError,
                       std::to_string(C.FrameErrors) +
                           " corrupt frames (cap " +
                           std::to_string(Opts.MaxFrameErrors) + ")");
        return;
      }
      // An incomplete frame sitting in the reader starts (or continues)
      // the slow-loris clock; a clean boundary resets it.
      if (C.Reader.bufferedBytes() > 0) {
        if (C.PartialSinceMs == 0)
          C.PartialSinceMs = NowMs;
      } else {
        C.PartialSinceMs = 0;
      }
      PassBytes += static_cast<size_t>(N);
      if (PassBytes >= 4 * Opts.ReadChunkBytes)
        return; // Fairness: give other connections the loop back.
      continue;
    }
    if (N == 0) {
      // EOF. Keep the connection while replies are still owed (clients
      // may shutdown(SHUT_WR) and read the tail); the loop retires it
      // once in-flight work and the outbox empty out.
      C.ReadClosed = true;
      return;
    }
    if (errno == EINTR)
      continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      return;
    closeConnection(C, std::string("read error: ") + std::strerror(errno));
    return;
  }
}

void NetServer::flushTo(Connection &C, uint64_t NowMs) {
  NetMetrics &M = NetMetrics::get();
  while (!C.Outbox.empty()) {
    const std::string &Front = C.Outbox.front();
    ssize_t N = sendNoSignal(C.Fd, Front.data() + C.FrontSent,
                             Front.size() - C.FrontSent);
    if (N > 0) {
      M.BytesOut.add(static_cast<uint64_t>(N));
      C.FrontSent += static_cast<size_t>(N);
      C.LastActivityMs = NowMs;
      if (C.FrontSent == Front.size()) {
        C.OutboxBytes -= Front.size();
        C.FrontSent = 0;
        C.Outbox.pop_front();
      }
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return; // Kernel buffer full; POLLOUT will resume the flush.
    // EPIPE/ECONNRESET and friends: the peer vanished mid-reply. Thanks
    // to sendNoSignal()/ignoreSigpipe() this is an errno, not a signal.
    M.WriteErrors.add();
    closeConnection(C, std::string("write error: ") + std::strerror(errno));
    return;
  }
}

void NetServer::routeReplies(uint64_t NowMs) {
  std::vector<RoutedReply> Batch;
  {
    std::lock_guard<std::mutex> Lock(Router->Mutex);
    Batch.swap(Router->Pending);
  }
  for (RoutedReply &R : Batch) {
    auto It = Conns.find(R.ConnId);
    if (It == Conns.end() || It->second.Fd < 0)
      continue; // Connection already gone; its reply dies here.
    Connection &C = It->second;
    // Pushes are not paired with a submitted request; decrementing here
    // would let a flood of notifications mask a genuinely in-flight
    // request from the idle-timeout and drain logic.
    if (!R.Notification && C.InFlight > 0)
      --C.InFlight;
    if (!enqueueReply(C, std::move(R.FramedBytes)))
      continue; // Dropped for backpressure.
    // Opportunistic flush: the common reply fits the socket buffer, so
    // most responses leave without waiting for a POLLOUT round trip.
    flushTo(C, NowMs);
  }
}

void NetServer::submitFrame(Connection &C, json::Value Message) {
  ++C.InFlight;
  std::shared_ptr<ReplyRouter> R = Router;
  uint64_t ConnId = C.Id;
  // The notify channel is self-contained (router by shared_ptr, id by
  // value): the server binds it into any subscription this request
  // creates, and pushes keep flowing long after this frame's reply —
  // through the SAME outbox as responses, so MaxWriteQueueBytes and the
  // drop accounting govern a flooded subscriber exactly like a slow
  // reader (net.drop.writeBackpressure).
  Manager.submitAsync(
      C.Session, std::move(Message),
      [R, ConnId](json::Value Response) {
        R->route(ConnId, rpc::frame(Response));
      },
      [R, ConnId](json::Value Notification) {
        R->route(ConnId, rpc::frame(Notification), /*Notification=*/true);
      });
}

bool NetServer::enqueueReply(Connection &C, std::string FramedBytes) {
  C.OutboxBytes += FramedBytes.size();
  C.Outbox.push_back(std::move(FramedBytes));
  if (C.OutboxBytes > Opts.MaxWriteQueueBytes) {
    dropConnection(C, DropReason::WriteBackpressure,
                   std::to_string(C.OutboxBytes) +
                       " undelivered reply bytes (cap " +
                       std::to_string(Opts.MaxWriteQueueBytes) + ")");
    return false;
  }
  return true;
}

void NetServer::enforceTimeouts(uint64_t NowMs) {
  for (auto &[Id, C] : Conns) {
    if (C.Fd < 0 || C.ReadClosed)
      continue;
    if (Opts.FrameTimeoutMs && C.PartialSinceMs &&
        NowMs - C.PartialSinceMs >= Opts.FrameTimeoutMs) {
      dropConnection(C, DropReason::IdleTimeout,
                     "frame incomplete after " +
                         std::to_string(NowMs - C.PartialSinceMs) +
                         "ms (slow-loris)");
      continue;
    }
    if (Opts.IdleTimeoutMs && C.InFlight == 0 && C.Outbox.empty() &&
        NowMs - C.LastActivityMs >= Opts.IdleTimeoutMs)
      dropConnection(C, DropReason::IdleTimeout,
                     "idle for " + std::to_string(NowMs - C.LastActivityMs) +
                         "ms");
  }
}

void NetServer::dropConnection(Connection &C, DropReason Reason,
                               const std::string &Detail) {
  NetMetrics &M = NetMetrics::get();
  M.Dropped.add();
  switch (Reason) {
  case DropReason::IdleTimeout:
    M.DropIdle.add();
    break;
  case DropReason::WriteBackpressure:
    M.DropBackpressure.add();
    break;
  case DropReason::MaxConnections:
    M.DropMaxConns.add();
    break;
  case DropReason::ParseError:
    M.DropParse.add();
    break;
  }
  DroppedTotal.fetch_add(1, std::memory_order_relaxed);
  log("connection #" + std::to_string(C.Id) + " dropped (" +
      dropReasonName(Reason) + "): " + Detail);
  closeSocket(C.Fd);
  C.Fd = -1;
  refreshActive();
}

void NetServer::closeConnection(Connection &C, const std::string &Why) {
  (void)Why;
  NetMetrics &M = NetMetrics::get();
  M.Closed.add();
  closeSocket(C.Fd);
  C.Fd = -1;
  refreshActive();
}

void NetServer::refreshActive() {
  // Dead entries linger in Conns until the loop's sweep, so the live count
  // must skip them: several connections can retire in one iteration, and
  // size()-based accounting would leave the gauge stuck above zero.
  size_t Live = 0;
  for (const auto &[Id, C] : Conns)
    if (C.Fd >= 0)
      ++Live;
  Active.store(Live, std::memory_order_relaxed);
  NetMetrics::get().ActiveGauge.set(static_cast<int64_t>(Live));
}

} // namespace net
} // namespace ev
