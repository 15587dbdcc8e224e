//===- tests/net_test.cpp - Socket transport robustness -------------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Covers the real-socket transport (net/NetServer.h): TCP and Unix-domain
/// round trips byte-compared to the in-process server, incremental-feed
/// framing at every split offset, the timeout/backpressure/shed/parse drop
/// paths with their telemetry attribution, SIGPIPE-proof writes, graceful
/// drain (including a cancel storm mid-drain), and seeded chaos feeds. The
/// `easyview_net` ctest entry (and the tsan preset) runs exactly these
/// suites, so every name starts with "Net".
///
//===----------------------------------------------------------------------===//

#include "ide/JsonRpc.h"
#include "ide/PvpServer.h"
#include "ide/SessionManager.h"
#include "net/NetServer.h"
#include "net/Socket.h"
#include "proto/EvProf.h"
#include "support/Chaos.h"
#include "support/Strings.h"
#include "support/Telemetry.h"

#include "TestHelpers.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

using namespace ev;

namespace {

uint64_t counterValue(const char *Name) {
  return telemetry::Registry::global().counter(Name).value();
}

/// Spins until \p Pred holds or \p TimeoutMs elapses.
template <typename Pred> bool waitUntil(Pred &&P, int TimeoutMs = 5000) {
  auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(TimeoutMs);
  while (!P()) {
    if (std::chrono::steady_clock::now() >= Deadline)
      return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

int errorCodeOf(const json::Value &Response) {
  const json::Value *E = Response.asObject().find("error");
  if (!E)
    return 0;
  return static_cast<int>(E->asObject().find("code")->asInt());
}

const json::Object *resultOf(const json::Value &Response) {
  const json::Value *R = Response.asObject().find("result");
  return R ? &R->asObject() : nullptr;
}

json::Value openRequest(int64_t ReqId, const std::string &Bytes) {
  json::Object P;
  P.set("name", "net.evprof");
  P.set("dataBase64", base64Encode(Bytes));
  return rpc::makeRequest(ReqId, "pvp/open", std::move(P));
}

json::Value flameRequest(int64_t ReqId, int64_t Prof, int64_t MaxRects = 128) {
  json::Object P;
  P.set("profile", Prof);
  P.set("maxRects", MaxRects);
  return rpc::makeRequest(ReqId, "pvp/flame", std::move(P));
}

json::Value treeTableRequest(int64_t ReqId, int64_t Prof) {
  json::Object P;
  P.set("profile", Prof);
  return rpc::makeRequest(ReqId, "pvp/treeTable", std::move(P));
}

json::Value searchRequest(int64_t ReqId, int64_t Prof,
                          const std::string &Pattern) {
  json::Object P;
  P.set("profile", Prof);
  P.set("pattern", Pattern);
  return rpc::makeRequest(ReqId, "pvp/search", std::move(P));
}

json::Value cancelNotification(int64_t ReqId, int64_t TargetId) {
  json::Object P;
  P.set("id", TargetId);
  return rpc::makeRequest(ReqId, "$/cancelRequest", std::move(P));
}

/// A blocking test client over one socket fd: framed sends, deadline reads.
struct NetClient {
  int Fd = -1;
  rpc::FrameReader Reader;

  explicit NetClient(int Fd) : Fd(Fd) {}
  NetClient(NetClient &&O) : Fd(O.Fd), Reader(std::move(O.Reader)) {
    O.Fd = -1;
  }
  ~NetClient() { net::closeSocket(Fd); }

  static NetClient connectTcp(const std::string &HostPort) {
    Result<int> Fd = net::connectTcp(HostPort);
    EXPECT_TRUE(bool(Fd)) << (Fd ? "" : Fd.error());
    return NetClient(Fd ? *Fd : -1);
  }
  static NetClient connectUnix(const std::string &Path) {
    Result<int> Fd = net::connectUnix(Path);
    EXPECT_TRUE(bool(Fd)) << (Fd ? "" : Fd.error());
    return NetClient(Fd ? *Fd : -1);
  }

  bool sendRaw(std::string_view Bytes) {
    size_t Sent = 0;
    while (Sent < Bytes.size()) {
      ssize_t N =
          net::sendNoSignal(Fd, Bytes.data() + Sent, Bytes.size() - Sent);
      if (N < 0) {
        if (errno == EINTR)
          continue;
        return false;
      }
      Sent += static_cast<size_t>(N);
    }
    return true;
  }

  bool send(const json::Value &Payload) { return sendRaw(rpc::frame(Payload)); }

  /// \returns the next framed message, or nullopt on timeout/EOF. Framing
  /// errors fail the test (clients of a healthy server never see them).
  std::optional<json::Value> readFrame(int TimeoutMs = 10000) {
    auto Deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(TimeoutMs);
    for (;;) {
      if (std::optional<json::Value> Msg = Reader.poll()) {
        EXPECT_TRUE(Reader.takeErrors().empty());
        return Msg;
      }
      auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
                      Deadline - std::chrono::steady_clock::now())
                      .count();
      if (Left <= 0)
        return std::nullopt;
      pollfd P{Fd, POLLIN, 0};
      if (::poll(&P, 1, static_cast<int>(Left)) <= 0)
        continue;
      char Buf[4096];
      ssize_t N = ::read(Fd, Buf, sizeof(Buf));
      if (N == 0)
        return std::nullopt; // EOF.
      if (N < 0) {
        if (errno == EINTR || errno == EAGAIN)
          continue;
        return std::nullopt; // Reset by the server (a drop).
      }
      Reader.feed(std::string_view(Buf, static_cast<size_t>(N)));
    }
  }

  /// \returns true once the server has closed this connection (EOF or
  /// reset) within \p TimeoutMs, draining any pending replies first.
  bool waitForClose(int TimeoutMs = 5000) {
    auto Deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(TimeoutMs);
    for (;;) {
      auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
                      Deadline - std::chrono::steady_clock::now())
                      .count();
      if (Left <= 0)
        return false;
      pollfd P{Fd, POLLIN, 0};
      if (::poll(&P, 1, static_cast<int>(Left)) <= 0)
        continue;
      char Buf[4096];
      ssize_t N = ::read(Fd, Buf, sizeof(Buf));
      if (N == 0)
        return true;
      if (N < 0 && errno != EINTR && errno != EAGAIN)
        return true; // ECONNRESET counts as closed.
    }
  }
};

/// A manager + server bound to a fresh loopback port, with captured logs.
struct ServerFixture {
  std::mutex LogMutex;
  std::vector<std::string> Logs;
  SessionManager Manager;
  net::NetServer Server;

  explicit ServerFixture(net::NetServerOptions NOpts = {},
                         SessionManager::Options MOpts = {})
      : Manager(withDefaults(MOpts)), Server(Manager, captureLog(NOpts)) {
    Result<bool> Bound = Server.listenTcp("127.0.0.1:0");
    EXPECT_TRUE(bool(Bound)) << (Bound ? "" : Bound.error());
    Result<bool> Started = Server.start();
    EXPECT_TRUE(bool(Started)) << (Started ? "" : Started.error());
  }

  NetClient connect() { return NetClient::connectTcp(Server.boundAddress()); }

  bool sawLog(const std::string &Needle) {
    std::lock_guard<std::mutex> Lock(LogMutex);
    for (const std::string &L : Logs)
      if (L.find(Needle) != std::string::npos)
        return true;
    return false;
  }

private:
  static SessionManager::Options withDefaults(SessionManager::Options O) {
    return O;
  }
  net::NetServerOptions captureLog(net::NetServerOptions O) {
    O.Log = [this](const std::string &Line) {
      std::lock_guard<std::mutex> Lock(LogMutex);
      Logs.push_back(Line);
    };
    return O;
  }
};

/// Replays a clean open + views script through \p Submit and returns every
/// view reply's dump (the open reply is excluded: profile ids legitimately
/// differ between a shared store and a standalone server).
std::vector<std::string>
replayViews(const std::string &OpenBytes,
            const std::function<json::Value(const json::Value &)> &Submit) {
  std::vector<std::string> Views;
  json::Value Opened = Submit(openRequest(1, OpenBytes));
  const json::Object *R = resultOf(Opened);
  EXPECT_NE(R, nullptr) << Opened.dump();
  int64_t Prof = R ? R->find("profile")->asInt() : -1;
  for (int I = 0; I < 12; ++I) {
    int64_t ReqId = 100 + I;
    json::Value Reply = (I % 3 == 0) ? Submit(treeTableRequest(ReqId, Prof))
                        : (I % 3 == 1)
                            ? Submit(flameRequest(ReqId, Prof))
                            : Submit(searchRequest(ReqId, Prof, "f"));
    Views.push_back(Reply.dump());
  }
  return Views;
}

} // namespace

//===----------------------------------------------------------------------===
// Round trips: socket replies must match the in-process server
//===----------------------------------------------------------------------===

TEST(NetRoundTrip, TcpMatchesInProcessServerByteForByte) {
  ServerFixture F;
  NetClient C = F.connect();
  std::string Bytes = writeEvProf(test::makeRandomProfile(42));

  std::vector<std::string> OverSocket =
      replayViews(Bytes, [&](const json::Value &Req) {
        EXPECT_TRUE(C.send(Req));
        std::optional<json::Value> Reply = C.readFrame();
        EXPECT_TRUE(Reply.has_value());
        return Reply ? *Reply : json::Value();
      });

  PvpServer Sequential;
  std::vector<std::string> Reference =
      replayViews(Bytes, [&](const json::Value &Req) {
        return Sequential.handleMessage(Req);
      });

  ASSERT_EQ(OverSocket.size(), Reference.size());
  for (size_t I = 0; I < Reference.size(); ++I)
    EXPECT_EQ(OverSocket[I], Reference[I]) << "view reply " << I;
}

TEST(NetRoundTrip, UnixDomainSocketServesIdenticalReplies) {
  std::string Path = "/tmp/easyview-net-test-" +
                     std::to_string(static_cast<unsigned>(getpid())) + ".sock";
  SessionManager Manager(SessionManager::Options{});
  net::NetServerOptions NOpts;
  NOpts.Log = [](const std::string &) {};
  net::NetServer Server(Manager, NOpts);
  Result<bool> Bound = Server.listenUnix(Path);
  ASSERT_TRUE(bool(Bound)) << (Bound ? "" : Bound.error());
  ASSERT_TRUE(bool(Server.start()));

  NetClient C = NetClient::connectUnix(Path);
  std::string Bytes = writeEvProf(test::makeFixedProfile());
  std::vector<std::string> OverSocket =
      replayViews(Bytes, [&](const json::Value &Req) {
        EXPECT_TRUE(C.send(Req));
        std::optional<json::Value> Reply = C.readFrame();
        EXPECT_TRUE(Reply.has_value());
        return Reply ? *Reply : json::Value();
      });
  PvpServer Sequential;
  std::vector<std::string> Reference = replayViews(
      Bytes,
      [&](const json::Value &Req) { return Sequential.handleMessage(Req); });
  EXPECT_EQ(OverSocket, Reference);

  EXPECT_TRUE(Server.drain());
  // The socket file is reclaimed on shutdown.
  EXPECT_NE(access(Path.c_str(), F_OK), 0);
}

TEST(NetRoundTrip, PipelinedRequestsComeBackInOrder) {
  ServerFixture F;
  NetClient C = F.connect();
  std::string Bytes = writeEvProf(test::makeFixedProfile());
  ASSERT_TRUE(C.send(openRequest(1, Bytes)));
  std::optional<json::Value> Opened = C.readFrame();
  ASSERT_TRUE(Opened.has_value());
  int64_t Prof = resultOf(*Opened)->find("profile")->asInt();

  // One burst, no interleaved reads: the strand must answer in FIFO order.
  std::string Burst;
  for (int64_t Id = 10; Id < 30; ++Id)
    Burst += rpc::frame(Id % 2 ? flameRequest(Id, Prof)
                               : treeTableRequest(Id, Prof));
  ASSERT_TRUE(C.sendRaw(Burst));
  for (int64_t Id = 10; Id < 30; ++Id) {
    std::optional<json::Value> Reply = C.readFrame();
    ASSERT_TRUE(Reply.has_value()) << "reply " << Id;
    EXPECT_EQ(Reply->asObject().find("id")->asInt(), Id);
    EXPECT_NE(resultOf(*Reply), nullptr);
  }
}

//===----------------------------------------------------------------------===
// Incremental feed: a frame split anywhere must parse identically
//===----------------------------------------------------------------------===

TEST(NetFrameSplit, EveryOffsetParsesIdenticallyToOneShot) {
  // A stream of frames with unlike shapes: tiny, nested params, a body
  // containing header-like text ("Content-Length:" inside a JSON string),
  // and a multi-kilobyte payload.
  std::string Stream;
  std::vector<json::Value> Payloads;
  {
    json::Object A;
    A.set("profile", 1);
    Payloads.push_back(rpc::makeRequest(1, "pvp/flame", std::move(A)));
    json::Object Inner;
    Inner.set("pattern", "Content-Length: 99\r\n\r\n{}");
    json::Object B;
    B.set("profile", 2);
    B.set("nested", std::move(Inner));
    Payloads.push_back(rpc::makeRequest(2, "pvp/search", std::move(B)));
    json::Object C;
    C.set("blob", std::string(4096, 'x'));
    Payloads.push_back(rpc::makeRequest(3, "pvp/open", std::move(C)));
    Payloads.push_back(rpc::makeNotification("$/cancelRequest, sort of",
                                             json::Object()));
    for (const json::Value &P : Payloads)
      Stream += rpc::frame(P);
  }

  // One-shot reference.
  std::vector<std::string> Reference;
  {
    rpc::FrameReader R;
    R.feed(Stream);
    while (std::optional<json::Value> M = R.poll())
      Reference.push_back(M->dump());
    EXPECT_TRUE(R.takeErrors().empty());
    ASSERT_EQ(Reference.size(), Payloads.size());
  }

  // Table-driven: split the stream at EVERY offset; both halves fed in
  // sequence must yield the same messages with zero errors, resyncs, or
  // dropped bytes — a frame boundary is never special.
  for (size_t Split = 0; Split <= Stream.size(); ++Split) {
    rpc::FrameReader R;
    std::vector<std::string> Got;
    R.feed(std::string_view(Stream).substr(0, Split));
    while (std::optional<json::Value> M = R.poll())
      Got.push_back(M->dump());
    R.feed(std::string_view(Stream).substr(Split));
    while (std::optional<json::Value> M = R.poll())
      Got.push_back(M->dump());
    ASSERT_EQ(Got, Reference) << "split at offset " << Split;
    ASSERT_TRUE(R.takeErrors().empty()) << "split at offset " << Split;
    ASSERT_EQ(R.resyncCount(), 0u) << "split at offset " << Split;
    ASSERT_EQ(R.droppedBytes(), 0u) << "split at offset " << Split;
    ASSERT_EQ(R.bufferedBytes(), 0u) << "split at offset " << Split;
  }
}

TEST(NetFrameSplit, ChunkedSocketDeliveryMatchesSingleWrite) {
  ServerFixture F;
  std::string Bytes = writeEvProf(test::makeFixedProfile());

  // Reference: whole request in one write.
  NetClient One = F.connect();
  ASSERT_TRUE(One.send(openRequest(1, Bytes)));
  std::optional<json::Value> RefOpen = One.readFrame();
  ASSERT_TRUE(RefOpen.has_value());
  int64_t RefProf = resultOf(*RefOpen)->find("profile")->asInt();
  ASSERT_TRUE(One.send(treeTableRequest(2, RefProf)));
  std::optional<json::Value> RefTable = One.readFrame();
  ASSERT_TRUE(RefTable.has_value());

  // Same script delivered in small chunks across many writes.
  NetClient Chunked = F.connect();
  std::string Frame = rpc::frame(openRequest(1, Bytes));
  for (size_t I = 0; I < Frame.size(); I += 97)
    ASSERT_TRUE(Chunked.sendRaw(
        std::string_view(Frame).substr(I, std::min<size_t>(97, Frame.size() - I))));
  std::optional<json::Value> Open = Chunked.readFrame();
  ASSERT_TRUE(Open.has_value());
  int64_t Prof = resultOf(*Open)->find("profile")->asInt();
  Frame = rpc::frame(treeTableRequest(2, Prof));
  for (size_t I = 0; I < Frame.size(); I += 7)
    ASSERT_TRUE(Chunked.sendRaw(
        std::string_view(Frame).substr(I, std::min<size_t>(7, Frame.size() - I))));
  std::optional<json::Value> Table = Chunked.readFrame();
  ASSERT_TRUE(Table.has_value());

  EXPECT_EQ(Table->dump(), RefTable->dump());
}

//===----------------------------------------------------------------------===
// SIGPIPE safety
//===----------------------------------------------------------------------===

TEST(NetSigpipe, WriteToClosedPeerIsErrnoNotFatalSignal) {
  net::ignoreSigpipe();
  int Pair[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, Pair), 0);
  net::closeSocket(Pair[0]); // Peer vanishes.
  // The first write may succeed into the dead socket's buffer; keep
  // writing until the kernel reports the broken pipe. If SIGPIPE were
  // deliverable this loop would kill the process instead of returning.
  const char Byte = 'x';
  ssize_t Last = 0;
  for (int I = 0; I < 64 && Last >= 0; ++I)
    Last = net::sendNoSignal(Pair[1], &Byte, 1);
  EXPECT_LT(Last, 0);
  EXPECT_EQ(errno, EPIPE);
  net::closeSocket(Pair[1]);
}

TEST(NetSigpipe, ServerSurvivesPeerVanishingBeforeReply) {
  ServerFixture F;
  std::string Bytes = writeEvProf(test::makeRandomProfile(7));
  // Fire requests and slam the connection shut without reading: replies
  // hit a dead peer and must cost the connection, never the process.
  for (int Round = 0; Round < 4; ++Round) {
    NetClient C = F.connect();
    ASSERT_TRUE(C.send(openRequest(1, Bytes)));
    ASSERT_TRUE(C.send(flameRequest(2, 1, 4096)));
    // Destructor closes abruptly with replies (possibly) in flight.
  }
  EXPECT_TRUE(waitUntil([&] { return F.Server.activeConnections() == 0; }));
  // The server still serves a polite client correctly.
  NetClient C = F.connect();
  ASSERT_TRUE(C.send(openRequest(1, Bytes)));
  std::optional<json::Value> Reply = C.readFrame();
  ASSERT_TRUE(Reply.has_value());
  EXPECT_NE(resultOf(*Reply), nullptr);
  EXPECT_TRUE(F.Server.running());
}

//===----------------------------------------------------------------------===
// Drop paths: every server-initiated disconnect has a named, counted reason
//===----------------------------------------------------------------------===

TEST(NetTimeout, IdleConnectionDroppedAsIdleTimeout) {
  net::NetServerOptions NOpts;
  NOpts.IdleTimeoutMs = 100;
  ServerFixture F(NOpts);
  uint64_t Before = counterValue("net.drop.idleTimeout");
  NetClient C = F.connect();
  EXPECT_TRUE(C.waitForClose(5000)); // Sent nothing; the server hangs up.
  EXPECT_GE(counterValue("net.drop.idleTimeout"), Before + 1);
  EXPECT_GE(F.Server.droppedConnections(), 1u);
  EXPECT_TRUE(F.sawLog("idleTimeout"));
}

TEST(NetTimeout, SlowLorisFrameDroppedAsIdleTimeout) {
  net::NetServerOptions NOpts;
  NOpts.FrameTimeoutMs = 100;
  NOpts.IdleTimeoutMs = 60000; // Only the frame clock may fire.
  ServerFixture F(NOpts);
  uint64_t Before = counterValue("net.drop.idleTimeout");
  NetClient C = F.connect();
  // One byte every 20ms never finishes a header inside 100ms.
  std::string Frame = rpc::frame(flameRequest(1, 1));
  bool Closed = false;
  for (size_t I = 0; I < Frame.size() && !Closed; ++I) {
    if (!C.sendRaw(std::string_view(Frame).substr(I, 1)))
      Closed = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(Closed || C.waitForClose(5000));
  EXPECT_GE(counterValue("net.drop.idleTimeout"), Before + 1);
  EXPECT_TRUE(F.sawLog("slow-loris"));
}

TEST(NetBackpressure, SlowReaderDroppedAtWriteQueueCap) {
  net::NetServerOptions NOpts;
  NOpts.MaxWriteQueueBytes = 16u << 10;
  NOpts.SendBufferBytes = 1; // Kernel clamps to its floor; still tiny.
  ServerFixture F(NOpts);
  uint64_t Before = counterValue("net.drop.writeBackpressure");
  NetClient C = F.connect();
  std::string Bytes = writeEvProf(test::makeRandomProfile(11));
  ASSERT_TRUE(C.send(openRequest(1, Bytes)));
  std::optional<json::Value> Opened = C.readFrame();
  ASSERT_TRUE(Opened.has_value());
  int64_t Prof = resultOf(*Opened)->find("profile")->asInt();
  // Large replies, never read: the kernel buffer fills, the outbox crosses
  // the cap, and the server cuts the connection instead of buffering on.
  for (int64_t Id = 2; Id < 40; ++Id)
    if (!C.send(flameRequest(Id, Prof, 100000)))
      break; // Already cut.
  EXPECT_TRUE(C.waitForClose(10000));
  EXPECT_GE(counterValue("net.drop.writeBackpressure"), Before + 1);
  EXPECT_TRUE(F.sawLog("writeBackpressure"));
}

// The flood below decodes and diffs every appended section before the
// outbox crosses its cap; ThreadSanitizer slows that path several-fold, so
// only its build waits longer for the cut.
#ifdef __SANITIZE_THREAD__
constexpr int FloodCloseTimeoutMs = 90000;
#else
constexpr int FloodCloseTimeoutMs = 10000;
#endif

// Server-initiated pushes ride the same per-connection outbox as replies,
// so a subscriber that stops reading must hit the same write-queue cap and
// be dropped with the same attribution — not buffer without bound. Runs
// under the easyview_subscribe ctest entry (suite name), but lives here to
// reuse the socket fixtures.
TEST(SubscribeNet, FloodedSubscriberDroppedWithAttributedReason) {
  net::NetServerOptions NOpts;
  // Big enough for any single reply or push frame (initial full views run
  // ~300 KiB here); small enough that a few unread push sweeps cross it.
  NOpts.MaxWriteQueueBytes = 1u << 20;
  NOpts.SendBufferBytes = 1; // Kernel clamps to its floor; still tiny.
  ServerFixture F(NOpts);
  uint64_t DropsBefore = counterValue("net.connectionsDropped");
  uint64_t BackpressureBefore = counterValue("net.drop.writeBackpressure");
  uint64_t ByReasonBefore = counterValue("net.drop.idleTimeout") +
                            counterValue("net.drop.writeBackpressure") +
                            counterValue("net.drop.maxConnections") +
                            counterValue("net.drop.parseError");

  // A wide base (~3k leaves) makes every push carry a realistically sized
  // row-order array; ten appendable sections then fan out pushes.
  std::vector<std::string> Stages = test::growthStageBytes(11, 3000);
  NetClient C = F.connect();
  ASSERT_TRUE(C.send(openRequest(1, Stages[0])));
  std::optional<json::Value> Opened = C.readFrame();
  ASSERT_TRUE(Opened.has_value());
  int64_t Prof = resultOf(*Opened)->find("profile")->asInt();

  // Establish the live subscriptions, reading each reply (each carries the
  // full initial view) so the outbox starts empty.
  for (int64_t Id = 2; Id < 34; ++Id) {
    json::Object P;
    P.set("profile", Prof);
    P.set("view", "flame");
    json::Object VP;
    VP.set("maxRects", static_cast<int64_t>(100000));
    P.set("params", json::Value(std::move(VP)));
    ASSERT_TRUE(C.send(rpc::makeRequest(Id, "pvp/subscribe", std::move(P))));
    std::optional<json::Value> Reply = C.readFrame();
    ASSERT_TRUE(Reply.has_value());
    ASSERT_NE(resultOf(*Reply), nullptr) << Reply->dump();
  }

  // Clamp the client's receive buffer to the kernel floor (and disable
  // autotuning, which can otherwise absorb tens of megabytes of unread
  // pushes) so the flood deterministically backs up into the server
  // outbox. Done after the setup reads above, which want a real window.
  int Rcv = 1;
  ASSERT_EQ(setsockopt(C.Fd, SOL_SOCKET, SO_RCVBUF, &Rcv, sizeof(Rcv)), 0);

  // Now go silent and stream appends. The append replies are tiny; the
  // flood is the pushes — one pvp/viewDelta per subscription per section.
  // The kernel buffer fills, the outbox crosses the cap, and the server
  // cuts the subscriber instead of buffering on.
  for (size_t S = 0; S + 1 < Stages.size(); ++S) {
    json::Object AP;
    AP.set("profile", Prof);
    AP.set("dataBase64", base64Encode(test::sectionBytes(Stages, S)));
    if (!C.send(rpc::makeRequest(100 + static_cast<int64_t>(S), "pvp/append",
                                 std::move(AP))))
      break; // Already cut.
  }
  EXPECT_TRUE(C.waitForClose(FloodCloseTimeoutMs));
  EXPECT_GE(counterValue("net.drop.writeBackpressure"), BackpressureBefore + 1);
  EXPECT_TRUE(F.sawLog("writeBackpressure"));
  // The drop invariant holds under pushes: every cut connection is
  // attributed to exactly one named reason.
  uint64_t Drops = counterValue("net.connectionsDropped") - DropsBefore;
  uint64_t ByReason = counterValue("net.drop.idleTimeout") +
                      counterValue("net.drop.writeBackpressure") +
                      counterValue("net.drop.maxConnections") +
                      counterValue("net.drop.parseError") - ByReasonBefore;
  EXPECT_EQ(Drops, ByReason);
}

TEST(NetShed, ConnectionsPastCapGetServerOverloadedError) {
  net::NetServerOptions NOpts;
  NOpts.MaxConnections = 2;
  ServerFixture F(NOpts);
  uint64_t Before = counterValue("net.drop.maxConnections");
  std::string Bytes = writeEvProf(test::makeFixedProfile());

  // Two served connections, verified live with a round trip each.
  std::vector<NetClient> Held;
  for (int I = 0; I < 2; ++I) {
    Held.push_back(F.connect());
    ASSERT_TRUE(Held.back().send(openRequest(1, Bytes)));
    ASSERT_TRUE(Held.back().readFrame().has_value());
  }
  // The third is shed: a clean JSON-RPC error, then close — a fleet spike
  // fails loudly instead of hanging editors.
  NetClient Third = F.connect();
  std::optional<json::Value> Reply = Third.readFrame();
  ASSERT_TRUE(Reply.has_value());
  EXPECT_EQ(errorCodeOf(*Reply), rpc::ServerOverloaded);
  EXPECT_TRUE(Third.waitForClose());
  EXPECT_GE(counterValue("net.drop.maxConnections"), Before + 1);
  // The held connections still work.
  ASSERT_TRUE(Held[0].send(flameRequest(5, 1)));
  EXPECT_TRUE(Held[0].readFrame().has_value());
}

TEST(NetParse, GarbagePreambleStillReachesTheValidFrame) {
  ServerFixture F;
  NetClient C = F.connect();
  std::string Bytes = writeEvProf(test::makeFixedProfile());
  // An HTTP-ish preamble (a confused client) followed by a valid request:
  // the reader resynchronizes, answers the garbage with an error response,
  // and the real request still gets its reply.
  ASSERT_TRUE(C.sendRaw("GET /metrics HTTP/1.1\r\nHost: wrong-protocol\r\n"));
  ASSERT_TRUE(C.send(openRequest(1, Bytes)));
  bool SawOpenReply = false;
  for (int I = 0; I < 4 && !SawOpenReply; ++I) {
    std::optional<json::Value> Reply = C.readFrame();
    ASSERT_TRUE(Reply.has_value());
    if (const json::Object *R = resultOf(*Reply))
      SawOpenReply = R->find("profile") != nullptr;
    else
      EXPECT_EQ(errorCodeOf(*Reply), rpc::ParseError);
  }
  EXPECT_TRUE(SawOpenReply);
}

TEST(NetParse, RelentlessGarbageDroppedAsParseError) {
  net::NetServerOptions NOpts;
  NOpts.MaxFrameErrors = 4;
  ServerFixture F(NOpts);
  uint64_t Before = counterValue("net.drop.parseError");
  NetClient C = F.connect();
  // Each corrupt frame yields one error response; past the cap the peer is
  // a garbage firehose and gets cut.
  for (int I = 0; I < 32; ++I)
    if (!C.sendRaw("Content-Length: 5\r\n\r\n!!!!!"))
      break;
  EXPECT_TRUE(C.waitForClose());
  EXPECT_GE(counterValue("net.drop.parseError"), Before + 1);
  EXPECT_TRUE(F.sawLog("parseError"));
}

TEST(NetChaos, MidFrameDisconnectLeavesServerServing) {
  ServerFixture F;
  std::string Frame = rpc::frame(flameRequest(1, 1));
  for (int I = 0; I < 8; ++I) {
    NetClient C = F.connect();
    ASSERT_TRUE(C.sendRaw(std::string_view(Frame).substr(0, Frame.size() / 2)));
    // Destructor: abrupt close mid-frame.
  }
  EXPECT_TRUE(waitUntil([&] { return F.Server.activeConnections() == 0; }));
  NetClient C = F.connect();
  std::string Bytes = writeEvProf(test::makeFixedProfile());
  ASSERT_TRUE(C.send(openRequest(1, Bytes)));
  EXPECT_TRUE(C.readFrame().has_value());
}

//===----------------------------------------------------------------------===
// Graceful drain
//===----------------------------------------------------------------------===

TEST(NetDrain, InFlightRequestsFinishBeforeClose) {
  SessionManager::Options MOpts;
  // A path-open of a missing file retries with backoff: a request that
  // provably spans the drain window (~300ms).
  MOpts.Limits.OpenRetry.MaxAttempts = 30;
  MOpts.Limits.OpenRetry.InitialBackoffMs = 10;
  MOpts.Limits.OpenRetry.MaxBackoffMs = 10;
  ServerFixture F({}, MOpts);
  NetClient C = F.connect();
  json::Object Slow;
  Slow.set("path", "/nonexistent/easyview-net-drain.evprof");
  ASSERT_TRUE(C.send(rpc::makeRequest(7, "pvp/open", std::move(Slow))));
  // Let the request reach the strand, then drain while it is in flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  F.Server.requestDrain();
  // The in-flight reply still arrives, then the connection closes.
  std::optional<json::Value> Reply = C.readFrame();
  ASSERT_TRUE(Reply.has_value());
  EXPECT_EQ(Reply->asObject().find("id")->asInt(), 7);
  EXPECT_TRUE(C.waitForClose());
  EXPECT_TRUE(F.Server.waitUntilStopped()); // Clean: inside the deadline.
}

TEST(NetDrain, DeadlineForceClosesStragglers) {
  SessionManager::Options MOpts;
  MOpts.Limits.OpenRetry.MaxAttempts = 200; // ~2s of strand occupancy.
  MOpts.Limits.OpenRetry.InitialBackoffMs = 10;
  MOpts.Limits.OpenRetry.MaxBackoffMs = 10;
  net::NetServerOptions NOpts;
  NOpts.DrainDeadlineMs = 100;
  ServerFixture F(NOpts, MOpts);
  NetClient C = F.connect();
  json::Object Slow;
  Slow.set("path", "/nonexistent/easyview-net-straggler.evprof");
  ASSERT_TRUE(C.send(rpc::makeRequest(1, "pvp/open", std::move(Slow))));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // The blocker outlives the 100ms deadline: drain reports forced, the
  // loop still exits promptly, and the late reply is dropped harmlessly.
  EXPECT_FALSE(F.Server.drain());
  EXPECT_FALSE(F.Server.running());
}

TEST(NetDrain, CancelStormDuringDrainNeverWedges) {
  ServerFixture F;
  std::string Bytes = writeEvProf(test::makeRandomProfile(23));
  constexpr int Clients = 6;
  std::vector<std::thread> Storm;
  std::atomic<int> MalformedReplies{0};
  for (int T = 0; T < Clients; ++T)
    Storm.emplace_back([&, T] {
      NetClient C = F.connect();
      if (!C.send(openRequest(1, Bytes)))
        return;
      std::optional<json::Value> Opened = C.readFrame();
      if (!Opened || !resultOf(*Opened))
        return;
      int64_t Prof = resultOf(*Opened)->find("profile")->asInt();
      for (int64_t Id = 2; Id < 20; ++Id) {
        if (!C.send(flameRequest(Id, Prof)))
          return;
        if (Id % 3 == 0 && !C.send(cancelNotification(100 + Id, Id)))
          return;
      }
      // Read whatever arrives until the drain closes us; every reply must
      // be a well-formed response object.
      while (std::optional<json::Value> Reply = C.readFrame(3000)) {
        if (!Reply->isObject() ||
            (!resultOf(*Reply) && errorCodeOf(*Reply) == 0))
          ++MalformedReplies;
      }
    });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  F.Server.requestDrain(); // Mid-storm.
  EXPECT_TRUE(waitUntil([&] { return !F.Server.running(); }, 15000));
  for (std::thread &T : Storm)
    T.join();
  EXPECT_EQ(MalformedReplies.load(), 0);
}

//===----------------------------------------------------------------------===
// Seeded chaos over a real socket
//===----------------------------------------------------------------------===

TEST(NetChaos, SeededFaultFeedNeverWedgesTheListener) {
  uint64_t DropsBefore = counterValue("net.connectionsDropped");
  uint64_t ByReasonBefore =
      counterValue("net.drop.idleTimeout") +
      counterValue("net.drop.writeBackpressure") +
      counterValue("net.drop.maxConnections") +
      counterValue("net.drop.parseError");
  net::NetServerOptions NOpts;
  NOpts.MaxFrameErrors = 8;
  NOpts.FrameTimeoutMs = 2000;
  ServerFixture F(NOpts);
  std::string Bytes = writeEvProf(test::makeFixedProfile());

  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    chaos::FaultInjector Injector(Seed);
    std::string Stream;
    for (int64_t Id = 1; Id < 6; ++Id) {
      Stream += Injector.garbage(64);
      Stream += Injector.mutateFrame(rpc::frame(
          Id == 1 ? openRequest(Id, Bytes) : flameRequest(Id, 1)));
    }
    chaos::ChaosStream Frags(Stream, Injector);
    NetClient C = F.connect();
    bool PeerGone = false;
    while (std::optional<std::string> Frag = Frags.next()) {
      if (!Frag->empty() && !C.sendRaw(*Frag)) {
        PeerGone = true; // Dropped mid-feed (parse cap); fine.
        break;
      }
    }
    if (!PeerGone)
      while (C.readFrame(200).has_value()) {
      }
  }

  // Whatever the chaos did, the listener still serves, and every drop it
  // made is attributed to exactly one named reason.
  NetClient C = F.connect();
  ASSERT_TRUE(C.send(openRequest(1, Bytes)));
  std::optional<json::Value> Reply = C.readFrame();
  ASSERT_TRUE(Reply.has_value());
  EXPECT_NE(resultOf(*Reply), nullptr);
  uint64_t Drops = counterValue("net.connectionsDropped") - DropsBefore;
  uint64_t ByReason = counterValue("net.drop.idleTimeout") +
                      counterValue("net.drop.writeBackpressure") +
                      counterValue("net.drop.maxConnections") +
                      counterValue("net.drop.parseError") - ByReasonBefore;
  EXPECT_EQ(Drops, ByReason);
}

//===----------------------------------------------------------------------===
// Transport telemetry
//===----------------------------------------------------------------------===

TEST(NetTelemetry, CleanSessionAccountsBytesFramesAndLatency) {
  uint64_t AcceptedBefore = counterValue("net.connectionsAccepted");
  uint64_t FramesBefore = counterValue("net.framesIn");
  uint64_t BytesInBefore = counterValue("net.bytesIn");
  uint64_t BytesOutBefore = counterValue("net.bytesOut");
  telemetry::Histogram &FirstFrame =
      telemetry::Registry::global().histogram("net.acceptToFirstFrameUs");
  uint64_t FirstFrameBefore = FirstFrame.count();

  ServerFixture F;
  {
    NetClient C = F.connect();
    std::string Bytes = writeEvProf(test::makeFixedProfile());
    ASSERT_TRUE(C.send(openRequest(1, Bytes)));
    std::optional<json::Value> Opened = C.readFrame();
    ASSERT_TRUE(Opened.has_value());
    int64_t Prof = resultOf(*Opened)->find("profile")->asInt();
    ASSERT_TRUE(C.send(treeTableRequest(2, Prof)));
    ASSERT_TRUE(C.readFrame().has_value());
  }
  EXPECT_TRUE(waitUntil([&] { return F.Server.activeConnections() == 0; }));

  EXPECT_GE(counterValue("net.connectionsAccepted"), AcceptedBefore + 1);
  EXPECT_GE(counterValue("net.framesIn"), FramesBefore + 2);
  EXPECT_GT(counterValue("net.bytesIn"), BytesInBefore);
  EXPECT_GT(counterValue("net.bytesOut"), BytesOutBefore);
  EXPECT_GE(FirstFrame.count(), FirstFrameBefore + 1);
  EXPECT_EQ(F.Server.activeConnections(), 0u);
  EXPECT_EQ(F.Server.acceptedConnections(), 1u);
}

TEST(NetTelemetry, HistogramPercentileEstimateBracketsTrueRank) {
  telemetry::Histogram H;
  for (uint64_t V = 1; V <= 1000; ++V)
    H.record(V);
  // Log2 buckets guarantee a factor-of-two envelope around the true order
  // statistic; the clamp pins the extremes exactly.
  double P50 = H.percentileEstimate(50);
  EXPECT_GE(P50, 250.0);
  EXPECT_LE(P50, 1000.0);
  double P99 = H.percentileEstimate(99);
  EXPECT_GE(P99, 495.0);
  EXPECT_LE(P99, 1000.0);
  EXPECT_EQ(H.percentileEstimate(100), 1000.0);
  EXPECT_EQ(telemetry::Histogram().percentileEstimate(99), 0.0);
}

