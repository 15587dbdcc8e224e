//===- perfbench/Wire.cpp - Benchmark transports --------------------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "Wire.h"

#include "Common.h"

#include "net/Socket.h"
#include "support/Strings.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include <poll.h>
#include <unistd.h>

using namespace ev;

namespace pb {

//===----------------------------------------------------------------------===//
// Socket transport
//===----------------------------------------------------------------------===//

SocketTransport::SocketTransport(const std::string &HostPort) {
  if (Result<int> R = net::connectTcp(HostPort))
    Fd = *R;
}

SocketTransport::~SocketTransport() { net::closeSocket(Fd); }

bool SocketTransport::call(const std::string &Frame, std::string &Body) {
  return sendAll(Frame) && readBody(Body, 60000);
}

bool SocketTransport::sendAll(const std::string &Bytes) {
  size_t Sent = 0;
  while (Sent < Bytes.size()) {
    ssize_t N = net::sendNoSignal(Fd, Bytes.data() + Sent, Bytes.size() - Sent);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Sent += static_cast<size_t>(N);
  }
  return true;
}

bool SocketTransport::readBody(std::string &Body, int TimeoutMs) {
  if (Pos != 0) {
    Buf.erase(0, Pos);
    Pos = 0;
  }
  Clock::time_point Deadline = Clock::now() + std::chrono::milliseconds(TimeoutMs);
  size_t Need = 0;       // Body length once the header is parsed.
  size_t BodyStart = 0;  // Offset of the body in Buf.
  for (;;) {
    if (Need == 0) {
      size_t End = Buf.find("\r\n\r\n", Pos);
      if (End != std::string::npos) {
        size_t Key = Buf.find("Content-Length:", Pos);
        if (Key == std::string::npos || Key > End)
          return false;
        Need = std::strtoull(Buf.c_str() + Key + 15, nullptr, 10);
        BodyStart = End + 4;
        if (Need == 0)
          return false;
      }
    }
    if (Need != 0 && Buf.size() - BodyStart >= Need) {
      Body.assign(Buf, BodyStart, Need);
      Pos = BodyStart + Need;
      if (Pos == Buf.size()) {
        Buf.clear();
        Pos = 0;
      }
      return true;
    }
    int Left = static_cast<int>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                    Deadline - Clock::now())
                                    .count());
    if (Left <= 0)
      return false;
    pollfd P{Fd, POLLIN, 0};
    if (::poll(&P, 1, Left) <= 0)
      continue;
    char Chunk[64 << 10];
    ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
    if (N == 0)
      return false;
    if (N < 0) {
      if (errno == EINTR || errno == EAGAIN)
        continue;
      return false;
    }
    Buf.append(Chunk, static_cast<size_t>(N));
  }
}

//===----------------------------------------------------------------------===//
// In-process transport
//===----------------------------------------------------------------------===//

namespace {

ServerLimits limitsWithCache(size_t CachedViews) {
  ServerLimits L;
  L.MaxCachedViews = CachedViews;
  return L;
}

} // namespace

InProcessTransport::InProcessTransport(size_t CachedViews)
    : Server(limitsWithCache(CachedViews)) {}

bool InProcessTransport::call(const std::string &Frame, std::string &Body) {
  std::optional<json::Value> Msg;
  {
    Span S("ide.frame.parse", "ide");
    rpc::FrameReader Reader;
    Reader.feed(Frame);
    Msg = Reader.poll();
  }
  if (!Msg || !Msg->isObject())
    return false;
  const json::Value *Method = Msg->asObject().find("method");
  std::string Name = Method && Method->isString() ? Method->asString() : "";
  if (Name.rfind("pvp/", 0) == 0)
    Name.erase(0, 4);
  json::Value Reply;
  {
    Span S("ide.dispatch." + Name, "ide");
    Reply = Server.handleMessage(*Msg);
  }
  std::string Out;
  {
    Span S("ide.frame.write", "ide");
    Out = rpc::frame(Reply);
  }
  size_t Start = Out.find("\r\n\r\n");
  if (Start == std::string::npos)
    return false;
  Body = Out.substr(Start + 4);
  return true;
}

//===----------------------------------------------------------------------===//
// Frames and replies
//===----------------------------------------------------------------------===//

std::string frameBody(const std::string &Body) {
  return "Content-Length: " + std::to_string(Body.size()) + "\r\n\r\n" + Body;
}

std::string requestFrame(int64_t Id, const char *Method, json::Object Params) {
  return rpc::frame(rpc::makeRequest(Id, Method, std::move(Params)));
}

std::optional<json::Value> resultOf(const std::string &Body) {
  Result<json::Value> Doc = json::parse(Body);
  if (!Doc || !Doc->isObject())
    return std::nullopt;
  const json::Value *R = Doc->asObject().find("result");
  if (!R || !R->isObject())
    return std::nullopt;
  return *R;
}

int64_t profileOf(const json::Value &Result) {
  int64_t Id = -1;
  if (const json::Value *P = Result.asObject().find("profile"))
    P->getInteger(Id);
  return Id;
}

std::string withoutProfileId(const json::Value &Result) {
  json::Object Out;
  for (const auto &[Key, V] : Result.asObject())
    if (Key != "profile")
      Out.set(Key, V);
  return json::Value(std::move(Out)).dump();
}

FreshOpen::FreshOpen(std::string ProfileName, const std::string &PprofBytes)
    : Name(std::move(ProfileName)), Raw(PprofBytes) {
  size_t Head = PprofBytes.size() / 3 * 3;
  HeadBase64 = base64Encode(std::string_view(PprofBytes).substr(0, Head));
  Tail = PprofBytes.substr(Head);
}

std::string FreshOpen::suffix(uint64_t Unique) {
  // Field 9 (time_nanos), wire type 0: tag byte 0x48, then a varint.
  std::string S(1, '\x48');
  do {
    uint8_t B = Unique & 0x7f;
    Unique >>= 7;
    S.push_back(static_cast<char>(Unique ? B | 0x80 : B));
  } while (Unique);
  return S;
}

std::string FreshOpen::payload(uint64_t Unique) const {
  return Raw + suffix(Unique);
}

std::string FreshOpen::frame(int64_t Id, uint64_t Unique) const {
  std::string Body = "{\"jsonrpc\":\"2.0\",\"id\":" + std::to_string(Id) +
                     ",\"method\":\"pvp/open\",\"params\":{\"name\":\"" + Name +
                     "\",\"dataBase64\":\"";
  Body.reserve(Body.size() + HeadBase64.size() + 32);
  Body += HeadBase64;
  Body += base64Encode(Tail + suffix(Unique));
  Body += "\"}}";
  return frameBody(Body);
}

} // namespace pb
