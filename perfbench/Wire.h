//===- perfbench/Wire.h - How the benchmark's clients reach a server ------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A client sends one framed JSON-RPC request and waits for its reply
/// (closed loop: an editor pane waits for each reply). Two transports run
/// the same client code:
///  - SocketTransport talks to the NetServer over loopback TCP; end-to-end
///    latencies come from it.
///  - InProcessTransport hands the frame to a standalone PvpServer and
///    records one span per layer (frame parse, dispatch, frame write); the
///    traced run replays the workload through it to attribute time.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WIRE_H
#define PERFBENCH_WIRE_H

#include "ide/JsonRpc.h"
#include "ide/PvpServer.h"

#include <cstdint>
#include <optional>
#include <string>

namespace pb {

class Transport {
public:
  virtual ~Transport() = default;
  /// Sends \p Frame and stores the body of the reply frame in \p Body.
  /// \returns false when no reply arrived (timeout, disconnect).
  virtual bool call(const std::string &Frame, std::string &Body) = 0;
};

class SocketTransport final : public Transport {
public:
  explicit SocketTransport(const std::string &HostPort);
  ~SocketTransport() override;
  SocketTransport(const SocketTransport &) = delete;
  SocketTransport &operator=(const SocketTransport &) = delete;

  bool ok() const { return Fd >= 0; }
  bool call(const std::string &Frame, std::string &Body) override;

private:
  bool sendAll(const std::string &Bytes);
  bool readBody(std::string &Body, int TimeoutMs);

  int Fd = -1;
  std::string Buf;
  size_t Pos = 0;
};

class InProcessTransport final : public Transport {
public:
  /// \p CachedViews is the session's view-cache capacity (0 disables it).
  explicit InProcessTransport(size_t CachedViews);
  bool call(const std::string &Frame, std::string &Body) override;
  ev::PvpServer &server() { return Server; }

private:
  ev::PvpServer Server;
};

/// "Content-Length: N\r\n\r\n" + \p Body.
std::string frameBody(const std::string &Body);
/// rpc::frame(rpc::makeRequest(Id, Method, Params)).
std::string requestFrame(int64_t Id, const char *Method, ev::json::Object Params);

/// The "result" object of reply \p Body, or nullopt for an error reply or
/// an unparsable body.
std::optional<ev::json::Value> resultOf(const std::string &Body);

/// "profile" of a result object, or -1.
int64_t profileOf(const ev::json::Value &Result);

/// \p Result dumped without its top-level "profile" member: two replies
/// that differ only in the id the store assigned compare equal.
std::string withoutProfileId(const ev::json::Value &Result);

/// A pvp/open request whose payload bytes are made new on every use
/// without re-encoding the whole profile. The payload is a serialized
/// pprof message; appending a time_nanos field (protobuf messages merge
/// by concatenation) gives bytes the server has never seen, and only the
/// base64 of the last few bytes has to be recomputed.
class FreshOpen {
public:
  FreshOpen(std::string Name, const std::string &PprofBytes);
  /// The frame of request \p Id with payload variant \p Unique.
  std::string frame(int64_t Id, uint64_t Unique) const;
  /// The raw payload of variant \p Unique.
  std::string payload(uint64_t Unique) const;

private:
  static std::string suffix(uint64_t Unique);
  std::string Name;
  std::string HeadBase64; ///< base64 of the first 3k bytes of the payload.
  std::string Tail;       ///< The remaining 0-2 bytes.
  std::string Raw;
};

} // namespace pb

#endif // PERFBENCH_WIRE_H
