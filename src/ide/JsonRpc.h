//===- ide/JsonRpc.h - LSP-style JSON-RPC 2.0 transport -------------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// JSON-RPC 2.0 with Language-Server-Protocol framing (Content-Length
/// headers over a byte stream). The paper positions EasyView's IDE actions
/// "like LSP"; this transport is what lets any editor drive the Profile
/// Viewer Protocol server (ide/PvpServer.h) the way editors drive language
/// servers.
///
//===----------------------------------------------------------------------===//

#ifndef EASYVIEW_IDE_JSONRPC_H
#define EASYVIEW_IDE_JSONRPC_H

#include "support/Json.h"
#include "support/Result.h"

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ev {
namespace rpc {

/// Standard JSON-RPC error codes (the LSP subset this server uses), plus
/// the server-defined range (-32000..-32099) for transport guardrails.
enum ErrorCode : int {
  ParseError = -32700,
  InvalidRequest = -32600,
  MethodNotFound = -32601,
  InvalidParams = -32602,
  InternalError = -32603,
  RequestTooLarge = -32000,  ///< Frame exceeded the configured size cap.
  RequestTimeout = -32001,   ///< Request exceeded its soft deadline.
  SessionBusy = -32002,      ///< Session queue is at its pending-request cap.
  ServerOverloaded = -32003, ///< Listener at its connection cap; shed load.
  SubscriptionLimit = -32004, ///< Session at its live-subscription cap.
  /// LSP's reserved code for `$/cancelRequest`: the request was cancelled
  /// cooperatively before producing a result.
  RequestCancelled = -32800,
};

/// Builds a request payload.
json::Value makeRequest(int64_t Id, std::string_view Method,
                        json::Value Params);

/// Builds a notification payload (no id, no response expected).
json::Value makeNotification(std::string_view Method, json::Value Params);

/// Builds a success response.
json::Value makeResponse(int64_t Id, json::Value ResultValue);

/// Builds an error response.
json::Value makeErrorResponse(int64_t Id, int Code, std::string_view Message);

/// Wraps \p Payload with the Content-Length header framing.
std::string frame(const json::Value &Payload);

/// Tuning knobs for FrameReader's guardrails.
struct FrameReaderOptions {
  /// Largest Content-Length the reader buffers. Announced bodies above
  /// this are skipped byte-for-byte as they arrive (never accumulated), so
  /// a hostile header cannot make the reader hold gigabytes.
  size_t MaxFrameBytes = 16u << 20;
  /// Largest unterminated header block tolerated before the reader
  /// declares the prefix garbage and resynchronizes.
  size_t MaxHeaderBytes = 8u << 10;
  /// Buffer capacity above which the reader reallocates the buffer down
  /// once it is mostly slack. `erase(0, n)` keeps std::string capacity, so
  /// without compaction one large frame would pin its high-water
  /// allocation for the rest of a long-lived (subscriber) connection.
  size_t CompactThresholdBytes = 64u << 10;
};

/// A recoverable framing error, reported alongside (not instead of) the
/// messages that follow it on the wire.
struct FrameError {
  int Code = ParseError;
  std::string Message;
};

/// Incremental deframer: feed bytes as they arrive, poll complete
/// messages.
///
/// The reader is session-survivable: a corrupt frame — bad or missing
/// Content-Length, oversized announcement, malformed JSON body — is
/// reported through takeErrors() and the reader *resynchronizes* to the
/// next plausible "Content-Length:" header instead of failing permanently.
/// One poisoned frame therefore costs one error response, never the
/// session.
class FrameReader {
public:
  FrameReader() = default;
  explicit FrameReader(FrameReaderOptions Opts) : Opts(Opts) {}

  /// Appends raw bytes from the wire.
  void feed(std::string_view Bytes) { Buffer.append(Bytes); }

  /// \returns the next complete JSON payload, if one is buffered. Framing
  /// and parse failures are queued as FrameErrors and the reader keeps
  /// scanning for the next valid frame.
  std::optional<json::Value> poll();

  /// Drains the errors recorded since the last call.
  std::vector<FrameError> takeErrors();

  /// \returns true while recorded errors are pending (not yet drained).
  bool failed() const { return !Errors.empty(); }
  /// The most recent pending error message ("" when none).
  const std::string &errorMessage() const;

  /// Number of resynchronization events since construction.
  size_t resyncCount() const { return Resyncs; }
  /// Bytes discarded while resynchronizing or skipping oversized bodies.
  size_t droppedBytes() const { return Dropped; }
  /// Bytes currently buffered (bounded by the options).
  size_t bufferedBytes() const { return Buffer.size(); }
  /// Bytes currently *allocated* for the buffer. Stays within a small
  /// multiple of bufferedBytes() plus the compaction threshold — the
  /// regression guard for the erase-keeps-capacity leak.
  size_t bufferCapacityBytes() const { return Buffer.capacity(); }

  const FrameReaderOptions &options() const { return Opts; }

private:
  void recordError(int Code, std::string Message);
  /// Drops the corrupt prefix and realigns the buffer on the next
  /// "Content-Length:" occurrence at or past \p From.
  void resync(size_t From);
  /// Releases slack capacity left behind by erase(0, n) once the buffer
  /// is mostly empty relative to its allocation.
  void compact();

  FrameReaderOptions Opts;
  std::string Buffer;
  std::vector<FrameError> Errors;
  size_t SkipRemaining = 0; ///< Oversized-body bytes still to discard.
  size_t Resyncs = 0;
  size_t Dropped = 0;
};

} // namespace rpc
} // namespace ev

#endif // EASYVIEW_IDE_JSONRPC_H
