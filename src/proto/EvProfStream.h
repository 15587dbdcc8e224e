//===- proto/EvProfStream.h - Incremental .evprof decoding ----------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Streaming decode of a *growing* .evprof byte stream, the ingest side of
/// delta-synced live views: a profiler appends sections to one file while
/// the PVP service tails it (`evtool serve --follow`) and pushes view
/// deltas to subscribed editors.
///
/// The container format makes this possible without a new framing layer: a
/// canonical .evprof (writeEvProf order — name, strings, metrics, frames,
/// nodes, groups) remains a valid prefix at every top-level wire-field
/// boundary, and appending more fields of the same message is exactly the
/// protobuf concatenation rule. The decoder therefore consumes complete
/// top-level fields as they arrive, buffers the incomplete tail, and keeps
/// a live ProfileBuilder that grows monotonically.
///
/// Eager reference resolution means the stream must be *canonically
/// ordered*: a frame may only reference strings that already arrived, a
/// node only frames/metrics that already arrived, a group only existing
/// nodes. writeEvProf always emits that order, and appended sections obey
/// it by construction (new strings first, then new frames, then new
/// nodes). Out-of-order streams fail with the same reference-range
/// diagnostics the batch decoder gives.
///
/// The invariant tests pin: for any canonical stream split at arbitrary
/// byte positions, writeEvProf(decoder result) is byte-identical to
/// writeEvProf(readEvProf(whole stream)).
///
//===----------------------------------------------------------------------===//

#ifndef EASYVIEW_PROTO_EVPROFSTREAM_H
#define EASYVIEW_PROTO_EVPROFSTREAM_H

#include "profile/ProfileBuilder.h"
#include "proto/EvProf.h"
#include "support/Limits.h"
#include "support/Result.h"

#include <string>
#include <string_view>
#include <vector>

namespace ev {

/// Incrementally decodes a growing .evprof stream into a live profile.
///
/// Feed bytes in arrival order (any chunking, including mid-varint
/// splits); every complete top-level field is decoded immediately under
/// the same ResourceGuard budgets as the batch decoder, so a hostile
/// stream can never make the tail grow unboundedly or the profile exceed
/// its decode limits. A structural error poisons the decoder permanently —
/// the profile decoded so far stays readable, but no further bytes are
/// accepted (matching the batch decoder's all-or-nothing contract per
/// section).
class EvProfStreamDecoder {
public:
  explicit EvProfStreamDecoder(const DecodeLimits &Limits);

  EvProfStreamDecoder(const EvProfStreamDecoder &) = delete;
  EvProfStreamDecoder &operator=(const EvProfStreamDecoder &) = delete;

  /// Consumes \p Bytes. \returns the number of *nodes* the live profile
  /// gained (appends that only add strings/frames report 0 — callers use
  /// the count to decide whether views could have changed; metric values
  /// only ever arrive attached to nodes). Structural errors poison the
  /// decoder and are returned (and re-returned on every later call).
  Result<size_t> feed(std::string_view Bytes);

  /// \returns true once the stream decoded at least one node — the point
  /// at which snapshot() starts succeeding (the batch decoder's "profile
  /// stream has no nodes" condition).
  bool hasNodes() const { return WireNodes > 0; }

  /// Frozen copy of the live profile, structurally complete and
  /// verifiable. Fails while no node has been decoded yet or after a
  /// poisoning error.
  Result<Profile> snapshot() const;

  /// The live profile (valid but node-less before the first node field).
  const ProfileBuilder &current() const { return P; }

  /// Total bytes accepted (consumed + buffered tail), including magic.
  size_t totalBytes() const { return Total; }
  /// Bytes buffered awaiting a complete top-level field.
  size_t pendingBytes() const { return Pending.size(); }
  /// Wire-level node count (index space of node references on the wire).
  size_t wireNodeCount() const { return WireNodes; }

  bool failed() const { return Poisoned; }
  const std::string &error() const { return Diag; }

private:
  Result<bool> decodeField(uint32_t FieldNumber, std::string_view Payload);
  Result<bool> poison(std::string Message);

  DecodeLimits Limits;   ///< Owned: ResourceGuard keeps a reference.
  ResourceGuard Guard;
  ProfileBuilder P;
  std::vector<StringId> StringMap; ///< wire string id -> arena id.
  std::vector<FrameId> FrameMap;   ///< wire frame id -> profile frame id.
  std::vector<uint32_t> Depths;    ///< per wire node, for depth limiting.
  size_t WireNodes = 0;
  std::string Pending;
  size_t Total = 0;
  bool MagicSeen = false;
  bool Poisoned = false;
  std::string Diag;
};

} // namespace ev

#endif // EASYVIEW_PROTO_EVPROFSTREAM_H
