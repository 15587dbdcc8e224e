//===- proto/EvProfStream.h - Incremental .evprof decoding ----------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one .evprof decoder. readEvProf feeds it a whole file once; the PVP
/// service feeds it a *growing* stream, the ingest side of delta-synced
/// live views: a profiler appends sections to one file while the service
/// tails it (`evtool serve --follow`, `pvp/append`) and pushes view deltas
/// to subscribed editors.
///
/// The container format makes this possible without a new framing layer: a
/// canonical .evprof (see proto/EvProf.h) remains a valid prefix at every
/// top-level wire-field boundary, and appending more fields of the same
/// message is exactly the protobuf concatenation rule. The decoder
/// therefore decodes complete top-level fields as they arrive, straight
/// from the caller's bytes, buffers only an incomplete trailing field, and
/// keeps a live ProfileBuilder that grows monotonically.
///
/// References resolve eagerly, so the stream must be in canonical order: a
/// frame may only reference strings that already arrived, a node only
/// frames and metrics that already arrived, a group only existing nodes.
/// writeEvProf always emits that order, and appended sections obey it by
/// construction (new strings first, then new frames, then new nodes). A
/// reference to an entry that has not arrived fails with the matching
/// "... reference out of range" diagnostic.
///
/// A refusal also comes with an EvProfFault: which rule the bytes broke and,
/// for a fault inside a Node message, the wire index of that node. The lint
/// engine (analysis/ProfileLint.h) reports that fault as its finding, so a
/// refused profile is explained by the refusal itself, never by a second
/// parser of the same messages.
///
/// The invariant tests pin (tests/proto_test.cpp): for a canonical stream
/// split at any byte positions, writeEvProf of the decoded profile is
/// byte-identical to writeEvProf(readEvProf(whole stream)).
///
//===----------------------------------------------------------------------===//

#ifndef EASYVIEW_PROTO_EVPROFSTREAM_H
#define EASYVIEW_PROTO_EVPROFSTREAM_H

#include "profile/ProfileBuilder.h"
#include "proto/EvProf.h"
#include "support/Limits.h"
#include "support/Result.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ev {

/// Why a decoder refused its stream. The decoder's error text names the
/// offending entry; the kind classifies it without parsing that text.
struct EvProfFault {
  enum Kind : uint8_t {
    None,        ///< Nothing was refused.
    Malformed,   ///< Bad magic, corrupt framing or an unparsable message.
    StringRef,   ///< A frame or group names a string not yet arrived.
    FrameRef,    ///< A node names a frame not yet arrived.
    NodeRef,     ///< A group names a node not yet arrived.
    MetricRef,   ///< A value or group names an undeclared metric.
    ParentOrder, ///< A node's parent does not precede it.
    Other,       ///< Decode limits, no nodes, invalid kinds, duplicates.
  };
  static constexpr size_t NoNode = SIZE_MAX;

  Kind What = None;
  /// The wire index of the node whose message broke the rule, or NoNode.
  size_t Node = NoNode;
};

/// Decodes a .evprof stream, whole or growing, into a live profile.
///
/// Feed bytes in arrival order (any chunking, including mid-varint
/// splits); every complete top-level field is decoded immediately under
/// the ResourceGuard budgets of the DecodeLimits, so a hostile stream can
/// never make the tail grow unboundedly or the profile exceed its decode
/// limits. A structural error poisons the decoder permanently: the profile
/// decoded so far stays readable, but no further bytes are accepted.
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

  /// Frozen copy of the live profile, structurally complete and
  /// verifiable. Fails while no node has been decoded yet or after a
  /// poisoning error.
  Result<Profile> snapshot() const;

  /// Ends the stream and \returns the decoded profile, freezing the
  /// builder in place instead of copying it. Fails when bytes of an
  /// incomplete field are still pending, on top of snapshot()'s
  /// conditions. The decoder accepts nothing afterwards.
  Result<Profile> finish();

  /// The live profile (valid but node-less before the first node field).
  const ProfileBuilder &current() const { return P; }

  /// What refused the stream; None while the decoder accepts bytes.
  const EvProfFault &fault() const { return Fault; }

private:
  /// Sizes the tables from a census of the first chunk's top-level fields,
  /// so decoding a whole file never reallocates them.
  void reserveFor(std::string_view Bytes);
  /// Decodes one top-level field: the only parser of the Metric, Frame,
  /// Node and Group messages.
  Result<bool> decodeField(uint32_t FieldNumber, std::string_view Payload);
  Error poison(std::string Message, EvProfFault::Kind What = EvProfFault::Other,
               size_t Node = EvProfFault::NoNode);

  DecodeLimits Limits;   ///< Owned: ResourceGuard keeps a reference.
  ResourceGuard Guard;
  ProfileBuilder P;
  std::vector<StringId> StringMap; ///< wire string id -> arena id.
  std::vector<FrameId> FrameMap;   ///< wire frame id -> profile frame id.
  std::vector<uint32_t> Depths;    ///< per wire node, for depth limiting.
  std::vector<MetricValue> NodeValues; ///< reused by each Node message.
  size_t WireNodes = 0;
  std::string Pending; ///< an incomplete trailing field (or magic prefix).
  size_t Total = 0;
  bool MagicSeen = false;
  bool Poisoned = false;
  std::string Diag;
  EvProfFault Fault;
};

} // namespace ev

#endif // EASYVIEW_PROTO_EVPROFSTREAM_H
