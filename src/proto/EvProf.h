//===- proto/EvProf.h - EasyView profile container format -----------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serialization of the generic profile representation. The paper expresses
/// the representation in a Protocol Buffer schema; this codec encodes the
/// same schema with the protobuf wire format (support/ProtoWire.h), wrapped
/// in an 8-byte magic header for format sniffing:
///
/// \code
///   message EvProfile {
///     string name = 1;
///     repeated string string_table = 2;   // [0] is always ""
///     repeated Metric metric = 3;
///     repeated Frame frame = 4;
///     repeated Node node = 5;             // in id order, parents first
///     repeated Group group = 6;
///   }
///   message Metric { string name = 1; string unit = 2; uint32 agg = 3; }
///   message Frame  { uint32 kind = 1; uint32 name = 2; uint32 file = 3;
///                    uint32 line = 4; uint32 module = 5; uint64 addr = 6; }
///   message Node   { uint32 parent_plus1 = 1; uint32 frame = 2;
///                    repeated MetricValue value = 3; }
///   message MetricValue { uint32 metric = 1; double value = 2; }
///   message Group  { uint32 kind = 1; repeated uint32 context = 2 [packed];
///                    uint32 metric = 3; double value = 4; }
/// \endcode
///
/// The field numbers double as the canonical order: a stream carries its
/// name, then strings, metrics, frames, nodes and groups, so every entry
/// arrives before anything that references it. writeEvProf, any protobuf
/// serializer of the schema and every appended section (pvp/append) emit
/// that order. The decoder (proto/EvProfStream.h) resolves references as
/// they arrive and refuses a stream that refers to a string, metric, frame
/// or node before that entry appears ("... reference out of range").
///
/// Children lists are not serialized: they are derivable from parent links,
/// which keeps the on-disk profile compact (paper §IV-A: the CCT
/// "minimizes the storage in both memory and disk").
///
//===----------------------------------------------------------------------===//

#ifndef EASYVIEW_PROTO_EVPROF_H
#define EASYVIEW_PROTO_EVPROF_H

#include "profile/Profile.h"
#include "support/Limits.h"
#include "support/Result.h"

#include <string>
#include <string_view>

namespace ev {

/// Magic bytes at the start of every .evprof file.
inline constexpr std::string_view EvProfMagic = "EVPROF1\n";

/// Serializes \p P to .evprof bytes.
std::string writeEvProf(const Profile &P);

/// Parses .evprof bytes. Structural errors (bad magic, malformed wire data,
/// dangling references) are reported, never asserted: the input is
/// untrusted. Decoding is metered against \p Limits — node/string/metric
/// counts, tree depth, and the allocation budget — so no input can cause
/// unbounded work.
Result<Profile> readEvProf(std::string_view Bytes,
                           const DecodeLimits &Limits);

/// Parses with the library-default limits.
Result<Profile> readEvProf(std::string_view Bytes);

/// \returns true when \p Bytes begins with the .evprof magic.
bool isEvProf(std::string_view Bytes);

} // namespace ev

#endif // EASYVIEW_PROTO_EVPROF_H
