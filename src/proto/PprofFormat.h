//===- proto/PprofFormat.h - pprof profile.proto codec --------------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reader and writer for Google pprof's profile.proto, implemented directly
/// on the protobuf wire format. The paper treats the pprof format as "a
/// subset of EasyView representation in Protocol Buffer" (§VII-A method 3);
/// this codec is what the PProf converter, the Fig. 5 response-time
/// benchmark, and the synthetic workload generators exchange bytes through.
///
/// Field numbers follow github.com/google/pprof/proto/profile.proto.
/// Sample location ids are leaf-first, as pprof specifies.
///
//===----------------------------------------------------------------------===//

#ifndef EASYVIEW_PROTO_PPROFFORMAT_H
#define EASYVIEW_PROTO_PPROFFORMAT_H

#include "support/Result.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ev {
namespace pprof {

/// Field numbers of the top-level Profile message.
enum ProfileField : uint32_t {
  FSampleType = 1,
  FSample = 2,
  FMapping = 3,
  FLocation = 4,
  FFunction = 5,
  FStringTable = 6,
  FTimeNanos = 9,
  FDurationNanos = 10,
  FPeriodType = 11,
  FPeriod = 12,
  FDefaultSampleType = 14,
};

/// message ValueType { int64 type = 1; int64 unit = 2; } (string ids)
struct ValueType {
  int64_t Type = 0;
  int64_t Unit = 0;
};

/// message Label { int64 key=1; int64 str=2; int64 num=3; int64 num_unit=4; }
struct Label {
  int64_t Key = 0;
  int64_t Str = 0;
  int64_t Num = 0;
  int64_t NumUnit = 0;
};

/// message Sample { repeated uint64 location_id=1; repeated int64 value=2;
///                  repeated Label label=3; } Location ids are leaf-first.
struct Sample {
  std::vector<uint64_t> LocationIds;
  std::vector<int64_t> Values;
  std::vector<Label> Labels;
};

/// message Mapping (only the fields the viewers consume).
struct Mapping {
  uint64_t Id = 0;
  uint64_t MemoryStart = 0;
  uint64_t MemoryLimit = 0;
  uint64_t FileOffset = 0;
  int64_t Filename = 0; ///< string id
  int64_t BuildId = 0;  ///< string id
};

/// message Line { uint64 function_id = 1; int64 line = 2; }
struct Line {
  uint64_t FunctionId = 0;
  int64_t LineNumber = 0;
};

/// message Location { uint64 id=1; uint64 mapping_id=2; uint64 address=3;
///                    repeated Line line=4; }
struct Location {
  uint64_t Id = 0;
  uint64_t MappingId = 0;
  uint64_t Address = 0;
  std::vector<Line> Lines; ///< innermost (leaf inline frame) first.
};

/// message Function { uint64 id=1; int64 name=2; int64 system_name=3;
///                    int64 filename=4; int64 start_line=5; }
struct Function {
  uint64_t Id = 0;
  int64_t Name = 0;
  int64_t SystemName = 0;
  int64_t Filename = 0;
  int64_t StartLine = 0;
};

/// The top-level pprof Profile message.
struct PprofProfile {
  std::vector<ValueType> SampleTypes;
  std::vector<Sample> Samples;
  std::vector<Mapping> Mappings;
  std::vector<Location> Locations;
  std::vector<Function> Functions;
  std::vector<std::string> StringTable; ///< [0] must be "".
  int64_t TimeNanos = 0;
  int64_t DurationNanos = 0;
  ValueType PeriodType;
  int64_t Period = 0;
  int64_t DefaultSampleType = 0;

  /// Interns \p Text into StringTable, returning its index.
  int64_t intern(std::string_view Text);

  /// \returns the text at index \p Id; empty when out of range.
  std::string_view text(int64_t Id) const;
};

/// Serializes \p P to profile.proto bytes.
std::string write(const PprofProfile &P);

/// Parses profile.proto bytes.
Result<PprofProfile> read(std::string_view Bytes);

} // namespace pprof
} // namespace ev

#endif // EASYVIEW_PROTO_PPROFFORMAT_H
