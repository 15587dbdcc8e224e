//===- proto/EvProfFields.h - .evprof wire field numbers ------------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Field numbers of the .evprof protobuf schema (see proto/EvProf.h for the
/// message definitions). Shared by the encoder (EvProf.cpp) and the decoder
/// (EvProfStream.cpp) so they can never drift.
///
//===----------------------------------------------------------------------===//

#ifndef EASYVIEW_PROTO_EVPROFFIELDS_H
#define EASYVIEW_PROTO_EVPROFFIELDS_H

#include <cstdint>

namespace ev {
namespace evprof {

// Field numbers of message EvProfile.
enum : uint32_t {
  FProfileName = 1,
  FProfileString = 2,
  FProfileMetric = 3,
  FProfileFrame = 4,
  FProfileNode = 5,
  FProfileGroup = 6,
};

enum : uint32_t { FMetricName = 1, FMetricUnit = 2, FMetricAgg = 3 };

enum : uint32_t {
  FFrameKind = 1,
  FFrameName = 2,
  FFrameFile = 3,
  FFrameLine = 4,
  FFrameModule = 5,
  FFrameAddr = 6,
};

enum : uint32_t { FNodeParentPlus1 = 1, FNodeFrame = 2, FNodeValue = 3 };

enum : uint32_t { FValueMetric = 1, FValueValue = 2 };

enum : uint32_t {
  FGroupKind = 1,
  FGroupContext = 2,
  FGroupMetric = 3,
  FGroupValue = 4,
};

} // namespace evprof
} // namespace ev

#endif // EASYVIEW_PROTO_EVPROFFIELDS_H
