//===- tests/PprofOracle.h - Object-model pprof conversion ----------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The object-model pprof converter, kept in the test suite as the
/// differential oracle for the streaming decoder (convert::fromPprof). It
/// parses with pprof::read, so its accept/reject decisions and error
/// messages are the codec's, and it runs unmetered: no DecodeLimits.
///
//===----------------------------------------------------------------------===//

#ifndef EASYVIEW_TESTS_PPROFORACLE_H
#define EASYVIEW_TESTS_PPROFORACLE_H

#include "profile/Profile.h"
#include "support/Result.h"

#include <string_view>

namespace ev {
namespace convert {
namespace oracle {

/// Converts pprof profile.proto \p Bytes the way fromPprof did before it
/// streamed: the same frames, nodes, values and error messages.
Result<Profile> fromPprof(std::string_view Bytes);

} // namespace oracle
} // namespace convert
} // namespace ev

#endif // EASYVIEW_TESTS_PPROFORACLE_H
