//===- tests/BottomUpOracle.h - Path-merging bottom-up tree ---------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The path-merging bottom-up transform, kept in the test suite as the
/// differential oracle for bottomUpTree (analysis/Transform.h). It merges
/// every contributor's reversed call path through ProfileBuilder::child,
/// one index probe per path step, in contributor order: the definition of
/// the callers tree's node ids, values and bytes.
///
//===----------------------------------------------------------------------===//

#ifndef EASYVIEW_TESTS_BOTTOMUPORACLE_H
#define EASYVIEW_TESTS_BOTTOMUPORACLE_H

#include "profile/Profile.h"

namespace ev {
namespace oracle {

/// Builds the bottom-up tree of \p P the way bottomUpTree did before it
/// grouped callers level by level.
Profile bottomUpTree(const Profile &P);

} // namespace oracle
} // namespace ev

#endif // EASYVIEW_TESTS_BOTTOMUPORACLE_H
