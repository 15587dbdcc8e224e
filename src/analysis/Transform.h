//===- analysis/Transform.h - Top-down/bottom-up/flat tree shapes ---------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tree transformations (paper §V-A(b)): EasyView reshapes the CCT into
/// top-down, bottom-up, and flat trees, each of which feeds the matching
/// flame-graph and tree-table views.
///
///  - The top-down tree is the CCT itself (root = program entry, callees as
///    children).
///  - The bottom-up tree reverses every call path: callees become parents,
///    so the first level ranks hot functions and each subtree shows where
///    a function is called from (Fig. 6).
///  - The flat tree elides call paths entirely and groups by load module,
///    then file, then function.
///
/// All transforms conserve the total exclusive value of every metric — a
/// property the test suite checks on randomized profiles.
///
//===----------------------------------------------------------------------===//

#ifndef EASYVIEW_ANALYSIS_TRANSFORM_H
#define EASYVIEW_ANALYSIS_TRANSFORM_H

#include "profile/Profile.h"
#include "support/Cancel.h"

#include <optional>
#include <string_view>

namespace ev {

/// All transforms are cooperatively cancellable: the optional token is
/// checked at loop boundaries and a tripped token raises
/// CancelledException (support/Cancel.h). The default token is inert.

/// Deep-copies the profile in top-down shape. (The CCT already is the
/// top-down tree; the copy exists so transforms compose uniformly.)
Profile topDownTree(const Profile &P, const CancelToken &Cancel = {});

/// Builds the bottom-up tree: for every context with a nonzero exclusive
/// value, its reversed call path (leaf frame outermost) is inserted and the
/// exclusive value attributed along it. The first tree level therefore
/// aggregates each function's total exclusive cost across all call paths.
Profile bottomUpTree(const Profile &P, const CancelToken &Cancel = {});

/// Builds the flat tree with hierarchy: root -> load module -> file ->
/// function. Exclusive values sum per function. For each input metric an
/// additional "<name> (inclusive)" column records the call-path-aware
/// inclusive sum per function (recursion counted once).
Profile flatTree(const Profile &P, const CancelToken &Cancel = {});

/// The tree a flame view of shape \p Shape draws: "top-down" is \p P
/// itself (the copy shares its block), "bottom-up" and "flat" are the
/// transforms above. \returns nullopt for any other shape name; callers
/// word the error themselves.
std::optional<Profile> flameShape(const Profile &P, std::string_view Shape,
                                  const CancelToken &Cancel = {});

/// Merges chains of the same frame along call paths, collapsing direct
/// self-recursion into a single context (paper §V-A(a): "collapsing deep
/// and recursive call paths").
Profile collapseRecursion(const Profile &P, const CancelToken &Cancel = {});

/// Truncates the tree at \p MaxDepth; the exclusive values of elided
/// descendants fold into their depth-MaxDepth ancestor so totals are
/// conserved.
Profile limitDepth(const Profile &P, unsigned MaxDepth);

} // namespace ev

#endif // EASYVIEW_ANALYSIS_TRANSFORM_H
