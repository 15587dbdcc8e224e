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

#include <cstdint>
#include <vector>

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
/// It serves callers that keep the tree (pvp/transform); a flame graph of
/// it is laid out from a CallersTree, which creates no node.
Profile bottomUpTree(const Profile &P, const CancelToken &Cancel = {});

/// The bottom-up tree of one metric of \p P, read straight off the caller
/// groups bottomUpTree emits its nodes from. A flame graph shows a few
/// thousand of that tree's nodes, while the tree can have ten times the
/// source's, so none is created here. Node ids, inclusive values (bit for
/// bit) and child order are those of the tree bottomUpTree builds; a
/// node's frame is a frame of \p P with the texts of the tree's frame.
class CallersTree {
public:
  CallersTree(const Profile &P, MetricId Metric,
              const CancelToken &Cancel = {});

  /// A node of the tree: the root, a shared caller node, or a node of one
  /// contributor's unshared tail.
  struct Node {
    NodeId Id;      ///< Its id in the tree bottomUpTree builds.
    FrameId Frame;  ///< Its frame, a frame of profile().
    double Value;   ///< Its inclusive value of metric().
    uint32_t Index; ///< The shared node (Root for the root) or, in a tail,
                    ///< the contributor.
    NodeId At;      ///< In a tail, the source node it reverses; else
                    ///< InvalidNode.
  };

  const Profile &profile() const { return *P; }
  MetricId metric() const { return Metric; }
  Node root() const;
  /// Replaces \p Out with the children of \p N in id order.
  void children(const Node &N, std::vector<Node> &Out) const;

private:
  static constexpr uint32_t Root = UINT32_MAX;
  static uint32_t slotOf(uint32_t Shared) {
    return Shared == Root ? 0 : Shared + 1;
  }
  Node tailNode(uint32_t Contributor, NodeId At, NodeId Id) const;

  const Profile *P;
  MetricId Metric;
  double Total = 0.0;
  /// The children of the root (slot 0) and of shared node S (slot S + 1,
  /// slotOf(S)) are Kids[KidsEnd[Slot]..KidsEnd[Slot + 1]), in id order.
  std::vector<uint32_t> KidsEnd;
  std::vector<Node> Kids;
  /// Per contributor: the exclusive value of the last node of its tail.
  std::vector<double> TailValue;
};

/// Builds the flat tree with hierarchy: root -> load module -> file ->
/// function. Exclusive values sum per function. For each input metric an
/// additional "<name> (inclusive)" column records the call-path-aware
/// inclusive sum per function (recursion counted once).
Profile flatTree(const Profile &P, const CancelToken &Cancel = {});

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
