//===- analysis/MetricEngine.h - Inclusive/exclusive metric math ----------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Computation of inclusive and exclusive metric columns over a CCT (paper
/// §V-A(a): "computing inclusive/exclusive metrics" during tree traversal),
/// plus totals and hot-node ranking used by the views.
///
//===----------------------------------------------------------------------===//

#ifndef EASYVIEW_ANALYSIS_METRICENGINE_H
#define EASYVIEW_ANALYSIS_METRICENGINE_H

#include "profile/Profile.h"

#include <vector>

namespace ev {

/// Per-node exclusive values of \p Metric, indexed by NodeId.
std::vector<double> exclusiveColumn(const Profile &P, MetricId Metric);

/// Per-node inclusive values of \p Metric: own exclusive plus the inclusive
/// of all children, computed in one bottom-up pass.
std::vector<double> inclusiveColumn(const Profile &P, MetricId Metric);

/// All metrics at once, in one scatter pass plus one post-order sweep:
/// Columns[m][id] is the inclusive value of metric m at node id. Visits
/// each node's sparse metric list exactly once, unlike calling
/// inclusiveColumn() per metric which rescans every node M times.
std::vector<std::vector<double>> inclusiveColumns(const Profile &P);

/// Sum of all exclusive values (equals the root's inclusive value).
double metricTotal(const Profile &P, MetricId Metric);

/// Per-node depth column (root = 0) in one parents-first prefix pass,
/// guarded against malformed parent slots (profile/Profile.h
/// depthsFromParents has the exact semantics). The EVQL engines precompute
/// this once per profile topology for the depth() intrinsic.
std::vector<uint32_t> depthColumn(const Profile &P);

/// Per-node fan-out column: node id -> child count. Precomputed alongside
/// depthColumn() for the nchildren()/isleaf() intrinsics.
std::vector<uint32_t> childCountColumn(const Profile &P);

/// A ranked hot spot.
struct HotNode {
  NodeId Node = InvalidNode;
  double Value = 0.0;
};

/// The \p Limit nodes with the largest exclusive value, descending. Ties
/// break on NodeId so the ranking is deterministic.
std::vector<HotNode> hottestExclusive(const Profile &P, MetricId Metric,
                                      size_t Limit);

/// A precomputed (exclusive, inclusive) pair of columns for one metric.
/// Views hold one of these per displayed metric.
class MetricView {
public:
  MetricView(const Profile &P, MetricId Metric);

  MetricId metric() const { return Metric; }
  double exclusive(NodeId Id) const { return Exclusive[Id]; }
  double inclusive(NodeId Id) const { return Inclusive[Id]; }
  double total() const { return Inclusive.empty() ? 0.0 : Inclusive[0]; }

  const std::vector<double> &exclusiveColumn() const { return Exclusive; }
  const std::vector<double> &inclusiveColumn() const { return Inclusive; }

private:
  MetricId Metric;
  std::vector<double> Exclusive;
  std::vector<double> Inclusive;
};

} // namespace ev

#endif // EASYVIEW_ANALYSIS_METRICENGINE_H
