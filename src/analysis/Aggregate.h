//===- analysis/Aggregate.h - Multi-profile aggregation -------------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Operations across multiple profiles (paper §V-A(c)): the aggregation
/// operation merges N profiles into one unified tree, keeps the per-profile
/// metric values of every context (these feed the per-context histograms of
/// the aggregate view, Fig. 4), and derives statistical metrics (sum, min,
/// max, mean, and standard deviation) as additional columns.
///
/// Contexts match across profiles when their frames are textually
/// identical (name, file, line, module) and their parents match — the same
/// "two nodes are differentiable if all the ancestors are differentiable"
/// rule the paper uses for differencing.
///
//===----------------------------------------------------------------------===//

#ifndef EASYVIEW_ANALYSIS_AGGREGATE_H
#define EASYVIEW_ANALYSIS_AGGREGATE_H

#include "profile/Profile.h"
#include "support/Cancel.h"

#include <span>
#include <unordered_map>
#include <vector>

namespace ev {

class ProfileBuilder;

/// Merges \p P's tree into \p Into: each node of \p P lands on the child
/// of its parent's merged node with the textually identical frame (the
/// address is dropped, being run-specific). Frames are imported on first
/// use in node order, so merging the same inputs in the same order gives
/// the same ids. \returns the merged node of every node of \p P.
std::vector<NodeId> mergeTree(ProfileBuilder &Into, const Profile &P,
                              const CancelToken &Cancel = CancelToken());

/// Which derived statistics aggregate() appends as metric columns.
struct AggregateOptions {
  bool WithSum = true;  ///< "<metric>" column: sum across profiles.
  bool WithMin = false; ///< "<metric>.min".
  bool WithMax = false; ///< "<metric>.max".
  bool WithMean = false; ///< "<metric>.mean".
  bool WithStddev = false; ///< "<metric>.stddev" (population).
};

/// Result of aggregating N profiles.
class AggregatedProfile {
public:
  /// The unified tree. Metric columns are the derived statistics selected
  /// in AggregateOptions, in declaration order per input metric.
  const Profile &merged() const { return Merged; }

  size_t profileCount() const { return ProfileCount; }
  size_t inputMetricCount() const { return InputMetricCount; }

  /// Per-profile EXCLUSIVE values of input metric \p Metric at merged node
  /// \p Node; the vector has one slot per input profile (zero when the
  /// context is absent from that profile). Returns an empty vector when
  /// the node recorded no values.
  std::vector<double> perProfileExclusive(NodeId Node, MetricId Metric) const;

  /// Per-profile INCLUSIVE values at \p Node — the histogram the aggregate
  /// view attaches to a context (Fig. 4 shows active bytes per snapshot).
  std::vector<double> perProfileInclusive(NodeId Node, MetricId Metric) const;

  /// Internal: key for the sparse per-profile store.
  static uint64_t sampleKey(NodeId Node, MetricId Metric) {
    return (static_cast<uint64_t>(Node) << 16) | Metric;
  }

private:
  friend AggregatedProfile aggregate(std::span<const Profile *const> Profiles,
                                     const AggregateOptions &Options,
                                     const CancelToken &Cancel);

  Profile Merged;
  size_t ProfileCount = 0;
  size_t InputMetricCount = 0;
  /// Dense per-profile store. KeyIndex maps sampleKey(node, metric) to a
  /// row; KeyOrder remembers first-seen key order so every iteration over
  /// the store is deterministic; row R spans
  /// Matrix[R * ProfileCount .. R * ProfileCount + ProfileCount).
  std::unordered_map<uint64_t, uint32_t> KeyIndex;
  std::vector<uint64_t> KeyOrder;
  std::vector<double> Matrix;
  /// Lazily computed per-profile inclusive columns, one per (metric,
  /// profile): InclusiveColumns[metric * ProfileCount + profile][node].
  mutable std::vector<std::vector<double>> InclusiveColumns;
  mutable bool InclusiveReady = false;

  void ensureInclusive() const;
};

/// Merges \p Profiles (at least one) into a unified tree. All inputs must
/// share the metric schema of the first profile; metrics missing from an
/// input simply contribute zeros. \p Cancel is checked at merge-loop
/// boundaries; a tripped token raises CancelledException.
AggregatedProfile aggregate(std::span<const Profile *const> Profiles,
                            const AggregateOptions &Options = {},
                            const CancelToken &Cancel = {});

} // namespace ev

#endif // EASYVIEW_ANALYSIS_AGGREGATE_H
