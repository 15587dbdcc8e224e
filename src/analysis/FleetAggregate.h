//===- analysis/FleetAggregate.h - Streaming fleet-scale aggregation ------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Streaming aggregation over arbitrarily many profiles. The batch path (analysis/Aggregate.h) holds every decoded
/// input plus a dense (node, metric) x profile matrix — O(N profiles)
/// memory, fine for the paper's 8-input aggregate view but hopeless for a
/// fleet that ships thousands of profiles per release. A CohortAccumulator
/// instead folds profiles into one canonical accumulator CCT as they
/// arrive, keeping only streaming moments (count / mean / M2 / min / max —
/// Welford's algorithm) per (node, metric), so memory is O(merged CCT)
/// regardless of how many profiles stream through: add(profile) ingests
/// one decoded profile and discards it, so the caller never holds more
/// than one input at a time.
///
/// Under a node budget the accumulator keeps the top-K heavy hitters by
/// inclusive weight of the first metric: when the CCT outgrows the
/// budget, it shrinks to three quarters of the budget by folding the
/// lightest subtrees into per-parent "(pruned)" catch-all children that
/// conserve totals but give up attribution (isFolded() marks them; the
/// regression analyzer skips them).
///
/// This feeds the EVL3xx differential regression rules
/// (analysis/Regression.h): two cohorts in, lint-style findings out.
///
//===----------------------------------------------------------------------===//

#ifndef EASYVIEW_ANALYSIS_FLEETAGGREGATE_H
#define EASYVIEW_ANALYSIS_FLEETAGGREGATE_H

#include "profile/ProfileBuilder.h"
#include "support/Cancel.h"

#include <memory>
#include <unordered_map>
#include <vector>

namespace ev {

/// Configuration for one accumulator.
struct FleetAggregateOptions {
  /// Hard cap on accumulator CCT nodes. Exceeding it triggers a
  /// heavy-hitter prune back under the budget. 0 = unbounded.
  size_t NodeBudget = 1u << 16;
};

/// Streaming moments of one (node, metric) pair over the profiles that
/// carried a value for it. Cohort-wide statistics (absent profiles count
/// as zero, matching the batch aggregate's dense matrix) are reconstructed
/// by CohortAccumulator::stats().
struct StreamingMoments {
  uint64_t Present = 0; ///< Profiles that recorded a value at this context.
  double Mean = 0.0;    ///< Mean over the Present values.
  double M2 = 0.0;      ///< Sum of squared deviations over Present values.
  double Min = 0.0;     ///< Smallest present value.
  double Max = 0.0;     ///< Largest present value.

  void push(double Value);
  double sum() const { return Mean * static_cast<double>(Present); }
};

/// Cohort-wide statistics of one (node, metric): every profile in the
/// cohort contributes, with absent contexts contributing zero.
struct CohortNodeStats {
  uint64_t Profiles = 0; ///< Cohort size (denominator of Mean).
  uint64_t Present = 0;  ///< Profiles that actually carried a value.
  double Sum = 0.0;
  double Mean = 0.0;
  double Stddev = 0.0; ///< Population stddev over the full cohort.
  double Min = 0.0;
  double Max = 0.0;
};

/// The streaming aggregator: one canonical CCT plus per-(node, metric)
/// streaming moments. Not thread-safe.
class CohortAccumulator {
public:
  explicit CohortAccumulator(FleetAggregateOptions Opts = {});

  /// Folds \p P into the accumulator. Contexts match by textual frame
  /// identity under a matching parent — the same rule as the batch
  /// aggregate. The input can be destroyed immediately afterwards.
  void add(const Profile &P, const CancelToken &Cancel = {});

  /// Profiles folded in so far.
  uint64_t profileCount() const { return Profiles; }

  /// The canonical accumulator CCT. Node metric lists stay empty — the
  /// moments table is authoritative; shape() provides structure, frames,
  /// and the metric schema (adopted from the first profile seen). Frozen
  /// on first use after a change; like every accessor, not safe to call
  /// concurrently with itself or with a mutation.
  const Profile &shape() const;

  /// Cohort statistics for (\p Node, \p Metric); zeros when the pair never
  /// recorded a value.
  CohortNodeStats stats(NodeId Node, MetricId Metric) const;

  /// Inclusive (subtree) sum of \p Metric at \p Node across the cohort —
  /// the column the share-based regression rules consume. Recomputed
  /// on demand; O(nodes) per call, so callers cache the column.
  std::vector<double> inclusiveSumColumn(MetricId Metric) const;

  /// True when \p Node is a "(pruned)" catch-all that absorbed folded
  /// subtrees: its sums are real but its attribution and distribution
  /// moments are not, so analyses must skip it.
  bool isFolded(NodeId Node) const;

  /// Times the node budget tripped a prune.
  uint64_t pruneCount() const { return Prunes; }

  /// Approximate resident footprint of the accumulator (shape CCT plus
  /// moments table). The whole point of streaming aggregation: this stays
  /// O(merged CCT) while the batch path's footprint grows with N.
  size_t approxMemoryBytes() const;

  const FleetAggregateOptions &options() const { return Opts; }

  /// Internal: key for the sparse moments store.
  static uint64_t momentKey(NodeId Node, MetricId Metric) {
    return (static_cast<uint64_t>(Node) << 16) | Metric;
  }

private:
  /// Maps \p P's metric ids onto Shape's (first profile wins, by name).
  std::vector<MetricId> mapMetrics(const Profile &P);
  void pruneToBudget();
  void pruneOnce(size_t Target);

  FleetAggregateOptions Opts;
  ProfileBuilder Shape;
  /// Shape frozen by shape(); reset by every change to Shape.
  mutable std::shared_ptr<const Profile> Frozen;
  uint64_t Profiles = 0;
  uint64_t Prunes = 0;
  std::unordered_map<uint64_t, StreamingMoments> Moments;
  std::vector<char> Folded; ///< Indexed by NodeId, 1 for "(pruned)" nodes.
};

} // namespace ev

#endif // EASYVIEW_ANALYSIS_FLEETAGGREGATE_H
