//===- support/Telemetry.h - Counters, gauges, latency histograms ---------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The self-profiling metrics layer (docs/OBSERVABILITY.md): EasyView's
/// thesis is that profiles belong inside the developer's tooling, so the
/// PVP service observes itself. This header provides the numeric half —
/// counters, gauges, and fixed log2-bucket latency histograms — behind a
/// name-keyed registry; the structural half (spans folded into a CCT) is
/// support/Trace.h.
///
/// Concurrency model: registration (first use of a name) takes a shard
/// mutex, but every later update on the returned handle is a relaxed
/// atomic — handles are stable references, so hot paths pin them once and
/// never look the name up again. The registry is sharded by name hash so
/// concurrent sessions registering distinct metrics rarely contend. This
/// is safe under the SessionManager's cross-session parallelism and clean
/// under TSan (tests/telemetry_test.cpp).
///
/// Snapshots are deterministic: names are emitted in sorted order, so two
/// runs that performed the same work produce byte-identical counter
/// sections regardless of thread interleaving.
///
//===----------------------------------------------------------------------===//

#ifndef EASYVIEW_SUPPORT_TELEMETRY_H
#define EASYVIEW_SUPPORT_TELEMETRY_H

#include "support/Json.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace ev {
namespace telemetry {

/// A monotonically increasing event count.
class Counter {
public:
  void add(uint64_t N = 1) { V.fetch_add(N, std::memory_order_relaxed); }
  uint64_t value() const { return V.load(std::memory_order_relaxed); }
  void reset() { V.store(0, std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> V{0};
};

/// A value that moves both ways (queue depths, retained buffers).
class Gauge {
public:
  void set(int64_t N) { V.store(N, std::memory_order_relaxed); }
  void add(int64_t N) { V.fetch_add(N, std::memory_order_relaxed); }
  int64_t value() const { return V.load(std::memory_order_relaxed); }
  void reset() { V.store(0, std::memory_order_relaxed); }

private:
  std::atomic<int64_t> V{0};
};

/// A latency histogram over fixed log2-scale buckets. Bucket 0 holds the
/// value 0; bucket i (1 <= i < BucketCount-1) holds [2^(i-1), 2^i); the
/// last bucket is the overflow bucket [2^(BucketCount-2), inf). With 28
/// buckets a microsecond-valued histogram resolves 1us through ~67s, which
/// covers every request the deadline guardrail allows.
///
/// record() is wait-free (relaxed atomics; min/max via CAS), so recording
/// from concurrent sessions never serializes them.
class Histogram {
public:
  static constexpr size_t BucketCount = 28;

  /// \returns the bucket index \p Value falls into.
  static size_t bucketIndex(uint64_t Value);
  /// \returns the inclusive lower bound of bucket \p Index.
  static uint64_t bucketFloor(size_t Index);

  void record(uint64_t Value);

  uint64_t count() const { return N.load(std::memory_order_relaxed); }
  uint64_t sum() const { return Sum.load(std::memory_order_relaxed); }
  /// \returns the smallest recorded value (0 when empty).
  uint64_t min() const;
  /// \returns the largest recorded value (0 when empty).
  uint64_t max() const { return Max.load(std::memory_order_relaxed); }
  uint64_t bucketCount(size_t Index) const {
    return Buckets[Index].load(std::memory_order_relaxed);
  }

  /// Estimates the \p P-th percentile (0 < P <= 100) by rank-walking the
  /// log2 buckets with linear interpolation inside the winning bucket,
  /// clamped to the observed [min(), max()] range. Within a factor of two
  /// of the true order statistic by construction — exactly the fidelity
  /// the buckets retain. \returns 0 when the histogram is empty.
  double percentileEstimate(double P) const;

  void reset();

private:
  std::atomic<uint64_t> Buckets[BucketCount] = {};
  std::atomic<uint64_t> N{0};
  std::atomic<uint64_t> Sum{0};
  std::atomic<uint64_t> Min{UINT64_MAX};
  std::atomic<uint64_t> Max{0};
};

/// Options for Registry::snapshot(). Timing-derived fields (histogram
/// sums, mins, maxes, bucket contents) vary run to run even for identical
/// work; IncludeTimings=false drops them so a snapshot of deterministic
/// work is byte-stable across runs (only event counts remain).
struct SnapshotOptions {
  bool IncludeTimings = true;
};

/// The sharded name->metric registry. One process-wide instance
/// (Registry::global()) backs the PVP service; tests may build private
/// instances.
class Registry {
public:
  explicit Registry(size_t Shards = 8);

  /// Finds or registers the named metric. The returned reference is
  /// stable for the registry's lifetime; pin it once on hot paths.
  Counter &counter(std::string_view Name);
  Gauge &gauge(std::string_view Name);
  Histogram &histogram(std::string_view Name);

  /// Serializes every metric, names sorted, as
  ///   {"counters": {...}, "gauges": {...}, "histograms": {...}}.
  json::Value snapshot(const SnapshotOptions &Opts = {}) const;

  /// Zeroes every registered metric (registrations survive). Tests use
  /// this to isolate workloads; the service never calls it.
  void reset();

  /// The process-wide registry the PVP service reports through
  /// pvp/metrics.
  static Registry &global();

private:
  struct Shard {
    mutable std::mutex Mutex;
    std::unordered_map<std::string, std::unique_ptr<Counter>> Counters;
    std::unordered_map<std::string, std::unique_ptr<Gauge>> Gauges;
    std::unordered_map<std::string, std::unique_ptr<Histogram>> Histograms;
  };

  Shard &shardFor(std::string_view Name);
  const Shard &shardFor(std::string_view Name) const;

  std::vector<std::unique_ptr<Shard>> Shards;
};

} // namespace telemetry
} // namespace ev

#endif // EASYVIEW_SUPPORT_TELEMETRY_H
