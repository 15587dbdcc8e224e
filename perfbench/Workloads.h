//===- perfbench/Workloads.h - The benchmark's named workloads ------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every workload is a closed loop: each client (an editor pane) sends a
/// request, waits for the reply, checks it, and sends the next one with no
/// think time. All inputs are generated from the seed during setup.
///
///  cold-open        3 clients; open a never-seen pprof profile (1-4 MB),
///                   flame it top-down and bottom-up, close it. Every view
///                   misses the cache.
///  warm-browse      3 clients; each browses its own ~1 MB profile through
///                   12 distinct view requests that fit in the view cache;
///                   a pvp/query (which retires the profile's cached views)
///                   is mixed in periodically and its derived profile closed.
///  cohort-analysis  1 client; opens 8 synthetic profiles, aggregates, diffs,
///                   runs a 4-vs-4 regression analysis and a bottom-up flame
///                   of the aggregate, then a regression analysis of a
///                   FleetWorkload cohort with known planted findings.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Wire.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace pb {

/// What one client observed.
struct ClientLog {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  uint64_t Completed = 0;
  /// Latency samples (ms) by series: the workload's headline unit is
  /// "unit"; the others name a request class ("view", "query", ...).
  std::map<std::string, std::vector<double>> Series;
  /// Unit samples of traced and untraced iterations (trace overhead).
  std::vector<double> UnitTraced, UnitUntraced;
  std::vector<std::string> Problems;
};

/// A client's handle on its transport: times and checks every request.
class Caller {
public:
  /// \p Category tags the per-request spans ("client" over the socket,
  /// "replay" in process).
  Caller(Transport &T, ClientLog &Log, const char *Category)
      : T(T), Log(Log), Category(Category) {}

  /// Sends \p Frame as request kind \p Key and waits for the reply.
  /// \returns false (counted as a failure) on no reply or an error reply.
  bool call(const std::string &Key, const std::string &Frame,
            std::string &Body, double *Ms = nullptr);
  /// Records an output check that failed on the last reply.
  void fail(const std::string &What);
  void sample(const std::string &Series, double Ms);
  /// Records one sample of the workload's headline latency.
  void unit(double Ms);

private:
  Transport &T;
  ClientLog &Log;
  const char *Category;
};

/// One editor pane of a workload, bound to one transport.
class Pane {
public:
  virtual ~Pane() = default;
  /// Opens what the pane browses and warms the caches (part of setup).
  virtual bool warmUp(Caller &C) = 0;
  /// One closed-loop iteration.
  virtual void iterate(Caller &C) = 0;
  /// Closes everything warmUp() opened.
  virtual void finish(Caller &C) = 0;
};

/// Inputs of the per-layer probes: the workload's own profiles.
struct ProbeInputs {
  std::vector<std::string> Names;
  std::vector<std::string> Payloads; ///< As sent in pvp/open (>= 2).
  size_t Primary = 0;                ///< The profile whose open is probed.
  std::string FlameShape = "top-down";
  bool FlameOfAggregate = false; ///< Probe the flame of the aggregate.
};

class Workload {
public:
  virtual ~Workload() = default;
  virtual unsigned clients() const = 0;
  /// What the headline latency measures, for the report.
  virtual const char *unitName() const = 0;
  /// The percentile latency_tail_ms reports: the highest the workload's
  /// sample count supports and the one its slow path shows in.
  virtual double tailPercentile() const = 0;
  /// Builds every input from \p Seed (timed as setup).
  virtual void generate(uint64_t Seed) = 0;
  /// Computes the reference replies with a standalone in-process server
  /// (not timed). \returns false with \p Error when a reference fails its
  /// own checks.
  virtual bool prepare(std::string &Error) = 0;
  virtual std::unique_ptr<Pane> pane(unsigned Client) = 0;
  /// Iterations the in-process replay runs so that it sends every request
  /// kind of the workload.
  virtual unsigned replayIterations() const = 0;
  virtual ProbeInputs probeInputs() const = 0;
};

/// nullptr for an unknown name.
std::unique_ptr<Workload> makeWorkload(const std::string &Name);

/// The pvp/query program of warm-browse and of the query probes.
extern const char *const QueryProgram;

} // namespace pb

#endif // PERFBENCH_WORKLOADS_H
