//===- perfbench/Common.h - Shared helpers of the repository benchmark ----===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Clocks, sample statistics and the span recorder the benchmark uses to
/// attribute time to the library's layers. Spans are recorded only from the
/// benchmark's own files, around calls into each module's public functions;
/// nothing inside src/ is instrumented by the benchmark.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "support/Json.h"

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline double usSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - T0).count();
}
inline double msSince(Clock::time_point T0) { return usSince(T0) / 1000.0; }

/// Linear-interpolated percentile (\p P in [0, 100]) of \p V; 0 when empty.
double percentile(std::vector<double> V, double P);

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// One finished span: a call the benchmark made, with the span that caused
/// it and the client request it belongs to.
struct SpanRecord {
  std::string Name;
  std::string Cat;
  uint64_t Id = 0;
  uint64_t Parent = 0; ///< 0 for a root span.
  uint64_t Request = 0;
  unsigned Lane = 0;
  double StartUs = 0.0; ///< Since the recorder's epoch.
  double EndUs = 0.0;
};

/// Turns span recording on or off for the calling thread. Spans are kept in
/// memory and collected once the run ends.
void setTracing(bool On);
bool tracing();
/// Lane (Chrome "tid") and request id stamped on spans this thread opens.
void setLane(unsigned Lane);
void setRequest(uint64_t Request);
uint64_t nextRequestId();

/// RAII timer; records a SpanRecord on destruction when the opening thread
/// traces. The innermost open span of the thread is the parent.
class Span {
public:
  Span(std::string Name, const char *Cat);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  /// Milliseconds since the span opened.
  double elapsedMs() const { return msSince(T0); }

private:
  std::string Name;
  const char *Cat;
  uint64_t Id = 0;
  uint64_t Parent = 0;
  Clock::time_point T0;
};

/// All spans recorded so far (every thread).
std::vector<SpanRecord> collectSpans();

/// Self time of every span in microseconds: duration minus the part of it
/// covered by its direct children. Indexed like \p Spans.
std::vector<double> selfTimesUs(const std::vector<SpanRecord> &Spans);

/// Chrome trace-event JSON ({"traceEvents": [...]}, "X" events) of \p Spans.
std::string chromeTraceJson(const std::vector<SpanRecord> &Spans);

} // namespace pb

#endif // PERFBENCH_COMMON_H
