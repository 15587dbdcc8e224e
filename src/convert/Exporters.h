//===- convert/Exporters.h - Generic representation -> foreign formats ----===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exporters from the generic representation back to foreign formats. The
/// paper's data builder is bidirectional in spirit — tools emit EasyView's
/// format, and EasyView interoperates with the existing ecosystem — so the
/// library can hand profiles back to FlameGraph scripts (collapsed),
/// speedscope, chrome://tracing, and pprof toolchains. Every exporter has
/// a matching importer in Converters.h; round-trip conservation is
/// property-tested.
///
//===----------------------------------------------------------------------===//

#ifndef EASYVIEW_CONVERT_EXPORTERS_H
#define EASYVIEW_CONVERT_EXPORTERS_H

#include "profile/Profile.h"
#include "proto/PprofFormat.h"

#include <optional>
#include <string>
#include <string_view>

namespace ev {
namespace convert {

/// Folded stacks ("a;b;c <value>"), one line per context with a nonzero
/// exclusive value of \p Metric. Values round to the nearest integer
/// (the format carries counts). Frames render as "name" or
/// "name (module)" when a module is known.
std::string toCollapsed(const Profile &P, MetricId Metric);

/// speedscope's sampled-profile JSON: one sample per context with nonzero
/// exclusive value, weights in the metric's unit.
std::string toSpeedscope(const Profile &P, MetricId Metric);

/// Chrome trace-event JSON with "X" complete events; \p Metric must be a
/// time-like metric in nanoseconds (trace timestamps are microseconds).
/// Event nesting mirrors the CCT: each context becomes a span covering
/// its inclusive time.
std::string toChromeTrace(const Profile &P, MetricId Metric);

/// pprof object model with every profile metric as a sample type and one
/// sample per context carrying the exclusive values (leaf-first location
/// ids, as pprof specifies).
pprof::PprofProfile toPprofModel(const Profile &P);

/// Serialized profile.proto bytes of toPprofModel().
std::string toPprof(const Profile &P);

/// Serializes \p P in the export format named \p Format: "evprof",
/// "pprof", "collapsed", "speedscope" or "chrome". \p Metric selects the
/// column of the single-metric formats; evprof and pprof carry every
/// metric and ignore it. \returns nullopt for any other format name;
/// callers word the error themselves.
std::optional<std::string> exportProfile(const Profile &P,
                                         std::string_view Format,
                                         MetricId Metric);

} // namespace convert
} // namespace ev

#endif // EASYVIEW_CONVERT_EXPORTERS_H
