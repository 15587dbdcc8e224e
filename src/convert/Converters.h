//===- convert/Converters.h - Foreign profile format converters -----------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The format-converter layer of the data builder (paper §IV-B): translates
/// the output of existing profilers into the generic representation without
/// changing the profilers themselves. The paper's converter set — PProf,
/// Perf, Cloud Profiler, Scalene, Chrome profiler, HPCToolkit, TAU,
/// pyinstrument — maps onto this reproduction's converters as follows:
///
///   - PProf / Cloud Profiler: the pprof profile.proto codec (binary).
///   - Perf: `perf script` textual stack dumps.
///   - Collapsed: Brendan Gregg's folded-stack format (FlameGraph), the
///     common denominator many profilers (including TAU exporters) emit.
///   - Chrome profiler: Chrome trace-event JSON.
///   - Speedscope: speedscope's sampled-profile JSON.
///   - HPCToolkit: experiment.xml call-path databases.
///   - Scalene: Scalene's per-line JSON.
///   - pyinstrument: pyinstrument's JSON session renderer.
///
//===----------------------------------------------------------------------===//

#ifndef EASYVIEW_CONVERT_CONVERTERS_H
#define EASYVIEW_CONVERT_CONVERTERS_H

#include "profile/Profile.h"
#include "support/Limits.h"
#include "support/Result.h"

#include <string_view>

namespace ev {
namespace convert {

/// Supported input formats.
enum class Format : uint8_t {
  EvProf,      ///< Native .evprof container.
  Pprof,       ///< pprof profile.proto bytes.
  PerfScript,  ///< `perf script` text.
  Collapsed,   ///< Folded stacks ("a;b;c 42").
  ChromeTrace, ///< Chrome trace-event JSON.
  Speedscope,  ///< speedscope JSON.
  Hpctoolkit,  ///< HPCToolkit experiment.xml.
  Scalene,     ///< Scalene JSON.
  Pyinstrument, ///< pyinstrument JSON.
  Tau,         ///< TAU profile.N.N.N text.
  Unknown,
};

/// \returns a stable lowercase name ("pprof", "perf-script", ...).
std::string_view formatName(Format F);

/// Sniffs the format of \p Bytes. \p NameHint (e.g. a file name) breaks
/// ties between JSON dialects when content alone is ambiguous.
Format detectFormat(std::string_view Bytes, std::string_view NameHint = "");

/// Per-format converters. Each accepts raw bytes in the foreign format and
/// produces a profile in the generic representation.
/// pprof is decoded under \p Limits (strings, metrics, frames, nodes and
/// path depth), like readEvProf.
Result<Profile> fromPprof(std::string_view Bytes,
                          const DecodeLimits &Limits = DecodeLimits::defaults());
Result<Profile> fromPerfScript(std::string_view Text);
Result<Profile> fromCollapsed(std::string_view Text);
Result<Profile> fromChromeTrace(std::string_view Json);
Result<Profile> fromSpeedscope(std::string_view Json);
Result<Profile> fromHpctoolkit(std::string_view Xml);
Result<Profile> fromScalene(std::string_view Json);
Result<Profile> fromPyinstrument(std::string_view Json);
Result<Profile> fromTau(std::string_view Text);

/// Detects the format of \p Bytes and converts. The returned profile's name
/// is \p NameHint when provided.
Result<Profile> load(std::string_view Bytes, std::string_view NameHint = "");

/// Like load(), but metered against \p Limits: the raw input size is
/// checked up front (every format), the .evprof and pprof decoders run
/// under the full budget, and any converted profile whose node count
/// exceeds the budget is rejected rather than handed to the caller.
Result<Profile> load(std::string_view Bytes, std::string_view NameHint,
                     const DecodeLimits &Limits);

} // namespace convert
} // namespace ev

#endif // EASYVIEW_CONVERT_CONVERTERS_H
