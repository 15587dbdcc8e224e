//===- convert/Converters.cpp - Format detection and dispatch -------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "convert/Converters.h"

#include "proto/EvProf.h"
#include "support/Strings.h"

namespace ev {
namespace convert {

std::string_view formatName(Format F) {
  switch (F) {
  case Format::EvProf:
    return "evprof";
  case Format::Pprof:
    return "pprof";
  case Format::PerfScript:
    return "perf-script";
  case Format::Collapsed:
    return "collapsed";
  case Format::ChromeTrace:
    return "chrome-trace";
  case Format::Speedscope:
    return "speedscope";
  case Format::Hpctoolkit:
    return "hpctoolkit";
  case Format::Scalene:
    return "scalene";
  case Format::Pyinstrument:
    return "pyinstrument";
  case Format::Tau:
    return "tau";
  case Format::Unknown:
    return "unknown";
  }
  return "unknown";
}

namespace {

/// A quick look at JSON content without a full parse: which top-level keys
/// appear early in the document.
bool mentions(std::string_view Bytes, std::string_view Key) {
  return Bytes.substr(0, 4096).find(Key) != std::string_view::npos;
}

bool looksBinary(std::string_view Bytes) {
  size_t Limit = std::min<size_t>(Bytes.size(), 512);
  for (size_t I = 0; I < Limit; ++I) {
    unsigned char C = static_cast<unsigned char>(Bytes[I]);
    if (C == 0 || (C < 9 && C != 0))
      return true;
  }
  return false;
}

/// Collapsed stacks: every non-empty line is "frame;frame;... <number>",
/// and at least one checked line has a multi-frame stack.
bool looksCollapsed(std::string_view Bytes) {
  size_t Checked = 0;
  bool AnySemicolon = false;
  for (std::string_view Line : splitLines(Bytes.substr(0, 8192))) {
    Line = trim(Line);
    if (Line.empty() || Line[0] == '#')
      continue;
    size_t Space = Line.rfind(' ');
    if (Space == std::string_view::npos)
      return false;
    uint64_t Count;
    if (!parseUnsigned(trim(Line.substr(Space + 1)), Count))
      return false;
    if (Line.substr(0, Space).find(';') != std::string_view::npos)
      AnySemicolon = true;
    if (++Checked >= 5)
      break;
  }
  return Checked > 0 && AnySemicolon;
}

/// perf script samples start with a header line containing "cycles:" style
/// event markers and are followed by tab-indented frames.
bool looksPerfScript(std::string_view Bytes) {
  auto Lines = splitLines(Bytes.substr(0, 8192));
  for (size_t I = 0; I + 1 < Lines.size(); ++I) {
    std::string_view Line = Lines[I];
    if (Line.empty() || Line[0] == '\t' || Line[0] == ' ')
      continue;
    if (Line.find(':') == std::string_view::npos)
      return false;
    std::string_view Next = Lines[I + 1];
    return !Next.empty() && (Next[0] == '\t' || Next[0] == ' ');
  }
  return false;
}

} // namespace

Format detectFormat(std::string_view Bytes, std::string_view NameHint) {
  if (isEvProf(Bytes))
    return Format::EvProf;
  if (endsWith(NameHint, ".evprof"))
    return Format::EvProf;

  std::string_view Head = trim(Bytes.substr(0, 64));
  if (startsWith(Head, "<"))
    return Format::Hpctoolkit;
  if (startsWith(Head, "{") || startsWith(Head, "[")) {
    if (mentions(Bytes, "\"$schema\"") &&
        mentions(Bytes, "speedscope"))
      return Format::Speedscope;
    if (mentions(Bytes, "\"traceEvents\"") ||
        (startsWith(Head, "[") && mentions(Bytes, "\"ph\"")))
      return Format::ChromeTrace;
    if (mentions(Bytes, "\"root_frame\""))
      return Format::Pyinstrument;
    if (mentions(Bytes, "\"files\"") &&
        (mentions(Bytes, "n_cpu_percent_python") ||
         mentions(Bytes, "\"lines\"")))
      return Format::Scalene;
    return Format::Unknown;
  }
  if (looksBinary(Bytes))
    return Format::Pprof;
  if (mentions(Bytes, "templated_functions"))
    return Format::Tau;
  if (looksCollapsed(Bytes))
    return Format::Collapsed;
  if (looksPerfScript(Bytes))
    return Format::PerfScript;
  return Format::Unknown;
}

Result<Profile> load(std::string_view Bytes, std::string_view NameHint) {
  return load(Bytes, NameHint, DecodeLimits::defaults());
}

Result<Profile> load(std::string_view Bytes, std::string_view NameHint,
                     const DecodeLimits &Limits) {
  if (Bytes.size() > Limits.MaxInputBytes)
    return makeError("input of " + std::to_string(Bytes.size()) +
                     " bytes exceeds the decode limit");
  Format F = detectFormat(Bytes, NameHint);
  Result<Profile> P = makeError("unrecognized profile format");
  switch (F) {
  case Format::EvProf:
    P = readEvProf(Bytes, Limits);
    break;
  case Format::Pprof:
    P = fromPprof(Bytes, Limits);
    break;
  case Format::PerfScript:
    P = fromPerfScript(Bytes);
    break;
  case Format::Collapsed:
    P = fromCollapsed(Bytes);
    break;
  case Format::ChromeTrace:
    P = fromChromeTrace(Bytes);
    break;
  case Format::Speedscope:
    P = fromSpeedscope(Bytes);
    break;
  case Format::Hpctoolkit:
    P = fromHpctoolkit(Bytes);
    break;
  case Format::Scalene:
    P = fromScalene(Bytes);
    break;
  case Format::Pyinstrument:
    P = fromPyinstrument(Bytes);
    break;
  case Format::Tau:
    P = fromTau(Bytes);
    break;
  case Format::Unknown:
    return makeError("unrecognized profile format");
  }
  // Text converters bound their output by their input, but the check is
  // cheap and makes the guarantee uniform across every format.
  if (P && P->nodeCount() > Limits.MaxNodes)
    return makeError("converted profile has " +
                     std::to_string(P->nodeCount()) +
                     " contexts, exceeding the decode limit");
  if (P && !NameHint.empty())
    P = P->renamed(std::string(NameHint));
  return P;
}

} // namespace convert
} // namespace ev
