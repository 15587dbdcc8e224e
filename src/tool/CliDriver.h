//===- tool/CliDriver.h - The evtool command-line driver ------------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implementation of the `evtool` command line, separated from main() so
/// the test suite can drive it in-process with captured output.
///
/// One command table in CliDriver.cpp declares every subcommand, its
/// positional arguments (marking the profiles) and the options it accepts
/// with the kind of each value; argument parsing and `evtool help` both
/// derive from it. A command runs only once its arguments, option values
/// and profiles have passed, so an undeclared option, a wrong count of
/// arguments or a malformed number is a usage error.
///
/// Profiles load through format auto-detection, so any supported input
/// format works everywhere a <profile> is expected.
///
//===----------------------------------------------------------------------===//

#ifndef EASYVIEW_TOOL_CLIDRIVER_H
#define EASYVIEW_TOOL_CLIDRIVER_H

#include <string>
#include <vector>

namespace ev {
namespace tool {

/// Exit codes, distinct per failure mode so scripted pipelines can tell
/// "you invoked me wrong" from "your data is bad" without scraping stderr.
enum ExitCode : int {
  ExitSuccess = 0,
  /// A profile failed to load, decode, or process (I/O errors, malformed
  /// input, missing functions/metrics, query runtime errors).
  ExitDataError = 1,
  /// The command line itself is wrong: unknown command, bad argument
  /// count, unknown option value, missing required option.
  ExitUsageError = 2,
};

/// Runs one evtool invocation. \p Args excludes the program name.
/// \returns the process exit code (an ExitCode); normal output accumulates
/// in \p Out, diagnostics in \p Err.
int runEvTool(const std::vector<std::string> &Args, std::string &Out,
              std::string &Err);

/// The usage text printed for `evtool help` and argument errors.
std::string usageText();

} // namespace tool
} // namespace ev

#endif // EASYVIEW_TOOL_CLIDRIVER_H
