//===- perfbench/Layers.h - Per-layer probes of the traced run ------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Times calls into each module's public functions on the bytes a workload
/// sends. Every call runs inside a span of category "layer", so the probes
/// also land in the run's Chrome trace. Layers are named after the src/
/// modules: ide, support, convert, proto, profile, analysis, render, query.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include "Workloads.h"

#include <map>
#include <string>

namespace pb {

/// Runs every probe on \p In; \returns metric name -> value (names and
/// units as in BENCHMARK.json), or an empty map with \p Error set.
std::map<std::string, double> probeLayers(const ProbeInputs &In,
                                          std::string &Error);

} // namespace pb

#endif // PERFBENCH_LAYERS_H
