//===- query/Vm.h - Batched EVQL bytecode execution -----------------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes programs compiled by query/Compiler.h. Instead of walking the
/// AST once per node the way the interpreter does, the VM sweeps each
/// statement's straight-line bytecode over chunks of node lanes against
/// columnar state: typed register banks laid out register-major per chunk,
/// precomputed depth/fan-out/frame-attribute columns (computed once per
/// profile topology, invalidated only by prune/keep), and memoized metric
/// views shared across lanes.
///
/// Contract: the interpreter (query/Interpreter.h) is the oracle. For any
/// program the compiler accepts, runCompiled() produces byte-identical
/// QueryOutput, including error messages and line numbers. Chunks run in
/// ascending node order, so an error is the lowest failing node's, the
/// one the interpreter reports.
///
//===----------------------------------------------------------------------===//

#ifndef EASYVIEW_QUERY_VM_H
#define EASYVIEW_QUERY_VM_H

#include "query/Compiler.h"
#include "query/Interpreter.h"

namespace ev {
namespace evql {

/// Runs a compiled program against \p P. The input profile is not
/// modified; the output holds a transformed copy, exactly like the
/// interpreter's runProgram().
Result<QueryOutput> runCompiled(const Profile &P,
                                const CompiledProgram &Prog);

/// Parses \p Source, compiles it, and runs the VM; falls back to the
/// interpreter for the rare program the compiler rejects (see
/// compileProgram()). This is the engine entry point for callers that do
/// not manage a ProgramCache themselves.
Result<QueryOutput> runProgramAuto(const Profile &P, std::string_view Source,
                                   const AnalysisLimits &Limits);
Result<QueryOutput> runProgramAuto(const Profile &P,
                                   std::string_view Source);

} // namespace evql
} // namespace ev

#endif // EASYVIEW_QUERY_VM_H
