//===- query/Compiler.h - EVQL bytecode lowering --------------------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers a parsed EVQL program into a compact register bytecode that the
/// batched VM (query/Vm.h) sweeps over columnar profile segments. Design
/// contract (docs/EVQL.md "Execution"): the tree-walking oracle in the
/// test suite (tests/EvqlOracle.h) defines the language — a compiled
/// program must produce byte-identical QueryOutput, and byte-identical
/// error messages, for every input the oracle accepts or rejects, with
/// the two exceptions property 1 names.
///
/// Three properties make that contract cheap to keep:
///
///  1. Static typing. Every expression's type (number / bool / string) is
///     known at compile time: literals and builtins have fixed types, and
///     'let' bindings carry their initializer's type. The one construct
///     that could produce a data-dependent type — a ternary whose branches
///     disagree and whose condition does not fold — lowers to a Trap
///     ("ternary branches have different types (number and string) at
///     line L") under the ternary's mask. A statement that needs more
///     than 65280 registers of one bank (or global slots of one type)
///     lowers to a single Trap ("statement needs more than 65280
///     registers at line L"). These two are the only programs whose
///     outcome differs from the oracle's; compileProgram() never fails.
///
///  2. Lazy traps. Anything the oracle would reject at RUNTIME (unknown
///     identifier, arity mismatch, string in a numeric position, node
///     builtins outside a node context, nesting past the AnalysisLimits
///     budget) compiles into a Trap instruction carrying the oracle's
///     exact message. Traps respect the execution mask, so an error on
///     the dead side of a short-circuit never fires.
///
///  3. One folder. Constant subexpressions fold at compile time through
///     foldUnary/foldBinary/foldCall, which apply the same scalar functions
///     the VM's lane kernels run (x/0 == 0 like the EVQL007 lint
///     describes, string compares, bool coercions), and only when folding
///     cannot erase a runtime error or a side effect. The checker
///     (analysis/Sema.h) folds through the same functions, so it never
///     claims a constant the engine contradicts.
///
/// Programs are cached by ProgramCache under a source-only key, so
/// pvp/query skips lex/parse/compile on warm hits.
///
//===----------------------------------------------------------------------===//

#ifndef EASYVIEW_QUERY_COMPILER_H
#define EASYVIEW_QUERY_COMPILER_H

#include "query/Ast.h"
#include "support/Limits.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace ev {
namespace evql {

/// Static value type of a register bank.
enum class VType : uint8_t { Num, Bool, Str };

/// Bytecode operations. Every instruction applies to all lanes of the
/// current chunk that its mask admits; register banks are typed (an
/// operand index selects a column in the Num, Bool, or Str bank as the
/// operation dictates).
enum class Op : uint8_t {
  // Immediates and globals (splat one value across the active lanes).
  LoadNum,       ///< num[A] = Imm
  LoadBool,      ///< bool[A] = Imm != 0
  LoadStr,       ///< str[A] = Pool[Str]
  LoadGlobalNum, ///< num[A] = numGlobals[Slot]
  LoadGlobalBool,///< bool[A] = boolGlobals[Slot]
  LoadGlobalStr, ///< str[A] = strGlobals[Slot]
  // Copies and coercions.
  CopyNum,       ///< num[A] = num[B]
  CopyBool,      ///< bool[A] = bool[B]
  CopyStr,       ///< str[A] = str[B]
  BoolToNum,     ///< num[A] = bool[B] ? 1 : 0
  NumToBool,     ///< bool[A] = num[B] != 0
  // Arithmetic, guarded so that x/0 == 0.
  NegNum,        ///< num[A] = -num[B]
  AddNum, SubNum, MulNum,
  DivNum,        ///< num[A] = num[C]==0 ? 0 : num[B]/num[C]  (also ratio())
  ModNum,        ///< num[A] = num[C]==0 ? 0 : fmod(num[B], num[C])
  MinNum, MaxNum,
  AbsNum,
  LogNum,        ///< num[A] = num[B] > 0 ? log(num[B]) : 0
  SqrtNum,       ///< num[A] = num[B] >= 0 ? sqrt(num[B]) : 0
  FloorNum, CeilNum,
  // Numeric comparisons -> bool.
  LtNum, LeNum, GtNum, GeNum, EqNum, NeNum,
  // Boolean algebra. Short-circuit laziness is expressed through masks,
  // not control flow, so these are plain lane-wise operations.
  NotBool,       ///< bool[A] = !bool[B]
  AndBool,       ///< bool[A] = bool[B] && bool[C]
  OrBool,        ///< bool[A] = bool[B] || bool[C]
  AndNotBool,    ///< bool[A] = bool[B] && !bool[C]  (mask building)
  // Strings.
  ConcatStr,     ///< str[A] = str[B] + str[C]
  EqStr, NeStr, LtStr, LeStr, GtStr, GeStr,
  ContainsStr, StartsWithStr, EndsWithStr, ///< bool[A] = f(str[B], str[C])
  StrFromNum,    ///< str[A] = renderNumber(num[B])
  StrFromBool,   ///< str[A] = bool[B] ? "true" : "false"
  FmtStr,        ///< str[A] = renderFormatted(num[B], num[C])
  // Node intrinsics: columnar sweeps over the precomputed frame/topology
  // columns (depth and fan-out are computed once per profile topology).
  NodeName, NodeFile, NodeModule, NodeKind, NodeParentName, ///< -> str[A]
  NodeLine, NodeDepth, NodeChildren,                        ///< -> num[A]
  NodeIsLeaf,    ///< bool[A] = nchildren == 0
  HasAncestor,   ///< bool[A] = any ancestor named str[B]
  // Profile-level intrinsics (legal without a node context).
  NodeCountOp,   ///< num[A] = nodeCount
  TotalOp,       ///< num[A] = view(str[B]).total()
  // Metric-column reads. B holds the metric name; when the name is a
  // compile-time constant, Slot memoizes the resolved view per chunk.
  MetricExcl,    ///< num[A] = view(str[B]).exclusive(node)
  MetricIncl,    ///< num[A] = view(str[B]).inclusive(node)
  ShareOp,       ///< num[A] = total==0 ? 0 : inclusive(node)/total
  // Lazy runtime error: kills every active lane with message Pool[Str].
  Trap,
};

/// The type a builtin takes for one argument: a number (a bool coerces),
/// a string, or any value (str()).
enum class ArgType : uint8_t { Number, String, Any };

/// Where a builtin may run. Outside derive/prune/keep a node builtin
/// fails with "'f()' needs a node context"; NodeHinted ones (the frame
/// attributes) add " (use it in 'derive', 'prune', or 'keep')", as the
/// oracle words it.
enum class NodeUse : uint8_t { Anywhere, Node, NodeHinted };

/// One EVQL builtin: its only definition. The compiler lowers a call from
/// its row, the checker (analysis/Sema.h) types it from the same row, and
/// docs/EVQL.md "Builtins" lists every row.
struct Builtin {
  std::string_view Name;
  uint8_t Arity;
  ArgType Args[2];
  VType Result;
  NodeUse Where;
  /// Argument 0 names a metric column: the instruction carries the call's
  /// Line and memoizes a constant name in a Slot, and the checker looks a
  /// constant name up in the profile (EVQL006).
  bool MetricArg;
  Op Lowered;

  /// The op a call lowers to. str() is the one Any-typed builtin: its
  /// operand's bank picks the conversion.
  Op opFor(VType Arg0) const {
    if (Args[0] != ArgType::Any)
      return Lowered;
    return Arg0 == VType::Num    ? Op::StrFromNum
           : Arg0 == VType::Bool ? Op::StrFromBool
                                 : Op::CopyStr;
  }
};

/// Every EVQL builtin. The order is the tie-break of the checker's
/// "did you mean" hints.
inline constexpr auto Builtins = [] {
  using enum ArgType;
  using enum VType;
  using enum NodeUse;
  using enum Op;
  constexpr bool Metric = true;
  return std::to_array<Builtin>({
      // Name, arity, argument types, result, where, metric arg, op.
      {"metric", 1, {String}, Num, Node, Metric, MetricExcl},
      {"exclusive", 1, {String}, Num, Node, Metric, MetricExcl},
      {"inclusive", 1, {String}, Num, Node, Metric, MetricIncl},
      {"total", 1, {String}, Num, Anywhere, Metric, TotalOp},
      {"share", 1, {String}, Num, Node, Metric, ShareOp},
      {"nodecount", 0, {}, Num, Anywhere, false, NodeCountOp},
      {"name", 0, {}, Str, NodeHinted, false, NodeName},
      {"file", 0, {}, Str, NodeHinted, false, NodeFile},
      {"module", 0, {}, Str, NodeHinted, false, NodeModule},
      {"kind", 0, {}, Str, NodeHinted, false, NodeKind},
      {"line", 0, {}, Num, NodeHinted, false, NodeLine},
      {"depth", 0, {}, Num, Node, false, NodeDepth},
      {"nchildren", 0, {}, Num, Node, false, NodeChildren},
      {"isleaf", 0, {}, Bool, Node, false, NodeIsLeaf},
      {"parentname", 0, {}, Str, Node, false, NodeParentName},
      {"hasancestor", 1, {String}, Bool, Node, false, HasAncestor},
      {"min", 2, {Number, Number}, Num, Anywhere, false, MinNum},
      {"max", 2, {Number, Number}, Num, Anywhere, false, MaxNum},
      // DivNum's zero-denominator guard IS the ratio semantics.
      {"ratio", 2, {Number, Number}, Num, Anywhere, false, DivNum},
      {"abs", 1, {Number}, Num, Anywhere, false, AbsNum},
      {"log", 1, {Number}, Num, Anywhere, false, LogNum},
      {"sqrt", 1, {Number}, Num, Anywhere, false, SqrtNum},
      {"floor", 1, {Number}, Num, Anywhere, false, FloorNum},
      {"ceil", 1, {Number}, Num, Anywhere, false, CeilNum},
      {"contains", 2, {String, String}, Bool, Anywhere, false, ContainsStr},
      {"startswith", 2, {String, String}, Bool, Anywhere, false,
       StartsWithStr},
      {"endswith", 2, {String, String}, Bool, Anywhere, false, EndsWithStr},
      {"str", 1, {Any}, Str, Anywhere, false, StrFromNum},
      {"fmt", 2, {Number, Number}, Str, Anywhere, false, FmtStr},
  });
}();

/// \returns the builtin named \p Name, or nullptr.
const Builtin *findBuiltin(std::string_view Name);

/// The scalar meaning of every pure operation. The VM's lane kernels
/// (query/Vm.cpp) apply these per lane and the constant folder applies
/// them once, so a folded constant is what the engine computes. Each is a
/// distinct function object, so every kernel gets its own lane loop with
/// the body inlined. The guards keep EVQL total: x / 0 == x % 0 == 0,
/// log(x <= 0) == 0 and sqrt(x < 0) == 0.
namespace scalar {
inline constexpr auto ToNum = [](bool V) { return V ? 1.0 : 0.0; };
inline constexpr auto ToBool = [](double V) { return V != 0.0; };
inline constexpr auto Neg = [](double A) { return -A; };
/// Numbers add, strings concatenate.
inline constexpr auto Add = [](const auto &A, const auto &B) { return A + B; };
inline constexpr auto Sub = [](double A, double B) { return A - B; };
inline constexpr auto Mul = [](double A, double B) { return A * B; };
inline constexpr auto Div = [](double A, double B) {
  return B == 0.0 ? 0.0 : A / B;
};
inline constexpr auto Mod = [](double A, double B) {
  return B == 0.0 ? 0.0 : std::fmod(A, B);
};
inline constexpr auto Min = [](double A, double B) { return std::min(A, B); };
inline constexpr auto Max = [](double A, double B) { return std::max(A, B); };
inline constexpr auto Abs = [](double A) { return std::abs(A); };
inline constexpr auto Log = [](double A) { return A > 0 ? std::log(A) : 0.0; };
inline constexpr auto Sqrt = [](double A) {
  return A >= 0 ? std::sqrt(A) : 0.0;
};
inline constexpr auto Floor = [](double A) { return std::floor(A); };
inline constexpr auto Ceil = [](double A) { return std::ceil(A); };
/// Comparisons, on numbers and on strings (byte order) alike.
inline constexpr auto Lt = [](const auto &A, const auto &B) { return A < B; };
inline constexpr auto Le = [](const auto &A, const auto &B) { return A <= B; };
inline constexpr auto Gt = [](const auto &A, const auto &B) { return A > B; };
inline constexpr auto Ge = [](const auto &A, const auto &B) { return A >= B; };
inline constexpr auto Eq = [](const auto &A, const auto &B) { return A == B; };
inline constexpr auto Ne = [](const auto &A, const auto &B) { return A != B; };
inline constexpr auto Not = [](bool A) { return !A; };
inline constexpr auto And = [](bool A, bool B) { return A && B; };
inline constexpr auto Or = [](bool A, bool B) { return A || B; };
inline constexpr auto AndNot = [](bool A, bool B) { return A && !B; };
inline constexpr auto Contains = [](const std::string &A,
                                    const std::string &B) {
  return A.find(B) != std::string::npos;
};
inline constexpr auto StartsWith = [](const std::string &A,
                                      const std::string &B) {
  return A.starts_with(B);
};
inline constexpr auto EndsWith = [](const std::string &A,
                                    const std::string &B) {
  return A.ends_with(B);
};
inline constexpr auto BoolText = [](bool V) {
  return std::string(V ? "true" : "false");
};
} // namespace scalar

/// A compile-time constant: one value of one register bank.
struct Const {
  VType T = VType::Num;
  double N = 0.0;
  bool B = false;
  std::string S;

  static Const num(double V) { return {VType::Num, V, false, {}}; }
  static Const boolean(bool V) { return {VType::Bool, 0.0, V, {}}; }
  static Const str(std::string V) {
    return {VType::Str, 0.0, false, std::move(V)};
  }
  /// The value where a number is expected (a bool coerces) and where a
  /// condition is (a number is true unless 0). nullopt for a string,
  /// where the engine traps.
  std::optional<double> asNumber() const {
    if (T == VType::Str)
      return std::nullopt;
    return T == VType::Bool ? scalar::ToNum(B) : N;
  }
  std::optional<bool> asCondition() const {
    if (T == VType::Str)
      return std::nullopt;
    return T == VType::Bool ? B : scalar::ToBool(N);
  }
};

/// The constant folder, shared by the compiler and the checker. An absent
/// operand is one that is not constant. Each \returns nullopt where the
/// engine would not produce a constant: an operand is absent, a string
/// sits where a number or condition belongs (a trap), or the builtin
/// reads the profile or the node. '&&' and '||' fold from a constant left
/// operand alone when it decides the result, as the right one never runs.
std::optional<Const> foldUnary(TokenKind Tok, const std::optional<Const> &V);
std::optional<Const> foldBinary(TokenKind Tok, const std::optional<Const> &L,
                                const std::optional<Const> &R);
/// \p Args holds \p B.Arity operands.
std::optional<Const> foldCall(const Builtin &B,
                              const std::optional<Const> *Args);

/// The message of a ternary whose branches have static types \p Then and
/// \p Else: "ternary branches have different types (number and string)",
/// a Bool branch named "condition". The engine traps with it and the
/// checker reports it as EVQL005.
std::string ternaryMismatch(VType Then, VType Else);

/// Slot value meaning "no memoized view slot" on metric instructions.
inline constexpr uint16_t NoSlot = 0xFFFF;
/// Mask register 0 is reserved: it reads all-true, so Mask == 0 means the
/// instruction runs on every lane that has not already trapped.
inline constexpr uint16_t FullMask = 0;

struct Instr {
  Op TheOp = Op::Trap;
  uint16_t A = 0;           ///< Destination register.
  uint16_t B = 0, C = 0;    ///< Source registers.
  uint16_t Mask = FullMask; ///< Bool register gating execution.
  uint16_t Slot = NoSlot;   ///< Memoized metric-view slot.
  uint32_t Str = 0;         ///< String-pool index (LoadStr / Trap).
  uint32_t Line = 0;        ///< Source line for runtime diagnostics.
  double Imm = 0.0;         ///< LoadNum / LoadBool immediate.
};

/// One lowered statement: a straight-line instruction sequence evaluated
/// per node (derive/prune/keep) or once (let/print/return).
struct CompiledStmt {
  Stmt::Kind Kind = Stmt::Kind::Print;
  std::string Name;              ///< derive/let target name.
  std::vector<Instr> Code;
  std::vector<std::string> Pool; ///< String literals and trap messages.
  std::vector<std::string> SlotNames; ///< Constant metric name per slot.
  uint16_t NumRegs = 0;
  uint16_t BoolRegs = 1;         ///< Register 0 is the all-true mask.
  uint16_t StrRegs = 0;
  uint16_t Result = 0;           ///< Register holding the statement value.
  VType ResultType = VType::Num;
  uint16_t GlobalSlot = 0;       ///< let: destination global slot.
};

struct CompiledProgram {
  std::vector<CompiledStmt> Stmts;
  uint16_t NumGlobals = 0;
  uint16_t BoolGlobals = 0;
  uint16_t StrGlobals = 0;

  size_t instructionCount() const {
    size_t N = 0;
    for (const CompiledStmt &S : Stmts)
      N += S.Code.size();
    return N;
  }
};

/// Lowers \p Prog to bytecode. Never returns nullptr: every parsed
/// program compiles, including programs that always fail at runtime,
/// which lower to traps reproducing the oracle's exact diagnostics (and
/// the two compiler-only traps of property 1 above). Expressions nested
/// past \p Limits.MaxExprDepth bound the lowering recursion: a trap with
/// the EVQL012-style message.
std::shared_ptr<const CompiledProgram>
compileProgram(const Program &Prog, const AnalysisLimits &Limits);

/// FNV-1a hash of the program source, used in cache keys.
uint64_t hashProgramSource(std::string_view Source);

/// Cache key for a compiled program: source hash plus a length guard
/// against hash collisions. compileProgram() reads only the source (and
/// the server's fixed limits), so one compiled program serves every
/// profile and every generation.
std::string programCacheKey(std::string_view Source);

/// Thread-safe LRU of compiled programs, owned by the ide-layer ViewCache
/// so pvp/query warm hits skip lex/parse/compile entirely. Entries are
/// shared_ptr so a hit stays valid while concurrent sessions evict.
class ProgramCache {
public:
  explicit ProgramCache(size_t Capacity = 64) : Capacity(Capacity) {}

  /// \returns the cached program for \p Key (refreshing its LRU slot), or
  /// nullptr on miss.
  std::shared_ptr<const CompiledProgram> lookup(const std::string &Key);

  /// Inserts \p Prog under \p Key, evicting the least-recently-used entry
  /// beyond capacity. Re-inserting refreshes in place.
  void insert(const std::string &Key,
              std::shared_ptr<const CompiledProgram> Prog);

  size_t capacity() const { return Capacity; }
  size_t size() const;
  uint64_t hits() const { return Hits.load(std::memory_order_relaxed); }
  uint64_t misses() const { return Misses.load(std::memory_order_relaxed); }

private:
  struct Entry {
    std::string Key;
    std::shared_ptr<const CompiledProgram> Prog;
  };

  size_t Capacity;
  mutable std::mutex Mutex;
  std::list<Entry> Lru; ///< Front = most recently used.
  std::unordered_map<std::string, std::list<Entry>::iterator> Index;
  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> Misses{0};
};

} // namespace evql
} // namespace ev

#endif // EASYVIEW_QUERY_COMPILER_H
