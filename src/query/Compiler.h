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
///  3. Oracle-faithful folding. Constant subexpressions fold at compile
///     time using the language's own semantics (x/0 == 0 like the EVQL007
///     lint describes, string compares, bool coercions), and only when
///     folding cannot erase a runtime error or a side effect.
///
/// Programs are cached by ProgramCache under a source-only key, so
/// pvp/query skips lex/parse/compile on warm hits.
///
//===----------------------------------------------------------------------===//

#ifndef EASYVIEW_QUERY_COMPILER_H
#define EASYVIEW_QUERY_COMPILER_H

#include "query/Ast.h"
#include "support/Limits.h"

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
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
