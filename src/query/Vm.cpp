//===- query/Vm.cpp - Batched EVQL bytecode execution ---------------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
//
// Execution model. Node statements (derive/prune/keep) sweep the statement
// bytecode over chunks of EVQL_CHUNK lanes; scalar statements
// (let/print/return) run the same executor with a single lane. Per chunk,
// each register is a contiguous row of lane values (register-major), all
// zero-initialized: a lane that a masked instruction skipped reads zeros,
// which the compiler's mask algebra absorbs by construction. Bool register
// 0 is pinned all-true so Mask == FullMask costs nothing.
//
// Error parity with the oracle (tests/EvqlOracle.h): a Trap (or a failed
// metric-view resolution) kills its active lanes with the oracle's
// message; the first instruction to kill a lane wins for that lane
// (instructions are emitted in the oracle's evaluation order), and chunks
// run in ascending node order, so the first dead lane a sweep meets is the
// lowest failing node, the one a node-by-node walk stops at.
//
//===----------------------------------------------------------------------===//

#include "query/Vm.h"

#include "analysis/MetricEngine.h"
#include "analysis/Prune.h"
#include "profile/ProfileBuilder.h"
#include "query/Parser.h"
#include "support/Strings.h"

#include <algorithm>

namespace ev {
namespace evql {

std::string renderNumber(double Value) {
  // A double compares equal to its int64 round-trip only when the cast is
  // defined: comparing against the truncated cast directly would itself be
  // UB for values outside int64 range, e.g. 1e19.
  constexpr double Int64Min = -9223372036854775808.0; // -2^63, exact
  constexpr double Int64Max = 9223372036854775808.0;  //  2^63, exact
  if (Value >= Int64Min && Value < Int64Max &&
      Value == static_cast<double>(static_cast<int64_t>(Value)))
    return std::to_string(static_cast<int64_t>(Value));
  return formatDouble(Value, 6);
}

std::string renderFormatted(double Value, double Digits) {
  // formatDouble's buffer caps useful precision far below this; the clamp
  // only exists so the double->int conversion is defined for hostile digit
  // counts (static_cast of 1e19 to int is UB).
  double Clamped = Digits < -1000.0 ? -1000.0
                   : Digits > 1000.0 ? 1000.0
                                     : Digits;
  return formatDouble(Value, static_cast<int>(Clamped));
}

Profile withDerivedColumn(const Profile &P, std::string_view Name,
                          const std::vector<double> &Column) {
  ProfileBuilder B(P);
  MetricId New = B.addMetric(Name, "derived");
  for (NodeId Id = 0; Id < Column.size(); ++Id)
    if (Column[Id] != 0.0)
      B.addValue(Id, New, Column[Id]);
  return B.take();
}

namespace {

/// Lanes per execution chunk. Large enough to amortize the per-instruction
/// dispatch over a cache-friendly row, small enough that a chunk's banks
/// stay resident.
constexpr size_t ChunkLen = 2048;

/// Per-run mutable state shared by every statement of one program.
struct Run {
  QueryOutput Out;
  // Typed global banks ('let' results), indexed by compile-time slot.
  std::vector<double> NumGlobals;
  std::vector<uint8_t> BoolGlobals;
  std::vector<std::string> StrGlobals;
  // Metric views of the CURRENT working profile, memoized across lanes and
  // chunks; cleared whenever the schema or topology changes (derive adds a
  // column, prune/keep renumbers nodes).
  std::unordered_map<std::string, MetricView> Views;
  // Topology and frame-attribute columns, computed once per topology
  // version: derive does not invalidate them, prune/keep does.
  bool TopoValid = false;
  /// The profile the columns were computed from: the string views below
  /// point into its block, which this copy keeps alive across derives.
  Profile TopoSource;
  std::vector<uint32_t> Parents;
  std::vector<uint32_t> Depths;
  std::vector<uint32_t> ChildCounts;
  std::vector<std::string_view> Names;
  std::vector<std::string_view> Files;
  std::vector<std::string_view> Modules;
  std::vector<std::string_view> Kinds;
  std::vector<double> Lines;

  void invalidateTopo() { TopoValid = false; }

  void ensureTopo() {
    if (TopoValid)
      return;
    TopoSource = Out.Result;
    const Profile &P = TopoSource;
    size_t N = P.nodeCount();
    Parents.assign(N, InvalidNode);
    ChildCounts.assign(N, 0);
    Names.resize(N);
    Files.resize(N);
    Modules.resize(N);
    Kinds.resize(N);
    Lines.assign(N, 0.0);
    for (NodeId Id = 0; Id < N; ++Id) {
      const CCTNode &Node = P.node(Id);
      Parents[Id] = Node.Parent;
      ChildCounts[Id] = static_cast<uint32_t>(Node.Children.size());
      const Frame &F = P.frameOf(Id);
      Names[Id] = P.text(F.Name);
      Files[Id] = P.text(F.Loc.File);
      Modules[Id] = P.text(F.Loc.Module);
      Kinds[Id] = frameKindName(F.Kind);
      Lines[Id] = F.Loc.Line;
    }
    Depths = depthsFromParents(Parents);
    TopoValid = true;
  }

  /// Resolves a metric view of the working profile.
  /// Successful views are memoized; failures are not (the error kills the
  /// querying lanes anyway), and the message matches byte for byte.
  Result<const MetricView *> viewFor(const std::string &Name,
                                     uint32_t Line) {
    auto It = Views.find(Name);
    if (It != Views.end())
      return &It->second;
    MetricId Id = Out.Result.findMetric(Name);
    if (Id == Profile::InvalidMetric)
      return makeError("unknown metric '" + Name + "' at line " +
                       std::to_string(Line));
    auto [Ins, _] = Views.emplace(Name, MetricView(Out.Result, Id));
    return &Ins->second;
  }
};

/// One chunk's register banks plus per-lane death bookkeeping.
struct ChunkState {
  size_t Base = 0; ///< Node id of lane 0.
  size_t Len = 0;
  std::vector<double> Num;
  std::vector<uint8_t> Bool;
  std::vector<std::string> Str;
  std::vector<uint8_t> Dead;
  std::vector<std::string> Err;
  bool AnyDead = false;
};

void executeChunk(Run &R, const CompiledStmt &CS, ChunkState &S) {
  const size_t Len = S.Len;
  S.Num.assign(static_cast<size_t>(CS.NumRegs) * Len, 0.0);
  S.Bool.assign(static_cast<size_t>(CS.BoolRegs) * Len, 0);
  S.Str.assign(static_cast<size_t>(CS.StrRegs) * Len, std::string());
  S.Dead.assign(Len, 0);
  S.Err.assign(Len, std::string());
  S.AnyDead = false;
  std::fill_n(S.Bool.begin(), Len, static_cast<uint8_t>(1));

  // Per-chunk memoization of constant-name metric views: resolved at most
  // once per chunk, shared by every lane.
  std::vector<const MetricView *> SlotViews(CS.SlotNames.size(), nullptr);
  std::vector<uint8_t> SlotReady(CS.SlotNames.size(), 0);

  auto NumRow = [&](uint16_t Reg) { return S.Num.data() + size_t(Reg) * Len; };
  auto BoolRow = [&](uint16_t Reg) {
    return S.Bool.data() + size_t(Reg) * Len;
  };
  auto StrRow = [&](uint16_t Reg) { return S.Str.data() + size_t(Reg) * Len; };

  auto Fail = [&](size_t L, std::string Msg) {
    S.Dead[L] = 1;
    S.Err[L] = std::move(Msg);
    S.AnyDead = true;
  };

  for (const Instr &I : CS.Code) {
    const uint8_t *Mask =
        I.Mask == FullMask ? nullptr : BoolRow(I.Mask);
    auto ForLanes = [&](auto &&Body) {
      for (size_t L = 0; L < Len; ++L)
        if (!S.Dead[L] && (!Mask || Mask[L]))
          Body(L);
    };
    // Lane kernels of the pure ops: each scalar function is its own type,
    // so every op instantiates its own loop with the body inlined.
    auto Unary = [&](auto *A, const auto *B, auto F) {
      ForLanes([&](size_t L) { A[L] = F(B[L]); });
    };
    auto Binary = [&](auto *A, const auto *B, const auto *C, auto F) {
      ForLanes([&](size_t L) { A[L] = F(B[L], C[L]); });
    };

    switch (I.TheOp) {
    case Op::LoadNum: {
      double *A = NumRow(I.A);
      ForLanes([&](size_t L) { A[L] = I.Imm; });
      break;
    }
    case Op::LoadBool: {
      uint8_t *A = BoolRow(I.A);
      uint8_t V = I.Imm != 0.0 ? 1 : 0;
      ForLanes([&](size_t L) { A[L] = V; });
      break;
    }
    case Op::LoadStr: {
      std::string *A = StrRow(I.A);
      const std::string &V = CS.Pool[I.Str];
      ForLanes([&](size_t L) { A[L] = V; });
      break;
    }
    case Op::LoadGlobalNum: {
      double *A = NumRow(I.A);
      double V = R.NumGlobals[I.Slot];
      ForLanes([&](size_t L) { A[L] = V; });
      break;
    }
    case Op::LoadGlobalBool: {
      uint8_t *A = BoolRow(I.A);
      uint8_t V = R.BoolGlobals[I.Slot];
      ForLanes([&](size_t L) { A[L] = V; });
      break;
    }
    case Op::LoadGlobalStr: {
      std::string *A = StrRow(I.A);
      const std::string &V = R.StrGlobals[I.Slot];
      ForLanes([&](size_t L) { A[L] = V; });
      break;
    }
    case Op::CopyNum: {
      double *A = NumRow(I.A);
      const double *B = NumRow(I.B);
      ForLanes([&](size_t L) { A[L] = B[L]; });
      break;
    }
    case Op::CopyBool: {
      uint8_t *A = BoolRow(I.A);
      const uint8_t *B = BoolRow(I.B);
      ForLanes([&](size_t L) { A[L] = B[L]; });
      break;
    }
    case Op::CopyStr: {
      std::string *A = StrRow(I.A);
      const std::string *B = StrRow(I.B);
      ForLanes([&](size_t L) { A[L] = B[L]; });
      break;
    }
    case Op::BoolToNum:
      Unary(NumRow(I.A), BoolRow(I.B), scalar::ToNum);
      break;
    case Op::NumToBool:
      Unary(BoolRow(I.A), NumRow(I.B), scalar::ToBool);
      break;
    case Op::NegNum:
      Unary(NumRow(I.A), NumRow(I.B), scalar::Neg);
      break;
    case Op::AddNum:
      Binary(NumRow(I.A), NumRow(I.B), NumRow(I.C), scalar::Add);
      break;
    case Op::SubNum:
      Binary(NumRow(I.A), NumRow(I.B), NumRow(I.C), scalar::Sub);
      break;
    case Op::MulNum:
      Binary(NumRow(I.A), NumRow(I.B), NumRow(I.C), scalar::Mul);
      break;
    case Op::DivNum:
      Binary(NumRow(I.A), NumRow(I.B), NumRow(I.C), scalar::Div);
      break;
    case Op::ModNum:
      Binary(NumRow(I.A), NumRow(I.B), NumRow(I.C), scalar::Mod);
      break;
    case Op::MinNum:
      Binary(NumRow(I.A), NumRow(I.B), NumRow(I.C), scalar::Min);
      break;
    case Op::MaxNum:
      Binary(NumRow(I.A), NumRow(I.B), NumRow(I.C), scalar::Max);
      break;
    case Op::AbsNum:
      Unary(NumRow(I.A), NumRow(I.B), scalar::Abs);
      break;
    case Op::LogNum:
      Unary(NumRow(I.A), NumRow(I.B), scalar::Log);
      break;
    case Op::SqrtNum:
      Unary(NumRow(I.A), NumRow(I.B), scalar::Sqrt);
      break;
    case Op::FloorNum:
      Unary(NumRow(I.A), NumRow(I.B), scalar::Floor);
      break;
    case Op::CeilNum:
      Unary(NumRow(I.A), NumRow(I.B), scalar::Ceil);
      break;
    case Op::LtNum:
      Binary(BoolRow(I.A), NumRow(I.B), NumRow(I.C), scalar::Lt);
      break;
    case Op::LeNum:
      Binary(BoolRow(I.A), NumRow(I.B), NumRow(I.C), scalar::Le);
      break;
    case Op::GtNum:
      Binary(BoolRow(I.A), NumRow(I.B), NumRow(I.C), scalar::Gt);
      break;
    case Op::GeNum:
      Binary(BoolRow(I.A), NumRow(I.B), NumRow(I.C), scalar::Ge);
      break;
    case Op::EqNum:
      Binary(BoolRow(I.A), NumRow(I.B), NumRow(I.C), scalar::Eq);
      break;
    case Op::NeNum:
      Binary(BoolRow(I.A), NumRow(I.B), NumRow(I.C), scalar::Ne);
      break;
    case Op::NotBool:
      Unary(BoolRow(I.A), BoolRow(I.B), scalar::Not);
      break;
    case Op::AndBool:
      Binary(BoolRow(I.A), BoolRow(I.B), BoolRow(I.C), scalar::And);
      break;
    case Op::OrBool:
      Binary(BoolRow(I.A), BoolRow(I.B), BoolRow(I.C), scalar::Or);
      break;
    case Op::AndNotBool:
      Binary(BoolRow(I.A), BoolRow(I.B), BoolRow(I.C), scalar::AndNot);
      break;
    case Op::ConcatStr:
      Binary(StrRow(I.A), StrRow(I.B), StrRow(I.C), scalar::Add);
      break;
    case Op::EqStr:
      Binary(BoolRow(I.A), StrRow(I.B), StrRow(I.C), scalar::Eq);
      break;
    case Op::NeStr:
      Binary(BoolRow(I.A), StrRow(I.B), StrRow(I.C), scalar::Ne);
      break;
    case Op::LtStr:
      Binary(BoolRow(I.A), StrRow(I.B), StrRow(I.C), scalar::Lt);
      break;
    case Op::LeStr:
      Binary(BoolRow(I.A), StrRow(I.B), StrRow(I.C), scalar::Le);
      break;
    case Op::GtStr:
      Binary(BoolRow(I.A), StrRow(I.B), StrRow(I.C), scalar::Gt);
      break;
    case Op::GeStr:
      Binary(BoolRow(I.A), StrRow(I.B), StrRow(I.C), scalar::Ge);
      break;
    case Op::ContainsStr:
      Binary(BoolRow(I.A), StrRow(I.B), StrRow(I.C), scalar::Contains);
      break;
    case Op::StartsWithStr:
      Binary(BoolRow(I.A), StrRow(I.B), StrRow(I.C), scalar::StartsWith);
      break;
    case Op::EndsWithStr:
      Binary(BoolRow(I.A), StrRow(I.B), StrRow(I.C), scalar::EndsWith);
      break;
    case Op::StrFromNum:
      Unary(StrRow(I.A), NumRow(I.B), renderNumber);
      break;
    case Op::StrFromBool:
      Unary(StrRow(I.A), BoolRow(I.B), scalar::BoolText);
      break;
    case Op::FmtStr:
      Binary(StrRow(I.A), NumRow(I.B), NumRow(I.C), renderFormatted);
      break;
    case Op::NodeName: {
      std::string *A = StrRow(I.A);
      ForLanes([&](size_t L) { A[L] = std::string(R.Names[S.Base + L]); });
      break;
    }
    case Op::NodeFile: {
      std::string *A = StrRow(I.A);
      ForLanes([&](size_t L) { A[L] = std::string(R.Files[S.Base + L]); });
      break;
    }
    case Op::NodeModule: {
      std::string *A = StrRow(I.A);
      ForLanes([&](size_t L) { A[L] = std::string(R.Modules[S.Base + L]); });
      break;
    }
    case Op::NodeKind: {
      std::string *A = StrRow(I.A);
      ForLanes([&](size_t L) { A[L] = std::string(R.Kinds[S.Base + L]); });
      break;
    }
    case Op::NodeParentName: {
      std::string *A = StrRow(I.A);
      ForLanes([&](size_t L) {
        uint32_t Parent = R.Parents[S.Base + L];
        A[L] = Parent == InvalidNode ? std::string()
                                     : std::string(R.Names[Parent]);
      });
      break;
    }
    case Op::NodeLine: {
      double *A = NumRow(I.A);
      ForLanes([&](size_t L) { A[L] = R.Lines[S.Base + L]; });
      break;
    }
    case Op::NodeDepth: {
      double *A = NumRow(I.A);
      ForLanes([&](size_t L) { A[L] = R.Depths[S.Base + L]; });
      break;
    }
    case Op::NodeChildren: {
      double *A = NumRow(I.A);
      ForLanes([&](size_t L) { A[L] = R.ChildCounts[S.Base + L]; });
      break;
    }
    case Op::NodeIsLeaf: {
      uint8_t *A = BoolRow(I.A);
      ForLanes(
          [&](size_t L) { A[L] = R.ChildCounts[S.Base + L] == 0 ? 1 : 0; });
      break;
    }
    case Op::HasAncestor: {
      uint8_t *A = BoolRow(I.A);
      const std::string *B = StrRow(I.B);
      size_t N = R.Parents.size();
      ForLanes([&](size_t L) {
        bool Found = false;
        for (uint32_t Walk = R.Parents[S.Base + L];
             Walk != InvalidNode && Walk < N; Walk = R.Parents[Walk])
          if (R.Names[Walk] == B[L]) {
            Found = true;
            break;
          }
        A[L] = Found ? 1 : 0;
      });
      break;
    }
    case Op::NodeCountOp: {
      double *A = NumRow(I.A);
      double V = static_cast<double>(R.Out.Result.nodeCount());
      ForLanes([&](size_t L) { A[L] = V; });
      break;
    }
    case Op::TotalOp:
    case Op::MetricExcl:
    case Op::MetricIncl:
    case Op::ShareOp: {
      double *A = NumRow(I.A);
      const std::string *NameRow = StrRow(I.B);
      const MetricView *SlotView = nullptr;
      std::string SlotErr;
      if (I.Slot != NoSlot) {
        if (!SlotReady[I.Slot]) {
          Result<const MetricView *> V = R.viewFor(CS.SlotNames[I.Slot],
                                                   I.Line);
          if (V) {
            SlotViews[I.Slot] = *V;
            SlotReady[I.Slot] = 1;
          } else {
            SlotErr = V.error();
          }
        }
        SlotView = SlotViews[I.Slot];
        if (!SlotView && SlotErr.empty())
          SlotErr = "unknown metric '" + CS.SlotNames[I.Slot] +
                    "' at line " + std::to_string(I.Line);
      }
      Op O = I.TheOp;
      ForLanes([&](size_t L) {
        const MetricView *V = SlotView;
        if (I.Slot != NoSlot && !V) {
          Fail(L, SlotErr);
          return;
        }
        if (!V) {
          Result<const MetricView *> RV = R.viewFor(NameRow[L], I.Line);
          if (!RV) {
            Fail(L, RV.error());
            return;
          }
          V = *RV;
        }
        NodeId Node = static_cast<NodeId>(S.Base + L);
        switch (O) {
        case Op::MetricExcl:
          A[L] = V->exclusive(Node);
          break;
        case Op::MetricIncl:
          A[L] = V->inclusive(Node);
          break;
        case Op::TotalOp:
          A[L] = V->total();
          break;
        default: { // ShareOp
          double Total = V->total();
          A[L] = Total == 0.0 ? 0.0 : V->inclusive(Node) / Total;
          break;
        }
        }
      });
      break;
    }
    case Op::Trap: {
      const std::string &Msg = CS.Pool[I.Str];
      ForLanes([&](size_t L) { Fail(L, Msg); });
      break;
    }
    }
  }
}

/// Renders a scalar statement's result register like RtValue::render().
std::string renderResult(const CompiledStmt &CS, const ChunkState &S) {
  switch (CS.ResultType) {
  case VType::Num:
    return renderNumber(S.Num[size_t(CS.Result) * S.Len]);
  case VType::Bool:
    return S.Bool[size_t(CS.Result) * S.Len] ? "true" : "false";
  case VType::Str:
    return S.Str[size_t(CS.Result) * S.Len];
  }
  return "";
}

/// Runs \p CS once with no node context (let/print/return).
Result<bool> executeScalar(Run &R, const CompiledStmt &CS, ChunkState &S) {
  S.Base = 0;
  S.Len = 1;
  executeChunk(R, CS, S);
  if (S.Dead[0])
    return makeError(S.Err[0]);
  return true;
}

/// Sweeps \p CS over nodes [First, End) in ascending chunks, calling
/// \p Sink(S) per finished chunk. \returns the error of the lowest failing
/// node, stopping at the chunk that holds it.
Result<bool> sweep(Run &R, const CompiledStmt &CS, size_t First, size_t End,
                   const std::function<void(const ChunkState &)> &Sink) {
  ChunkState S;
  for (size_t Base = First; Base < End; Base += ChunkLen) {
    S.Base = Base;
    S.Len = std::min(ChunkLen, End - Base);
    executeChunk(R, CS, S);
    if (S.AnyDead)
      for (size_t L = 0; L < S.Len; ++L)
        if (S.Dead[L])
          return makeError(S.Err[L]);
    Sink(S);
  }
  return true;
}

} // namespace

Result<QueryOutput> runCompiled(const Profile &P,
                                const CompiledProgram &Prog) {
  Run R;
  R.Out.Result = P;
  R.NumGlobals.assign(Prog.NumGlobals, 0.0);
  R.BoolGlobals.assign(Prog.BoolGlobals, 0);
  R.StrGlobals.assign(Prog.StrGlobals, std::string());

  for (const CompiledStmt &CS : Prog.Stmts) {
    switch (CS.Kind) {
    case Stmt::Kind::Let: {
      ChunkState S;
      Result<bool> Ok = executeScalar(R, CS, S);
      if (!Ok)
        return makeError(Ok.error());
      switch (CS.ResultType) {
      case VType::Num:
        R.NumGlobals[CS.GlobalSlot] = S.Num[size_t(CS.Result)];
        break;
      case VType::Bool:
        R.BoolGlobals[CS.GlobalSlot] = S.Bool[size_t(CS.Result)];
        break;
      case VType::Str:
        R.StrGlobals[CS.GlobalSlot] = std::move(S.Str[size_t(CS.Result)]);
        break;
      }
      break;
    }
    case Stmt::Kind::Print:
    case Stmt::Kind::Return: {
      ChunkState S;
      Result<bool> Ok = executeScalar(R, CS, S);
      if (!Ok)
        return makeError(Ok.error());
      R.Out.Printed.push_back(renderResult(CS, S));
      if (CS.Kind == Stmt::Kind::Return)
        return std::move(R.Out);
      break;
    }
    case Stmt::Kind::Derive: {
      R.ensureTopo();
      size_t N = R.Out.Result.nodeCount();
      std::vector<double> Column(N, 0.0);
      Result<bool> Ok =
          sweep(R, CS, 0, N, [&](const ChunkState &S) {
            const double *Res = S.Num.data() + size_t(CS.Result) * S.Len;
            std::copy(Res, Res + S.Len, Column.begin() + S.Base);
          });
      if (!Ok)
        return makeError(Ok.error());
      R.Out.Result = withDerivedColumn(R.Out.Result, CS.Name, Column);
      R.Out.DerivedMetrics.push_back(CS.Name);
      R.Views.clear(); // Schema changed; topology did not.
      break;
    }
    case Stmt::Kind::Prune:
    case Stmt::Kind::Keep: {
      R.ensureTopo();
      size_t N = R.Out.Result.nodeCount();
      std::vector<char> Keep(N, 1);
      bool IsPrune = CS.Kind == Stmt::Kind::Prune;
      Result<bool> Ok =
          sweep(R, CS, 1, N, [&](const ChunkState &S) {
            const uint8_t *Res = S.Bool.data() + size_t(CS.Result) * S.Len;
            for (size_t L = 0; L < S.Len; ++L)
              Keep[S.Base + L] = IsPrune ? Res[L] == 0 : Res[L] != 0;
          });
      if (!Ok)
        return makeError(Ok.error());
      R.Out.Result = filterNodes(
          R.Out.Result, [&Keep](const Profile &, NodeId Id) -> bool {
            return Keep[Id] != 0;
          });
      R.Views.clear();     // Node ids changed.
      R.invalidateTopo();  // New topology version.
      break;
    }
    }
  }
  return std::move(R.Out);
}

Result<QueryOutput> runProgram(const Profile &P, const Program &Prog,
                               const AnalysisLimits &Limits) {
  return runCompiled(P, *compileProgram(Prog, Limits));
}

Result<QueryOutput> runProgram(const Profile &P, const Program &Prog) {
  return runProgram(P, Prog, AnalysisLimits::defaults());
}

Result<QueryOutput> runProgram(const Profile &P, std::string_view Source,
                               const AnalysisLimits &Limits) {
  if (std::optional<std::string> TooLarge = programSizeError(Source, Limits))
    return makeError(std::move(*TooLarge));
  Result<Program> Prog = parseProgram(Source);
  if (!Prog)
    return makeError(Prog.error());
  return runProgram(P, *Prog, Limits);
}

Result<QueryOutput> runProgram(const Profile &P, std::string_view Source) {
  return runProgram(P, Source, AnalysisLimits::defaults());
}

} // namespace evql
} // namespace ev
