//===- query/Compiler.cpp - EVQL bytecode lowering ------------------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
//
// The lowering mirrors the tree-walking oracle (tests/EvqlOracle.cpp)
// clause by clause: every compileX function corresponds to an evalX
// function, emits operand code in the oracle's evaluation order, and turns
// every runtime-error branch into a masked Trap carrying the oracle's exact
// message. Read the two files side by side when changing either.
//
//===----------------------------------------------------------------------===//

#include "query/Compiler.h"

#include "query/Vm.h"
#include "support/Strings.h"

#include <algorithm>
#include <cmath>
#include <optional>

namespace ev {
namespace evql {

namespace {

/// Compile-time constant value; mirrors the oracle's RtValue.
struct CVal {
  VType T = VType::Num;
  double N = 0.0;
  bool B = false;
  std::string S;

  static CVal num(double V) {
    CVal C;
    C.T = VType::Num;
    C.N = V;
    return C;
  }
  static CVal boolean(bool V) {
    CVal C;
    C.T = VType::Bool;
    C.B = V;
    return C;
  }
  static CVal str(std::string V) {
    CVal C;
    C.T = VType::Str;
    C.S = std::move(V);
    return C;
  }

  /// Numeric coercion matching evalNumber/AsNumber; only called on
  /// non-string constants.
  double asNumber() const { return T == VType::Bool ? (B ? 1.0 : 0.0) : N; }

  /// RtValue::render() for constants.
  std::string render() const {
    switch (T) {
    case VType::Num:
      return renderNumber(N);
    case VType::Bool:
      return B ? "true" : "false";
    case VType::Str:
      return S;
    }
    return "";
  }
};

/// A compiled expression: its static type, the register holding it, and
/// the folded constant when the subtree was pure and constant. Never marks
/// an expression that traps on every lane reaching it (its type is only a
/// placeholder), so a ternary takes its other branch's type.
struct EV {
  VType T = VType::Num;
  uint16_t Reg = 0;
  std::optional<CVal> Const;
  bool Never = false;
};

const char *typeName(VType T) {
  switch (T) {
  case VType::Num:
    return "number";
  case VType::Bool:
    return "condition";
  case VType::Str:
    return "string";
  }
  return "";
}

/// A 'let' binding in the compile-time environment.
struct Binding {
  VType T = VType::Num;
  uint16_t Slot = 0;
  std::optional<CVal> Const;
};

/// Register ids stay comfortably under the uint16 ceiling; a statement
/// that needs more lowers to one trap.
constexpr uint16_t RegCap = 0xFF00;

/// Folds a non-logical binary operator over two constants, mirroring the
/// oracle's Binary clause exactly (including the x/0 == 0 guard the
/// EVQL007 lint documents). \returns nullopt when the oracle would
/// raise a runtime error instead (string operand on the numeric path) —
/// the caller then emits the code path whose trap reproduces it.
std::optional<CVal> foldBinary(TokenKind Op, const CVal &L, const CVal &R) {
  bool BothStrings = L.T == VType::Str && R.T == VType::Str;
  switch (Op) {
  case TokenKind::Plus:
    if (BothStrings)
      return CVal::str(L.S + R.S);
    break;
  case TokenKind::EqualEqual:
  case TokenKind::BangEqual: {
    bool Equal;
    if (BothStrings)
      Equal = L.S == R.S;
    else if (L.T == VType::Str || R.T == VType::Str)
      Equal = false;
    else
      Equal = L.asNumber() == R.asNumber();
    return CVal::boolean(Op == TokenKind::EqualEqual ? Equal : !Equal);
  }
  case TokenKind::Less:
  case TokenKind::LessEqual:
  case TokenKind::Greater:
  case TokenKind::GreaterEqual:
    if (BothStrings) {
      int Cmp = L.S.compare(R.S);
      switch (Op) {
      case TokenKind::Less:
        return CVal::boolean(Cmp < 0);
      case TokenKind::LessEqual:
        return CVal::boolean(Cmp <= 0);
      case TokenKind::Greater:
        return CVal::boolean(Cmp > 0);
      default:
        return CVal::boolean(Cmp >= 0);
      }
    }
    break;
  default:
    break;
  }
  if (L.T == VType::Str || R.T == VType::Str)
    return std::nullopt;
  double A = L.asNumber();
  double B = R.asNumber();
  switch (Op) {
  case TokenKind::Plus:
    return CVal::num(A + B);
  case TokenKind::Minus:
    return CVal::num(A - B);
  case TokenKind::Star:
    return CVal::num(A * B);
  case TokenKind::Slash:
    return CVal::num(B == 0.0 ? 0.0 : A / B);
  case TokenKind::Percent:
    return CVal::num(B == 0.0 ? 0.0 : std::fmod(A, B));
  case TokenKind::Less:
    return CVal::boolean(A < B);
  case TokenKind::LessEqual:
    return CVal::boolean(A <= B);
  case TokenKind::Greater:
    return CVal::boolean(A > B);
  case TokenKind::GreaterEqual:
    return CVal::boolean(A >= B);
  default:
    return std::nullopt;
  }
}

/// Lowers the statements of one program. The environment of 'let'
/// bindings persists across statements, like the oracle's Globals.
class Lowering {
public:
  Lowering(const AnalysisLimits &Limits, CompiledProgram &Out)
      : Limits(Limits), Out(Out) {}

  void lowerStmt(const Stmt &St) {
    Out.Stmts.emplace_back();
    CS = &Out.Stmts.back();
    CS->Kind = St.TheKind;
    CS->Name = St.Name;
    CurMask = FullMask;
    switch (St.TheKind) {
    case Stmt::Kind::Let: {
      NodeCtx = false;
      EV V = compileExpr(*St.Value, 0);
      Binding B;
      B.T = V.T;
      B.Slot = allocGlobal(V.T);
      B.Const = V.Const;
      Env[St.Name] = B;
      CS->GlobalSlot = B.Slot;
      finish(V);
      break;
    }
    case Stmt::Kind::Print:
    case Stmt::Kind::Return: {
      NodeCtx = false;
      finish(compileExpr(*St.Value, 0));
      break;
    }
    case Stmt::Kind::Derive: {
      NodeCtx = true;
      finish(compileNumber(*St.Value, 0));
      break;
    }
    case Stmt::Kind::Prune:
    case Stmt::Kind::Keep: {
      NodeCtx = true;
      finish(compileBool(*St.Value, 0));
      break;
    }
    }
    if (Overflowed) {
      // Nothing lowered past the register file survives: the statement
      // becomes one trap that fails wherever it runs.
      VType T = CS->ResultType;
      uint16_t Slot = CS->GlobalSlot;
      *CS = CompiledStmt();
      CS->Kind = St.TheKind;
      CS->Name = St.Name;
      CS->GlobalSlot = Slot;
      CurMask = FullMask;
      Overflowed = false;
      finish(trap("statement needs more than " + std::to_string(RegCap) +
                      " registers",
                  St.Line, T));
    }
  }

private:
  const AnalysisLimits &Limits;
  CompiledProgram &Out;
  CompiledStmt *CS = nullptr;
  std::unordered_map<std::string, Binding> Env;
  bool NodeCtx = false;
  uint16_t CurMask = FullMask;
  /// Set when the current statement outgrew a register bank; lowering
  /// carries on with a placeholder register and lowerStmt discards it all.
  bool Overflowed = false;

  void finish(const EV &V) {
    CS->Result = V.Reg;
    CS->ResultType = V.T;
  }

  uint16_t alloc(VType T) {
    uint16_t *Bank = T == VType::Num    ? &CS->NumRegs
                     : T == VType::Bool ? &CS->BoolRegs
                                        : &CS->StrRegs;
    if (*Bank >= RegCap) {
      Overflowed = true;
      return RegCap - 1;
    }
    return (*Bank)++;
  }

  uint16_t allocGlobal(VType T) {
    uint16_t *Bank = T == VType::Num    ? &Out.NumGlobals
                     : T == VType::Bool ? &Out.BoolGlobals
                                        : &Out.StrGlobals;
    if (*Bank >= RegCap) {
      Overflowed = true;
      return 0;
    }
    return (*Bank)++;
  }

  Instr &emit(Op O, uint16_t A, uint16_t B = 0, uint16_t C = 0) {
    Instr I;
    I.TheOp = O;
    I.A = A;
    I.B = B;
    I.C = C;
    I.Mask = CurMask;
    CS->Code.push_back(I);
    return CS->Code.back();
  }

  uint32_t pool(std::string Text) {
    CS->Pool.push_back(std::move(Text));
    return static_cast<uint32_t>(CS->Pool.size() - 1);
  }

  uint16_t addSlot(const std::string &Name) {
    for (size_t I = 0; I < CS->SlotNames.size(); ++I)
      if (CS->SlotNames[I] == Name)
        return static_cast<uint16_t>(I);
    // Every slot follows an alloc(Num) in the same statement, so a table
    // this full means the number bank has already overflowed: NoSlot only
    // keeps lowering going until lowerStmt swaps the statement for the
    // overflow trap.
    if (CS->SlotNames.size() >= NoSlot - 1)
      return NoSlot;
    CS->SlotNames.push_back(Name);
    return static_cast<uint16_t>(CS->SlotNames.size() - 1);
  }

  /// Emits a lazy runtime error with the oracle's typeError() shape
  /// ("<what> at line <line>") and returns a dummy register of the type
  /// the surrounding code expects — lanes reaching the trap are dead, so
  /// the dummy's (zero) value is never observed.
  EV trap(std::string What, size_t Line, VType T) {
    Instr &I = emit(Op::Trap, 0);
    I.Str = pool(std::move(What) + " at line " + std::to_string(Line));
    I.Line = static_cast<uint32_t>(Line);
    EV V;
    V.T = T;
    V.Reg = alloc(T);
    V.Never = true;
    return V;
  }

  /// Discards code emitted since \p Mark. Only legal when that code is
  /// pure (constant loads) — which holds whenever the values computed by
  /// it folded to constants, since traps and effectful ops never fold.
  void rewind(size_t Mark) { CS->Code.resize(Mark); }

  EV materialize(CVal C) {
    EV V;
    V.T = C.T;
    V.Reg = alloc(C.T);
    switch (C.T) {
    case VType::Num:
      emit(Op::LoadNum, V.Reg).Imm = C.N;
      break;
    case VType::Bool:
      emit(Op::LoadBool, V.Reg).Imm = C.B ? 1.0 : 0.0;
      break;
    case VType::Str:
      emit(Op::LoadStr, V.Reg).Str = pool(C.S);
      break;
    }
    V.Const = std::move(C);
    return V;
  }

  // Coercion wrappers, one per oracle evalX helper. Each passes the
  // SAME depth through (evalNumber calls evalExpr on the same node).

  EV compileNumber(const Expr &E, size_t Depth) {
    EV V = compileExpr(E, Depth);
    switch (V.T) {
    case VType::Num:
      return V;
    case VType::Bool: {
      uint16_t R = alloc(VType::Num);
      emit(Op::BoolToNum, R, V.Reg);
      EV O;
      O.T = VType::Num;
      O.Reg = R;
      if (V.Const)
        O.Const = CVal::num(V.Const->B ? 1.0 : 0.0);
      return O;
    }
    case VType::Str:
      return trap("expected a number, found a string", E.Line, VType::Num);
    }
    return V;
  }

  EV compileBool(const Expr &E, size_t Depth) {
    EV V = compileExpr(E, Depth);
    switch (V.T) {
    case VType::Bool:
      return V;
    case VType::Num: {
      uint16_t R = alloc(VType::Bool);
      emit(Op::NumToBool, R, V.Reg);
      EV O;
      O.T = VType::Bool;
      O.Reg = R;
      if (V.Const)
        O.Const = CVal::boolean(V.Const->N != 0.0);
      return O;
    }
    case VType::Str:
      return trap("expected a condition, found a string", E.Line,
                  VType::Bool);
    }
    return V;
  }

  EV compileString(const Expr &E, size_t Depth) {
    EV V = compileExpr(E, Depth);
    if (V.T != VType::Str)
      return trap("expected a string", E.Line, VType::Str);
    return V;
  }

  EV compileExpr(const Expr &E, size_t Depth) {
    // Mirrors the oracle's (and Sema's EVQL012) recursion bound, and
    // bounds the lowering recursion itself: past the budget nothing is
    // recursed into, only a trap is emitted. The trap is masked like any
    // other, so a too-deep subtree on the dead side of a short-circuit
    // still never errors — exactly the oracle's laziness.
    if (Depth >= Limits.MaxExprDepth)
      return trap("expression nesting exceeds the analysis limit of " +
                      std::to_string(Limits.MaxExprDepth),
                  E.Line, VType::Num);
    switch (E.TheKind) {
    case Expr::Kind::NumberLit:
      return materialize(CVal::num(E.Number));
    case Expr::Kind::StringLit:
      return materialize(CVal::str(E.Text));
    case Expr::Kind::BoolLit:
      return materialize(CVal::boolean(E.BoolValue));
    case Expr::Kind::Ident: {
      auto It = Env.find(E.Text);
      if (It == Env.end())
        return trap("unknown identifier '" + E.Text + "'", E.Line,
                    VType::Num);
      const Binding &B = It->second;
      EV V;
      V.T = B.T;
      V.Reg = alloc(B.T);
      V.Const = B.Const;
      Op Load = B.T == VType::Num    ? Op::LoadGlobalNum
                : B.T == VType::Bool ? Op::LoadGlobalBool
                                     : Op::LoadGlobalStr;
      emit(Load, V.Reg).Slot = B.Slot;
      return V;
    }
    case Expr::Kind::Unary: {
      size_t Mark = CS->Code.size();
      if (E.Op == TokenKind::Minus) {
        EV V = compileNumber(*E.Operands[0], Depth + 1);
        if (V.Const) {
          rewind(Mark);
          return materialize(CVal::num(-V.Const->N));
        }
        uint16_t R = alloc(VType::Num);
        emit(Op::NegNum, R, V.Reg);
        return EV{VType::Num, R, std::nullopt};
      }
      EV V = compileBool(*E.Operands[0], Depth + 1);
      if (V.Const) {
        rewind(Mark);
        return materialize(CVal::boolean(!V.Const->B));
      }
      uint16_t R = alloc(VType::Bool);
      emit(Op::NotBool, R, V.Reg);
      return EV{VType::Bool, R, std::nullopt};
    }
    case Expr::Kind::Ternary:
      return compileTernary(E, Depth);
    case Expr::Kind::Binary:
      return compileBinary(E, Depth);
    case Expr::Kind::Call:
      return compileCall(E, Depth);
    }
    return trap("unreachable expression kind", E.Line, VType::Num);
  }

  EV compileTernary(const Expr &E, size_t Depth) {
    size_t Mark = CS->Code.size();
    EV Cond = compileBool(*E.Operands[0], Depth + 1);
    if (Cond.Const) {
      // Only the taken branch is evaluated; a constant condition's code
      // is pure, so it folds away entirely.
      rewind(Mark);
      return compileExpr(Cond.Const->B ? *E.Operands[1] : *E.Operands[2],
                         Depth + 1);
    }
    uint16_t MThen, MElse;
    if (CurMask == FullMask) {
      MThen = Cond.Reg;
      MElse = alloc(VType::Bool);
      emit(Op::NotBool, MElse, Cond.Reg);
    } else {
      MThen = alloc(VType::Bool);
      emit(Op::AndBool, MThen, CurMask, Cond.Reg);
      MElse = alloc(VType::Bool);
      emit(Op::AndNotBool, MElse, CurMask, Cond.Reg);
    }
    uint16_t Saved = CurMask;
    CurMask = MThen;
    EV Then = compileExpr(*E.Operands[1], Depth + 1);
    CurMask = MElse;
    EV Else = compileExpr(*E.Operands[2], Depth + 1);
    CurMask = Saved;
    // Typed registers cannot hold a data-dependent type: every lane that
    // reaches a mixed ternary traps. A branch that always traps has no
    // type of its own and takes the other's.
    if (Then.T != Else.T && !Then.Never && !Else.Never)
      return trap(std::string("ternary branches have different types (") +
                      typeName(Then.T) + " and " + typeName(Else.T) + ")",
                  E.Line, Then.T);
    VType T = Then.Never ? Else.T : Then.T;
    uint16_t R = alloc(T);
    Op Copy = T == VType::Num    ? Op::CopyNum
              : T == VType::Bool ? Op::CopyBool
                                 : Op::CopyStr;
    if (!Then.Never) {
      CurMask = MThen;
      emit(Copy, R, Then.Reg);
    }
    if (!Else.Never) {
      CurMask = MElse;
      emit(Copy, R, Else.Reg);
    }
    CurMask = Saved;
    return EV{T, R, std::nullopt, Then.Never && Else.Never};
  }

  EV compileBinary(const Expr &E, size_t Depth) {
    // Short-circuit logic first, like the oracle.
    if (E.Op == TokenKind::AmpAmp || E.Op == TokenKind::PipePipe) {
      size_t Mark = CS->Code.size();
      EV Lhs = compileBool(*E.Operands[0], Depth + 1);
      if (Lhs.Const) {
        // Absorbing element: the RHS is never evaluated (so a trap inside
        // it must not be emitted). Neutral element: the result IS the
        // RHS-as-bool. Either way the constant LHS code is pure.
        rewind(Mark);
        if (E.Op == TokenKind::AmpAmp && !Lhs.Const->B)
          return materialize(CVal::boolean(false));
        if (E.Op == TokenKind::PipePipe && Lhs.Const->B)
          return materialize(CVal::boolean(true));
        return compileBool(*E.Operands[1], Depth + 1);
      }
      uint16_t MRhs;
      if (E.Op == TokenKind::AmpAmp) {
        if (CurMask == FullMask) {
          MRhs = Lhs.Reg;
        } else {
          MRhs = alloc(VType::Bool);
          emit(Op::AndBool, MRhs, CurMask, Lhs.Reg);
        }
      } else {
        MRhs = alloc(VType::Bool);
        if (CurMask == FullMask)
          emit(Op::NotBool, MRhs, Lhs.Reg);
        else
          emit(Op::AndNotBool, MRhs, CurMask, Lhs.Reg);
      }
      uint16_t Saved = CurMask;
      CurMask = MRhs;
      EV Rhs = compileBool(*E.Operands[1], Depth + 1);
      CurMask = Saved;
      // Lanes the RHS never ran on read its zero-initialized (false)
      // register, which is absorbed by the combine below.
      uint16_t R = alloc(VType::Bool);
      emit(E.Op == TokenKind::AmpAmp ? Op::AndBool : Op::OrBool, R, Lhs.Reg,
           Rhs.Reg);
      return EV{VType::Bool, R, std::nullopt};
    }

    size_t Mark = CS->Code.size();
    EV Lhs = compileExpr(*E.Operands[0], Depth + 1);
    EV Rhs = compileExpr(*E.Operands[1], Depth + 1);
    if (Lhs.Const && Rhs.Const)
      if (std::optional<CVal> Folded = foldBinary(E.Op, *Lhs.Const,
                                                  *Rhs.Const)) {
        rewind(Mark);
        return materialize(std::move(*Folded));
      }

    bool BothStrings = Lhs.T == VType::Str && Rhs.T == VType::Str;
    switch (E.Op) {
    case TokenKind::Plus:
      if (BothStrings) {
        uint16_t R = alloc(VType::Str);
        emit(Op::ConcatStr, R, Lhs.Reg, Rhs.Reg);
        return EV{VType::Str, R, std::nullopt};
      }
      break;
    case TokenKind::EqualEqual:
    case TokenKind::BangEqual: {
      uint16_t R = alloc(VType::Bool);
      if (BothStrings) {
        emit(E.Op == TokenKind::EqualEqual ? Op::EqStr : Op::NeStr, R,
             Lhs.Reg, Rhs.Reg);
        return EV{VType::Bool, R, std::nullopt};
      }
      if (Lhs.T == VType::Str || Rhs.T == VType::Str) {
        // Mixed string/non-string never compares equal — but the
        // oracle still evaluated both operands, so their code (and
        // any traps in it) stays.
        emit(Op::LoadBool, R).Imm = E.Op == TokenKind::BangEqual ? 1.0 : 0.0;
        return EV{VType::Bool, R, std::nullopt};
      }
      uint16_t A = toNumeric(Lhs, E.Line);
      uint16_t B = toNumeric(Rhs, E.Line);
      emit(E.Op == TokenKind::EqualEqual ? Op::EqNum : Op::NeNum, R, A, B);
      return EV{VType::Bool, R, std::nullopt};
    }
    case TokenKind::Less:
    case TokenKind::LessEqual:
    case TokenKind::Greater:
    case TokenKind::GreaterEqual:
      if (BothStrings) {
        uint16_t R = alloc(VType::Bool);
        Op O = E.Op == TokenKind::Less        ? Op::LtStr
               : E.Op == TokenKind::LessEqual ? Op::LeStr
               : E.Op == TokenKind::Greater   ? Op::GtStr
                                              : Op::GeStr;
        emit(O, R, Lhs.Reg, Rhs.Reg);
        return EV{VType::Bool, R, std::nullopt};
      }
      break;
    default:
      break;
    }

    // Numeric path; the oracle coerces LHS first, so its trap fires
    // first.
    uint16_t A = toNumeric(Lhs, E.Line);
    uint16_t B = toNumeric(Rhs, E.Line);
    switch (E.Op) {
    case TokenKind::Plus:
    case TokenKind::Minus:
    case TokenKind::Star:
    case TokenKind::Slash:
    case TokenKind::Percent: {
      uint16_t R = alloc(VType::Num);
      Op O = E.Op == TokenKind::Plus    ? Op::AddNum
             : E.Op == TokenKind::Minus ? Op::SubNum
             : E.Op == TokenKind::Star  ? Op::MulNum
             : E.Op == TokenKind::Slash ? Op::DivNum
                                        : Op::ModNum;
      emit(O, R, A, B);
      return EV{VType::Num, R, std::nullopt};
    }
    case TokenKind::Less:
    case TokenKind::LessEqual:
    case TokenKind::Greater:
    case TokenKind::GreaterEqual: {
      uint16_t R = alloc(VType::Bool);
      Op O = E.Op == TokenKind::Less        ? Op::LtNum
             : E.Op == TokenKind::LessEqual ? Op::LeNum
             : E.Op == TokenKind::Greater   ? Op::GtNum
                                            : Op::GeNum;
      emit(O, R, A, B);
      return EV{VType::Bool, R, std::nullopt};
    }
    default:
      return trap("unsupported operator", E.Line, VType::Num);
    }
  }

  /// The oracle's AsNumber: number passes, bool coerces, string is a
  /// runtime error at the BINARY expression's line.
  uint16_t toNumeric(const EV &V, size_t Line) {
    switch (V.T) {
    case VType::Num:
      return V.Reg;
    case VType::Bool: {
      uint16_t R = alloc(VType::Num);
      emit(Op::BoolToNum, R, V.Reg);
      return R;
    }
    case VType::Str:
      return trap("string operand in numeric expression", Line, VType::Num)
          .Reg;
    }
    return V.Reg;
  }

  EV nodeContextTrap(const std::string &Fn, size_t Line, VType T,
                     bool LongForm) {
    std::string Msg = "'" + Fn + "()' needs a node context";
    if (LongForm)
      Msg += " (use it in 'derive', 'prune', or 'keep')";
    return trap(std::move(Msg), Line, T);
  }

  EV compileCall(const Expr &E, size_t Depth) {
    const std::string &Fn = E.Text;
    size_t Argc = E.Operands.size();
    auto WrongArity = [&](const char *Expected, VType T) {
      return trap("'" + Fn + "' expects " + std::string(Expected) +
                      " argument(s)",
                  E.Line, T);
    };

    // Node-context builtins.
    if (Fn == "metric" || Fn == "exclusive" || Fn == "inclusive") {
      if (Argc != 1)
        return WrongArity("1", VType::Num);
      EV Name = compileString(*E.Operands[0], Depth + 1);
      if (!NodeCtx)
        return nodeContextTrap(Fn, E.Line, VType::Num, false);
      uint16_t R = alloc(VType::Num);
      Instr &I =
          emit(Fn == "inclusive" ? Op::MetricIncl : Op::MetricExcl, R,
               Name.Reg);
      I.Line = static_cast<uint32_t>(E.Line);
      if (Name.Const)
        I.Slot = addSlot(Name.Const->S);
      return EV{VType::Num, R, std::nullopt};
    }
    if (Fn == "total") {
      if (Argc != 1)
        return WrongArity("1", VType::Num);
      EV Name = compileString(*E.Operands[0], Depth + 1);
      uint16_t R = alloc(VType::Num);
      Instr &I = emit(Op::TotalOp, R, Name.Reg);
      I.Line = static_cast<uint32_t>(E.Line);
      if (Name.Const)
        I.Slot = addSlot(Name.Const->S);
      return EV{VType::Num, R, std::nullopt};
    }
    if (Fn == "nodecount") {
      if (Argc != 0)
        return WrongArity("0", VType::Num);
      uint16_t R = alloc(VType::Num);
      emit(Op::NodeCountOp, R);
      return EV{VType::Num, R, std::nullopt};
    }
    if (Fn == "name" || Fn == "file" || Fn == "module" || Fn == "kind") {
      if (Argc != 0)
        return WrongArity("0", VType::Str);
      if (!NodeCtx)
        return nodeContextTrap(Fn, E.Line, VType::Str, true);
      uint16_t R = alloc(VType::Str);
      Op O = Fn == "name"     ? Op::NodeName
             : Fn == "file"   ? Op::NodeFile
             : Fn == "module" ? Op::NodeModule
                              : Op::NodeKind;
      emit(O, R);
      return EV{VType::Str, R, std::nullopt};
    }
    if (Fn == "line") {
      if (Argc != 0)
        return WrongArity("0", VType::Num);
      if (!NodeCtx)
        return nodeContextTrap(Fn, E.Line, VType::Num, true);
      uint16_t R = alloc(VType::Num);
      emit(Op::NodeLine, R);
      return EV{VType::Num, R, std::nullopt};
    }
    if (Fn == "depth") {
      if (Argc != 0)
        return WrongArity("0", VType::Num);
      if (!NodeCtx)
        return nodeContextTrap(Fn, E.Line, VType::Num, false);
      uint16_t R = alloc(VType::Num);
      emit(Op::NodeDepth, R);
      return EV{VType::Num, R, std::nullopt};
    }
    if (Fn == "nchildren") {
      if (Argc != 0)
        return WrongArity("0", VType::Num);
      if (!NodeCtx)
        return nodeContextTrap(Fn, E.Line, VType::Num, false);
      uint16_t R = alloc(VType::Num);
      emit(Op::NodeChildren, R);
      return EV{VType::Num, R, std::nullopt};
    }
    if (Fn == "isleaf") {
      if (Argc != 0)
        return WrongArity("0", VType::Bool);
      if (!NodeCtx)
        return nodeContextTrap(Fn, E.Line, VType::Bool, false);
      uint16_t R = alloc(VType::Bool);
      emit(Op::NodeIsLeaf, R);
      return EV{VType::Bool, R, std::nullopt};
    }
    if (Fn == "parentname") {
      if (Argc != 0)
        return WrongArity("0", VType::Str);
      if (!NodeCtx)
        return nodeContextTrap(Fn, E.Line, VType::Str, false);
      uint16_t R = alloc(VType::Str);
      emit(Op::NodeParentName, R);
      return EV{VType::Str, R, std::nullopt};
    }
    if (Fn == "hasancestor") {
      if (Argc != 1)
        return WrongArity("1", VType::Bool);
      EV Name = compileString(*E.Operands[0], Depth + 1);
      if (!NodeCtx)
        return nodeContextTrap(Fn, E.Line, VType::Bool, false);
      uint16_t R = alloc(VType::Bool);
      emit(Op::HasAncestor, R, Name.Reg);
      return EV{VType::Bool, R, std::nullopt};
    }
    if (Fn == "share") {
      if (Argc != 1)
        return WrongArity("1", VType::Num);
      EV Name = compileString(*E.Operands[0], Depth + 1);
      if (!NodeCtx)
        return nodeContextTrap(Fn, E.Line, VType::Num, false);
      uint16_t R = alloc(VType::Num);
      Instr &I = emit(Op::ShareOp, R, Name.Reg);
      I.Line = static_cast<uint32_t>(E.Line);
      if (Name.Const)
        I.Slot = addSlot(Name.Const->S);
      return EV{VType::Num, R, std::nullopt};
    }

    // Pure numeric builtins.
    if (Fn == "min" || Fn == "max" || Fn == "ratio") {
      if (Argc != 2)
        return WrongArity("2", VType::Num);
      size_t Mark = CS->Code.size();
      EV A = compileNumber(*E.Operands[0], Depth + 1);
      EV B = compileNumber(*E.Operands[1], Depth + 1);
      if (A.Const && B.Const) {
        rewind(Mark);
        double X = A.Const->N, Y = B.Const->N;
        double F = Fn == "min"   ? std::min(X, Y)
                   : Fn == "max" ? std::max(X, Y)
                                 : (Y == 0.0 ? 0.0 : X / Y);
        return materialize(CVal::num(F));
      }
      uint16_t R = alloc(VType::Num);
      // ratio() shares DivNum: its zero-denominator guard IS the ratio
      // semantics.
      Op O = Fn == "min" ? Op::MinNum : Fn == "max" ? Op::MaxNum : Op::DivNum;
      emit(O, R, A.Reg, B.Reg);
      return EV{VType::Num, R, std::nullopt};
    }
    if (Fn == "abs" || Fn == "log" || Fn == "sqrt" || Fn == "floor" ||
        Fn == "ceil") {
      if (Argc != 1)
        return WrongArity("1", VType::Num);
      size_t Mark = CS->Code.size();
      EV A = compileNumber(*E.Operands[0], Depth + 1);
      if (A.Const) {
        rewind(Mark);
        double X = A.Const->N;
        double F = Fn == "abs"    ? std::abs(X)
                   : Fn == "log"  ? (X > 0 ? std::log(X) : 0.0)
                   : Fn == "sqrt" ? (X >= 0 ? std::sqrt(X) : 0.0)
                   : Fn == "floor" ? std::floor(X)
                                   : std::ceil(X);
        return materialize(CVal::num(F));
      }
      uint16_t R = alloc(VType::Num);
      Op O = Fn == "abs"    ? Op::AbsNum
             : Fn == "log"  ? Op::LogNum
             : Fn == "sqrt" ? Op::SqrtNum
             : Fn == "floor" ? Op::FloorNum
                             : Op::CeilNum;
      emit(O, R, A.Reg);
      return EV{VType::Num, R, std::nullopt};
    }

    // String builtins.
    if (Fn == "contains" || Fn == "startswith" || Fn == "endswith") {
      if (Argc != 2)
        return WrongArity("2", VType::Bool);
      size_t Mark = CS->Code.size();
      EV A = compileString(*E.Operands[0], Depth + 1);
      EV B = compileString(*E.Operands[1], Depth + 1);
      if (A.Const && B.Const) {
        rewind(Mark);
        bool F = Fn == "contains"
                     ? A.Const->S.find(B.Const->S) != std::string::npos
                 : Fn == "startswith" ? startsWith(A.Const->S, B.Const->S)
                                      : endsWith(A.Const->S, B.Const->S);
        return materialize(CVal::boolean(F));
      }
      uint16_t R = alloc(VType::Bool);
      Op O = Fn == "contains"     ? Op::ContainsStr
             : Fn == "startswith" ? Op::StartsWithStr
                                  : Op::EndsWithStr;
      emit(O, R, A.Reg, B.Reg);
      return EV{VType::Bool, R, std::nullopt};
    }
    if (Fn == "str") {
      if (Argc != 1)
        return WrongArity("1", VType::Str);
      size_t Mark = CS->Code.size();
      EV V = compileExpr(*E.Operands[0], Depth + 1);
      if (V.Const) {
        rewind(Mark);
        return materialize(CVal::str(V.Const->render()));
      }
      uint16_t R = alloc(VType::Str);
      Op O = V.T == VType::Num    ? Op::StrFromNum
             : V.T == VType::Bool ? Op::StrFromBool
                                  : Op::CopyStr;
      emit(O, R, V.Reg);
      return EV{VType::Str, R, std::nullopt};
    }
    if (Fn == "fmt") {
      if (Argc != 2)
        return WrongArity("2", VType::Str);
      size_t Mark = CS->Code.size();
      EV A = compileNumber(*E.Operands[0], Depth + 1);
      EV D = compileNumber(*E.Operands[1], Depth + 1);
      if (A.Const && D.Const) {
        rewind(Mark);
        return materialize(
            CVal::str(renderFormatted(A.Const->N, D.Const->N)));
      }
      uint16_t R = alloc(VType::Str);
      emit(Op::FmtStr, R, A.Reg, D.Reg);
      return EV{VType::Str, R, std::nullopt};
    }

    // The oracle reports an unknown function without evaluating its
    // operands, so no operand code is emitted here either.
    return trap("unknown function '" + Fn + "'", E.Line, VType::Num);
  }
};

} // namespace

std::shared_ptr<const CompiledProgram>
compileProgram(const Program &Prog, const AnalysisLimits &Limits) {
  auto Out = std::make_shared<CompiledProgram>();
  Lowering L(Limits, *Out);
  for (const Stmt &St : Prog.Statements)
    L.lowerStmt(St);
  return Out;
}

uint64_t hashProgramSource(std::string_view Source) {
  uint64_t H = 1469598103934665603ULL; // FNV offset basis.
  for (unsigned char C : Source) {
    H ^= C;
    H *= 1099511628211ULL; // FNV prime.
  }
  return H;
}

std::string programCacheKey(std::string_view Source) {
  return "evql|" + std::to_string(hashProgramSource(Source)) + ':' +
         std::to_string(Source.size());
}

std::shared_ptr<const CompiledProgram>
ProgramCache::lookup(const std::string &Key) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Index.find(Key);
  if (It == Index.end()) {
    Misses.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  Lru.splice(Lru.begin(), Lru, It->second);
  Hits.fetch_add(1, std::memory_order_relaxed);
  return It->second->Prog;
}

void ProgramCache::insert(const std::string &Key,
                          std::shared_ptr<const CompiledProgram> Prog) {
  if (Capacity == 0)
    return;
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Index.find(Key);
  if (It != Index.end()) {
    It->second->Prog = std::move(Prog);
    Lru.splice(Lru.begin(), Lru, It->second);
    return;
  }
  Lru.push_front(Entry{Key, std::move(Prog)});
  Index[Key] = Lru.begin();
  while (Lru.size() > Capacity) {
    Index.erase(Lru.back().Key);
    Lru.pop_back();
  }
}

size_t ProgramCache::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Lru.size();
}

} // namespace evql
} // namespace ev
