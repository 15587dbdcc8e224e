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

namespace ev {
namespace evql {

namespace {

/// A compiled expression: its static type, the register holding it, and
/// the folded constant when the subtree was pure and constant. Never marks
/// an expression that traps on every lane reaching it (its type is only a
/// placeholder), so a ternary takes its other branch's type.
struct EV {
  VType T = VType::Num;
  uint16_t Reg = 0;
  std::optional<Const> Value;
  bool Never = false;
};

/// A 'let' binding in the compile-time environment.
struct Binding {
  VType T = VType::Num;
  uint16_t Slot = 0;
  std::optional<Const> Value;
};

/// Register ids stay comfortably under the uint16 ceiling; a statement
/// that needs more lowers to one trap.
constexpr uint16_t RegCap = 0xFF00;

/// How a binary operator other than '&&' and '||' applies to operands of
/// static types L and R, decided the way the oracle's Binary clause
/// decides it.
struct BinaryOp {
  Op O = Op::Trap;      ///< Trap: not a binary operator.
  bool Numeric = false; ///< Operands coerce to numbers; a string traps.
  VType Result = VType::Bool;
};

BinaryOp binaryOp(TokenKind Tok, VType L, VType R) {
  bool Strings = L == VType::Str && R == VType::Str;
  auto Arith = [](Op O) { return BinaryOp{O, true, VType::Num}; };
  auto Compare = [&](Op OnNumbers, Op OnStrings) {
    return Strings ? BinaryOp{OnStrings, false, VType::Bool}
                   : BinaryOp{OnNumbers, true, VType::Bool};
  };
  // A string never equals a non-string: the answer is a constant, though
  // the oracle still evaluated both operands, so their code (and any
  // traps in it) stays.
  bool Mixed = !Strings && (L == VType::Str || R == VType::Str);
  BinaryOp Unequal{Op::LoadBool, false, VType::Bool};
  switch (Tok) {
  case TokenKind::Plus:
    return Strings ? BinaryOp{Op::ConcatStr, false, VType::Str}
                   : Arith(Op::AddNum);
  case TokenKind::Minus:
    return Arith(Op::SubNum);
  case TokenKind::Star:
    return Arith(Op::MulNum);
  case TokenKind::Slash:
    return Arith(Op::DivNum);
  case TokenKind::Percent:
    return Arith(Op::ModNum);
  case TokenKind::Less:
    return Compare(Op::LtNum, Op::LtStr);
  case TokenKind::LessEqual:
    return Compare(Op::LeNum, Op::LeStr);
  case TokenKind::Greater:
    return Compare(Op::GtNum, Op::GtStr);
  case TokenKind::GreaterEqual:
    return Compare(Op::GeNum, Op::GeStr);
  case TokenKind::EqualEqual:
    return Mixed ? Unequal : Compare(Op::EqNum, Op::EqStr);
  case TokenKind::BangEqual:
    return Mixed ? Unequal : Compare(Op::NeNum, Op::NeStr);
  default:
    return {};
  }
}

/// Applies pure op \p O to constants already in its operand banks.
/// \returns nullopt for ops that read the profile or the node.
std::optional<Const> foldOp(Op O, const Const &A, const Const &B) {
  using namespace scalar;
  auto Num1 = [&](auto F) { return Const::num(F(A.N)); };
  auto Num2 = [&](auto F) { return Const::num(F(A.N, B.N)); };
  auto Cmp = [&](auto F) {
    return Const::boolean(A.T == VType::Str ? F(A.S, B.S) : F(A.N, B.N));
  };
  auto Str2 = [&](auto F) { return Const::boolean(F(A.S, B.S)); };
  switch (O) {
  case Op::NegNum:
    return Num1(Neg);
  case Op::AddNum:
    return Num2(Add);
  case Op::SubNum:
    return Num2(Sub);
  case Op::MulNum:
    return Num2(Mul);
  case Op::DivNum:
    return Num2(Div);
  case Op::ModNum:
    return Num2(Mod);
  case Op::MinNum:
    return Num2(Min);
  case Op::MaxNum:
    return Num2(Max);
  case Op::AbsNum:
    return Num1(Abs);
  case Op::LogNum:
    return Num1(Log);
  case Op::SqrtNum:
    return Num1(Sqrt);
  case Op::FloorNum:
    return Num1(Floor);
  case Op::CeilNum:
    return Num1(Ceil);
  case Op::LtNum:
  case Op::LtStr:
    return Cmp(Lt);
  case Op::LeNum:
  case Op::LeStr:
    return Cmp(Le);
  case Op::GtNum:
  case Op::GtStr:
    return Cmp(Gt);
  case Op::GeNum:
  case Op::GeStr:
    return Cmp(Ge);
  case Op::EqNum:
  case Op::EqStr:
    return Cmp(Eq);
  case Op::NeNum:
  case Op::NeStr:
    return Cmp(Ne);
  case Op::NotBool:
    return Const::boolean(Not(A.B));
  case Op::ConcatStr:
    return Const::str(Add(A.S, B.S));
  case Op::ContainsStr:
    return Str2(Contains);
  case Op::StartsWithStr:
    return Str2(StartsWith);
  case Op::EndsWithStr:
    return Str2(EndsWith);
  case Op::StrFromNum:
    return Const::str(renderNumber(A.N));
  case Op::StrFromBool:
    return Const::str(BoolText(A.B));
  case Op::CopyStr:
    return A;
  case Op::FmtStr:
    return Const::str(renderFormatted(A.N, B.N));
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
      B.Value = V.Value;
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

  EV materialize(Const C) {
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
    V.Value = std::move(C);
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
      if (V.Value)
        O.Value = Const::num(*V.Value->asNumber());
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
      if (V.Value)
        O.Value = Const::boolean(*V.Value->asCondition());
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
      return materialize(Const::num(E.Number));
    case Expr::Kind::StringLit:
      return materialize(Const::str(E.Text));
    case Expr::Kind::BoolLit:
      return materialize(Const::boolean(E.BoolValue));
    case Expr::Kind::Ident: {
      auto It = Env.find(E.Text);
      if (It == Env.end())
        return trap("unknown identifier '" + E.Text + "'", E.Line,
                    VType::Num);
      const Binding &B = It->second;
      EV V;
      V.T = B.T;
      V.Reg = alloc(B.T);
      V.Value = B.Value;
      Op Load = B.T == VType::Num    ? Op::LoadGlobalNum
                : B.T == VType::Bool ? Op::LoadGlobalBool
                                     : Op::LoadGlobalStr;
      emit(Load, V.Reg).Slot = B.Slot;
      return V;
    }
    case Expr::Kind::Unary: {
      size_t Mark = CS->Code.size();
      bool Minus = E.Op == TokenKind::Minus;
      EV V = Minus ? compileNumber(*E.Operands[0], Depth + 1)
                   : compileBool(*E.Operands[0], Depth + 1);
      if (std::optional<Const> Folded = foldUnary(E.Op, V.Value)) {
        rewind(Mark);
        return materialize(std::move(*Folded));
      }
      VType T = Minus ? VType::Num : VType::Bool;
      uint16_t R = alloc(T);
      emit(Minus ? Op::NegNum : Op::NotBool, R, V.Reg);
      return EV{T, R, std::nullopt};
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
    if (Cond.Value) {
      // Only the taken branch is evaluated; a constant condition's code
      // is pure, so it folds away entirely.
      rewind(Mark);
      return compileExpr(Cond.Value->B ? *E.Operands[1] : *E.Operands[2],
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
      return trap(ternaryMismatch(Then.T, Else.T), E.Line, Then.T);
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
      if (Lhs.Value) {
        // Absorbing element: the RHS is never evaluated (so a trap inside
        // it must not be emitted). Neutral element: the result IS the
        // RHS-as-bool. Either way the constant LHS code is pure.
        rewind(Mark);
        if (std::optional<Const> Decided =
                foldBinary(E.Op, Lhs.Value, std::nullopt))
          return materialize(std::move(*Decided));
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
    if (std::optional<Const> Folded = foldBinary(E.Op, Lhs.Value, Rhs.Value)) {
      rewind(Mark);
      return materialize(std::move(*Folded));
    }
    BinaryOp B = binaryOp(E.Op, Lhs.T, Rhs.T);
    if (B.O == Op::Trap)
      return trap("unsupported operator", E.Line, VType::Num);
    // The oracle coerces the LHS first, so its trap fires first.
    uint16_t A = B.Numeric ? toNumeric(Lhs, E.Line) : Lhs.Reg;
    uint16_t C = B.Numeric ? toNumeric(Rhs, E.Line) : Rhs.Reg;
    uint16_t R = alloc(B.Result);
    if (B.O == Op::LoadBool)
      emit(Op::LoadBool, R).Imm = E.Op == TokenKind::BangEqual ? 1.0 : 0.0;
    else
      emit(B.O, R, A, C);
    return EV{B.Result, R, std::nullopt};
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

  EV compileCall(const Expr &E, size_t Depth) {
    const Builtin *B = findBuiltin(E.Text);
    // The oracle reports an unknown function without evaluating its
    // operands, so no operand code is emitted here either.
    if (!B)
      return trap("unknown function '" + E.Text + "'", E.Line, VType::Num);
    if (E.Operands.size() != B->Arity)
      return trap("'" + E.Text + "' expects " + std::to_string(B->Arity) +
                      " argument(s)",
                  E.Line, B->Result);
    size_t Mark = CS->Code.size();
    EV Args[2];
    std::optional<Const> Values[2];
    for (size_t I = 0; I < B->Arity; ++I) {
      const Expr &Arg = *E.Operands[I];
      Args[I] = B->Args[I] == ArgType::Number ? compileNumber(Arg, Depth + 1)
                : B->Args[I] == ArgType::String
                    ? compileString(Arg, Depth + 1)
                    : compileExpr(Arg, Depth + 1);
      Values[I] = Args[I].Value;
    }
    // The oracle checks the node context after evaluating the operands.
    if (B->Where != NodeUse::Anywhere && !NodeCtx) {
      std::string Msg = "'" + E.Text + "()' needs a node context";
      if (B->Where == NodeUse::NodeHinted)
        Msg += " (use it in 'derive', 'prune', or 'keep')";
      return trap(std::move(Msg), E.Line, B->Result);
    }
    if (std::optional<Const> Folded = foldCall(*B, Values)) {
      rewind(Mark);
      return materialize(std::move(*Folded));
    }
    uint16_t R = alloc(B->Result);
    Instr &I = emit(B->opFor(Args[0].T), R, Args[0].Reg, Args[1].Reg);
    if (B->MetricArg) {
      I.Line = static_cast<uint32_t>(E.Line);
      if (Args[0].Value)
        I.Slot = addSlot(Args[0].Value->S);
    }
    return EV{B->Result, R, std::nullopt};
  }
};

} // namespace

const Builtin *findBuiltin(std::string_view Name) {
  for (const Builtin &B : Builtins)
    if (B.Name == Name)
      return &B;
  return nullptr;
}

std::string ternaryMismatch(VType Then, VType Else) {
  auto Name = [](VType T) {
    return T == VType::Num ? "number" : T == VType::Bool ? "condition"
                                                          : "string";
  };
  return std::string("ternary branches have different types (") +
         Name(Then) + " and " + Name(Else) + ")";
}

std::optional<Const> foldUnary(TokenKind Tok, const std::optional<Const> &V) {
  if (!V)
    return std::nullopt;
  if (Tok == TokenKind::Minus) {
    std::optional<double> N = V->asNumber();
    return N ? foldOp(Op::NegNum, Const::num(*N), {}) : std::nullopt;
  }
  std::optional<bool> C = V->asCondition();
  return C ? foldOp(Op::NotBool, Const::boolean(*C), {}) : std::nullopt;
}

std::optional<Const> foldBinary(TokenKind Tok, const std::optional<Const> &L,
                                const std::optional<Const> &R) {
  if (Tok == TokenKind::AmpAmp || Tok == TokenKind::PipePipe) {
    bool IsAnd = Tok == TokenKind::AmpAmp;
    std::optional<bool> A = L ? L->asCondition() : std::nullopt;
    if (A && *A != IsAnd) // false && x, true || x
      return Const::boolean(*A);
    std::optional<bool> B = R ? R->asCondition() : std::nullopt;
    if (!A || !B)
      return std::nullopt;
    return Const::boolean(IsAnd ? scalar::And(*A, *B) : scalar::Or(*A, *B));
  }
  if (!L || !R)
    return std::nullopt;
  BinaryOp B = binaryOp(Tok, L->T, R->T);
  if (B.O == Op::LoadBool)
    return Const::boolean(Tok == TokenKind::BangEqual);
  if (!B.Numeric)
    return foldOp(B.O, *L, *R);
  std::optional<double> X = L->asNumber(), Y = R->asNumber();
  if (!X || !Y)
    return std::nullopt;
  return foldOp(B.O, Const::num(*X), Const::num(*Y));
}

std::optional<Const> foldCall(const Builtin &B,
                              const std::optional<Const> *Args) {
  Const In[2];
  for (size_t I = 0; I < B.Arity; ++I) {
    if (!Args[I])
      return std::nullopt;
    if (B.Args[I] == ArgType::Number) {
      std::optional<double> N = Args[I]->asNumber();
      if (!N)
        return std::nullopt;
      In[I] = Const::num(*N);
    } else if (B.Args[I] == ArgType::String && Args[I]->T != VType::Str) {
      return std::nullopt;
    } else {
      In[I] = *Args[I];
    }
  }
  return foldOp(B.opFor(In[0].T), In[0], In[1]);
}

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
