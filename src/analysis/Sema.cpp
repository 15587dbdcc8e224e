//===- analysis/Sema.cpp - EVQL semantic analyzer -------------------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "analysis/Sema.h"

#include "query/Compiler.h"
#include "query/Parser.h"

#include <algorithm>
#include <optional>
#include <unordered_map>

namespace ev {

std::string_view semaTypeName(SemaType Type) {
  switch (Type) {
  case SemaType::Number:
    return "number";
  case SemaType::String:
    return "string";
  case SemaType::Bool:
    return "bool";
  case SemaType::Unknown:
    return "unknown";
  }
  return "unknown";
}

namespace {

using evql::Expr;
using evql::Program;
using evql::Stmt;
using evql::TokenKind;

/// What the checker knows about one expression. Constants come from the
/// compiler's folder (query/Compiler.h), so EVQL007/EVQL008 never claim
/// something the engine would contradict.
struct ExprInfo {
  SemaType Type = SemaType::Unknown;
  std::optional<evql::Const> Value;
};

SemaType semaType(evql::VType T) {
  return T == evql::VType::Num    ? SemaType::Number
         : T == evql::VType::Bool ? SemaType::Bool
                                  : SemaType::String;
}

SemaType semaType(evql::ArgType T) {
  return T == evql::ArgType::Number   ? SemaType::Number
         : T == evql::ArgType::String ? SemaType::String
                                      : SemaType::Unknown;
}

/// Can a value of \p Actual flow where \p Want is required, under the
/// engine's coercions? Unknown on either side stays quiet: one
/// diagnostic per root cause, no cascades.
bool compatible(SemaType Actual, SemaType Want) {
  if (Actual == SemaType::Unknown || Want == SemaType::Unknown)
    return true;
  if (Actual == Want)
    return true;
  if (Want == SemaType::Number)
    return Actual == SemaType::Bool;
  if (Want == SemaType::Bool)
    return Actual == SemaType::Number;
  return false;
}

/// Bounded Levenshtein distance for did-you-mean hints.
size_t editDistance(std::string_view A, std::string_view B) {
  std::vector<size_t> Row(B.size() + 1);
  for (size_t J = 0; J <= B.size(); ++J)
    Row[J] = J;
  for (size_t I = 1; I <= A.size(); ++I) {
    size_t Prev = Row[0];
    Row[0] = I;
    for (size_t J = 1; J <= B.size(); ++J) {
      size_t Cur = Row[J];
      Row[J] = std::min({Row[J] + 1, Row[J - 1] + 1,
                         Prev + (A[I - 1] == B[J - 1] ? 0 : 1)});
      Prev = Cur;
    }
  }
  return Row[B.size()];
}

/// "did you mean 'X'?" when some candidate is plausibly a typo of \p Name.
template <typename Range, typename NameOf>
std::string suggestFrom(std::string_view Name, const Range &Candidates,
                        NameOf GetName) {
  std::string_view Best;
  size_t BestDist = Name.size() >= 6 ? 3 : 2; // strictly-better threshold
  for (const auto &C : Candidates) {
    // The view is kept across iterations, so the projection must not
    // return a temporary string.
    static_assert(std::is_same_v<decltype(GetName(C)), std::string_view>,
                  "suggestFrom projection must return std::string_view");
    std::string_view Candidate = GetName(C);
    if (Candidate == Name)
      continue;
    size_t D = editDistance(Name, Candidate);
    if (D < BestDist) {
      BestDist = D;
      Best = Candidate;
    }
  }
  if (Best.empty())
    return "";
  return "did you mean '" + std::string(Best) + "'?";
}

/// One checking run over one program.
class Checker {
public:
  Checker(const SemaOptions &Opts, DiagnosticSet &Out)
      : Opts(Opts), Out(Out) {}

  void run(const Program &Prog) {
    size_t ReturnLine = 0;
    bool Returned = false;
    for (const Stmt &S : Prog.Statements) {
      if (Returned) {
        report("EVQL010", S.Line, S.Column,
               "unreachable statement: execution stops at the 'return' on "
               "line " + std::to_string(ReturnLine),
               "remove the statement or move it before the 'return'");
        break; // One finding covers the whole dead tail.
      }
      switch (S.TheKind) {
      case Stmt::Kind::Let: {
        ExprInfo V = checkExpr(*S.Value, /*NodeCtx=*/false, 0);
        Binding &Slot = Bindings[S.Name];
        if (Slot.Line == 0)
          BindingOrder.push_back(S.Name);
        Slot = Binding{V.Type, V.Value, S.Line, S.Column, false};
        break;
      }
      case Stmt::Kind::Derive: {
        ExprInfo V = checkExpr(*S.Value, /*NodeCtx=*/true, 0);
        if (V.Type == SemaType::String)
          report("EVQL005", S.Value->Line, S.Value->Column,
                 "derived metric '" + S.Name +
                     "' must be a number, found a string",
                 "wrap the formula in a numeric expression");
        DerivedMetrics.push_back(S.Name);
        break;
      }
      case Stmt::Kind::Prune:
      case Stmt::Kind::Keep: {
        bool IsPrune = S.TheKind == Stmt::Kind::Prune;
        ExprInfo C = checkExpr(*S.Value, /*NodeCtx=*/true, 0);
        if (C.Type == SemaType::String)
          report("EVQL005", S.Value->Line, S.Value->Column,
                 "expected a condition, found a string",
                 "compare the string with '==' or use contains()");
        std::optional<bool> T =
            C.Value ? C.Value->asCondition() : std::nullopt;
        if (T) {
          std::string Effect;
          if (IsPrune)
            Effect = *T ? "this elides every node below the root"
                        : "this statement has no effect";
          else
            Effect = *T ? "this statement has no effect"
                        : "this elides every node below the root";
          report("EVQL008", S.Value->Line, S.Value->Column,
                 std::string(IsPrune ? "'prune when'" : "'keep when'") +
                     " condition is always " + (*T ? "true" : "false"),
                 Effect);
        }
        break;
      }
      case Stmt::Kind::Print:
        checkExpr(*S.Value, /*NodeCtx=*/false, 0);
        break;
      case Stmt::Kind::Return:
        checkExpr(*S.Value, /*NodeCtx=*/false, 0);
        Returned = true;
        ReturnLine = S.Line;
        break;
      }
    }

    for (const std::string &Name : BindingOrder) {
      const Binding &Slot = Bindings[Name];
      if (!Slot.Used)
        report("EVQL009", Slot.Line, Slot.Column,
               "unused binding '" + Name + "'",
               "remove the 'let' or reference the binding");
    }
  }

  /// Adds \p Rule's finding at \p Line:\p Column unless the filter drops
  /// it.
  void report(RuleRef Rule, size_t Line, size_t Column, std::string Message,
              std::string Hint = "") {
    if (std::optional<Diagnostic> D = Opts.Filter.diagnose(
            Rule, std::move(Message), std::move(Hint), {Line, Column}))
      Out.add(std::move(*D));
  }

private:
  struct Binding {
    SemaType Type = SemaType::Unknown;
    std::optional<evql::Const> Value;
    size_t Line = 0; ///< 0 marks a never-filled slot.
    size_t Column = 0;
    bool Used = false;
  };


  ExprInfo checkExpr(const Expr &E, bool NodeCtx, size_t Depth) {
    if (Depth >= Opts.Limits.MaxExprDepth) {
      report("EVQL012", E.Line, E.Column,
             "expression nesting exceeds the analysis limit of " +
                 std::to_string(Opts.Limits.MaxExprDepth),
             "split the expression across 'let' bindings");
      return {};
    }
    switch (E.TheKind) {
    case Expr::Kind::NumberLit:
      return {SemaType::Number, evql::Const::num(E.Number)};
    case Expr::Kind::StringLit:
      return {SemaType::String, evql::Const::str(E.Text)};
    case Expr::Kind::BoolLit:
      return {SemaType::Bool, evql::Const::boolean(E.BoolValue)};
    case Expr::Kind::Ident: {
      auto It = Bindings.find(E.Text);
      if (It == Bindings.end()) {
        std::string Hint =
            suggestFrom(E.Text, BindingOrder,
                        [](const std::string &S) { return std::string_view(S); });
        if (Hint.empty() && evql::findBuiltin(E.Text))
          Hint = "'" + E.Text + "' is a builtin; call it: " + E.Text + "(...)";
        report("EVQL002", E.Line, E.Column,
               "undefined identifier '" + E.Text + "'", std::move(Hint));
        return {};
      }
      It->second.Used = true;
      return {It->second.Type, It->second.Value};
    }
    case Expr::Kind::Unary:
      return checkUnary(E, NodeCtx, Depth);
    case Expr::Kind::Ternary:
      return checkTernary(E, NodeCtx, Depth);
    case Expr::Kind::Binary:
      return checkBinary(E, NodeCtx, Depth);
    case Expr::Kind::Call:
      return checkCall(E, NodeCtx, Depth);
    }
    return {};
  }

  ExprInfo checkUnary(const Expr &E, bool NodeCtx, size_t Depth) {
    ExprInfo V = checkExpr(*E.Operands[0], NodeCtx, Depth + 1);
    bool Minus = E.Op == TokenKind::Minus;
    if (V.Type == SemaType::String)
      report("EVQL005", E.Operands[0]->Line, E.Operands[0]->Column,
             Minus ? "cannot negate a string"
                   : "expected a condition, found a string");
    return {Minus ? SemaType::Number : SemaType::Bool,
            evql::foldUnary(E.Op, V.Value)};
  }

  ExprInfo checkTernary(const Expr &E, bool NodeCtx, size_t Depth) {
    ExprInfo C = checkExpr(*E.Operands[0], NodeCtx, Depth + 1);
    if (C.Type == SemaType::String)
      report("EVQL005", E.Operands[0]->Line, E.Operands[0]->Column,
             "ternary condition cannot be a string");
    ExprInfo Then = checkExpr(*E.Operands[1], NodeCtx, Depth + 1);
    ExprInfo Else = checkExpr(*E.Operands[2], NodeCtx, Depth + 1);
    std::optional<bool> Always =
        C.Value ? C.Value->asCondition() : std::nullopt;
    if (Always) {
      report("EVQL008", E.Operands[0]->Line, E.Operands[0]->Column,
             std::string("ternary condition is always ") +
                 (*Always ? "true" : "false"),
             std::string("only the '") + (*Always ? "then" : "else") +
                 "' branch can execute");
      return *Always ? Then : Else;
    }
    if (Then.Type == Else.Type)
      return {Then.Type, {}};
    // The engine's registers are statically typed, so a ternary whose
    // branches disagree traps on every lane that reaches it.
    if (Then.Type != SemaType::Unknown && Else.Type != SemaType::Unknown) {
      auto EngineType = [](SemaType T) {
        return T == SemaType::Number ? evql::VType::Num
               : T == SemaType::Bool ? evql::VType::Bool
                                     : evql::VType::Str;
      };
      report("EVQL005", E.Line, E.Column,
             evql::ternaryMismatch(EngineType(Then.Type),
                                   EngineType(Else.Type)),
             "convert one branch, e.g. with str() or a comparison");
    }
    return {};
  }

  ExprInfo checkBinary(const Expr &E, bool NodeCtx, size_t Depth) {
    const Expr &L = *E.Operands[0];
    const Expr &R = *E.Operands[1];
    ExprInfo Lhs = checkExpr(L, NodeCtx, Depth + 1);
    ExprInfo Rhs = checkExpr(R, NodeCtx, Depth + 1);

    std::optional<evql::Const> Folded =
        evql::foldBinary(E.Op, Lhs.Value, Rhs.Value);

    auto StringOperandError = [&](const Expr &Op) {
      report("EVQL005", Op.Line, Op.Column,
             "string operand in numeric expression",
             "convert with a comparison, or format numbers with str()/fmt()");
    };

    switch (E.Op) {
    case TokenKind::AmpAmp:
    case TokenKind::PipePipe:
      if (Lhs.Type == SemaType::String)
        report("EVQL005", L.Line, L.Column,
               "expected a condition, found a string");
      if (Rhs.Type == SemaType::String)
        report("EVQL005", R.Line, R.Column,
               "expected a condition, found a string");
      return {SemaType::Bool, Folded};
    case TokenKind::EqualEqual:
    case TokenKind::BangEqual:
      return {SemaType::Bool, Folded};
    case TokenKind::Less:
    case TokenKind::LessEqual:
    case TokenKind::Greater:
    case TokenKind::GreaterEqual: {
      bool LStr = Lhs.Type == SemaType::String;
      bool RStr = Rhs.Type == SemaType::String;
      if (LStr != RStr && Lhs.Type != SemaType::Unknown &&
          Rhs.Type != SemaType::Unknown)
        StringOperandError(LStr ? L : R);
      return {SemaType::Bool, Folded};
    }
    case TokenKind::Plus:
      if (Lhs.Type == SemaType::String && Rhs.Type == SemaType::String)
        return {SemaType::String, Folded};
      if (Lhs.Type == SemaType::String || Rhs.Type == SemaType::String) {
        if (Lhs.Type != SemaType::Unknown && Rhs.Type != SemaType::Unknown)
          StringOperandError(Lhs.Type == SemaType::String ? L : R);
        return {};
      }
      if (Lhs.Type == SemaType::Unknown || Rhs.Type == SemaType::Unknown)
        return {}; // Could still be string concatenation at runtime.
      return {SemaType::Number, Folded};
    case TokenKind::Minus:
    case TokenKind::Star:
    case TokenKind::Slash:
    case TokenKind::Percent:
      if (Lhs.Type == SemaType::String)
        StringOperandError(L);
      if (Rhs.Type == SemaType::String)
        StringOperandError(R);
      if ((E.Op == TokenKind::Slash || E.Op == TokenKind::Percent) &&
          Rhs.Value && Rhs.Value->asNumber() == 0.0)
        report("EVQL007", R.Line, R.Column,
               std::string("right operand of '") +
                   (E.Op == TokenKind::Slash ? "/" : "%") +
                   "' is the constant 0",
               "EVQL defines x / 0 as 0; spell that out with ratio() if "
               "intended");
      return {SemaType::Number, Folded};
    default:
      return {};
    }
  }

  ExprInfo checkCall(const Expr &E, bool NodeCtx, size_t Depth) {
    const evql::Builtin *B = evql::findBuiltin(E.Text);
    if (!B) {
      for (const evql::ExprPtr &Arg : E.Operands)
        checkExpr(*Arg, NodeCtx, Depth + 1);
      report("EVQL003", E.Line, E.Column, "unknown builtin '" + E.Text + "'",
             suggestFrom(E.Text, evql::Builtins,
                         [](const evql::Builtin &B) { return B.Name; }));
      return {};
    }
    if (E.Operands.size() != B->Arity) {
      for (const evql::ExprPtr &Arg : E.Operands)
        checkExpr(*Arg, NodeCtx, Depth + 1);
      report("EVQL004", E.Line, E.Column,
             "'" + E.Text + "' expects " + std::to_string(B->Arity) +
                 " argument(s), got " + std::to_string(E.Operands.size()));
      return {}; // Always fails at runtime, so it has no type to flow.
    }
    bool Misplaced = B->Where != evql::NodeUse::Anywhere && !NodeCtx;
    if (Misplaced)
      report("EVQL011", E.Line, E.Column,
             "'" + E.Text + "()' needs a node context",
             "use it inside 'derive', 'prune when', or 'keep when'");
    std::optional<evql::Const> Values[2];
    for (size_t I = 0; I < B->Arity; ++I) {
      ExprInfo Arg = checkExpr(*E.Operands[I], NodeCtx, Depth + 1);
      SemaType Want = semaType(B->Args[I]);
      if (!compatible(Arg.Type, Want))
        report("EVQL005", E.Operands[I]->Line, E.Operands[I]->Column,
               "argument " + std::to_string(I + 1) + " of '" + E.Text +
                   "' must be a " + std::string(semaTypeName(Want)) +
                   ", found a " + std::string(semaTypeName(Arg.Type)));
      if (I == 0 && B->MetricArg && Arg.Value &&
          Arg.Value->T == evql::VType::Str && Opts.MetricSource)
        checkMetricName(Arg.Value->S, *E.Operands[0]);
      Values[I] = std::move(Arg.Value);
    }
    if (Misplaced)
      return {};
    return {semaType(B->Result), evql::foldCall(*B, Values)};
  }

  void checkMetricName(const std::string &Name, const Expr &At) {
    const Profile &P = *Opts.MetricSource;
    if (P.findMetric(Name) != Profile::InvalidMetric)
      return;
    for (const std::string &D : DerivedMetrics)
      if (D == Name)
        return;
    std::string Hint = suggestFrom(
        Name, P.metrics(),
        [](const MetricDescriptor &M) { return std::string_view(M.Name); });
    if (Hint.empty()) {
      Hint = "known metrics:";
      size_t Shown = 0;
      for (const MetricDescriptor &M : P.metrics()) {
        if (Shown++ == 5) {
          Hint += " ...";
          break;
        }
        Hint += " '" + M.Name + "'";
      }
      if (P.metrics().empty())
        Hint = "";
    }
    report("EVQL006", At.Line, At.Column, "unknown metric '" + Name + "'",
           std::move(Hint));
  }

  const SemaOptions &Opts;
  DiagnosticSet &Out;
  std::unordered_map<std::string, Binding> Bindings;
  std::vector<std::string> BindingOrder;
  std::vector<std::string> DerivedMetrics;
};

} // namespace

void SemaChecker::check(const evql::Program &Prog, DiagnosticSet &Out) const {
  Checker(Opts, Out).run(Prog);
}

void SemaChecker::checkSource(std::string_view Source,
                              DiagnosticSet &Out) const {
  Checker C(Opts, Out);
  if (std::optional<std::string> TooLarge =
          evql::programSizeError(Source, Opts.Limits)) {
    C.report("EVQL013", 1, 1, std::move(*TooLarge));
    Out.markTruncated();
    return;
  }
  evql::RecoveredProgram Recovered = evql::parseProgramRecover(Source);
  for (const evql::SyntaxError &E : Recovered.Errors)
    C.report("EVQL001", E.Line, E.Column, E.Message);
  C.run(Recovered.Prog);
}

} // namespace ev
