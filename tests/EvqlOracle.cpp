//===- tests/EvqlOracle.cpp - Tree-walking EVQL oracle --------------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "EvqlOracle.h"

#include "analysis/MetricEngine.h"
#include "analysis/Prune.h"
#include "query/Parser.h"
#include "support/Strings.h"

#include <cmath>
#include <unordered_map>

namespace ev {
namespace evql {

namespace oracle {

namespace {

/// Runtime value: number, string, or bool.
class RtValue {
public:
  enum class Type : uint8_t { Number, String, Bool };

  RtValue() : TheType(Type::Number) {}
  static RtValue number(double N) {
    RtValue V;
    V.TheType = Type::Number;
    V.Num = N;
    return V;
  }
  static RtValue boolean(bool B) {
    RtValue V;
    V.TheType = Type::Bool;
    V.BoolVal = B;
    return V;
  }
  static RtValue string(std::string S) {
    RtValue V;
    V.TheType = Type::String;
    V.Str = std::move(S);
    return V;
  }

  Type type() const { return TheType; }
  double num() const { return Num; }
  bool boolean() const { return BoolVal; }
  const std::string &str() const { return Str; }

  /// Lossy rendering for 'print' and str().
  std::string render() const {
    switch (TheType) {
    case Type::Number:
      return renderNumber(Num);
    case Type::String:
      return Str;
    case Type::Bool:
      return BoolVal ? "true" : "false";
    }
    return "";
  }

private:
  Type TheType;
  double Num = 0.0;
  bool BoolVal = false;
  std::string Str;
};

using EvalResult = Result<RtValue>;

/// Evaluation context: globals plus (optionally) the current node.
struct Context {
  const Profile *P = nullptr;
  const AnalysisLimits *Limits = &AnalysisLimits::defaults();
  std::unordered_map<std::string, RtValue> Globals;
  bool HasNode = false;
  NodeId Node = InvalidNode;
  unsigned NodeDepth = 0;
  /// Metric-name -> (exclusive, inclusive) columns of the CURRENT profile.
  std::unordered_map<std::string, MetricView> Views;

  Result<const MetricView *> viewFor(std::string_view Name, size_t Line) {
    auto It = Views.find(std::string(Name));
    if (It != Views.end())
      return &It->second;
    MetricId Id = P->findMetric(Name);
    if (Id == Profile::InvalidMetric)
      return makeError("unknown metric '" + std::string(Name) +
                       "' at line " + std::to_string(Line));
    auto [Ins, _] =
        Views.emplace(std::string(Name), MetricView(*P, Id));
    return &Ins->second;
  }
};

Error typeError(std::string What, size_t Line) {
  return makeError(std::move(What) + " at line " + std::to_string(Line));
}

EvalResult evalExpr(const Expr &E, Context &Ctx, size_t Depth);

Result<double> evalNumber(const Expr &E, Context &Ctx, size_t Depth) {
  EvalResult V = evalExpr(E, Ctx, Depth);
  if (!V)
    return makeError(V.error());
  switch (V->type()) {
  case RtValue::Type::Number:
    return V->num();
  case RtValue::Type::Bool:
    return V->boolean() ? 1.0 : 0.0;
  case RtValue::Type::String:
    return typeError("expected a number, found a string", E.Line);
  }
  return 0.0;
}

Result<bool> evalBool(const Expr &E, Context &Ctx, size_t Depth) {
  EvalResult V = evalExpr(E, Ctx, Depth);
  if (!V)
    return makeError(V.error());
  switch (V->type()) {
  case RtValue::Type::Bool:
    return V->boolean();
  case RtValue::Type::Number:
    return V->num() != 0.0;
  case RtValue::Type::String:
    return typeError("expected a condition, found a string", E.Line);
  }
  return false;
}

Result<std::string> evalString(const Expr &E, Context &Ctx, size_t Depth) {
  EvalResult V = evalExpr(E, Ctx, Depth);
  if (!V)
    return makeError(V.error());
  if (V->type() != RtValue::Type::String)
    return typeError("expected a string", E.Line);
  return V->str();
}

Result<const Frame *> nodeFrame(const Expr &E, Context &Ctx) {
  if (!Ctx.HasNode)
    return typeError("'" + E.Text + "()' needs a node context (use it in "
                     "'derive', 'prune', or 'keep')",
                     E.Line);
  return &Ctx.P->frameOf(Ctx.Node);
}

EvalResult evalCall(const Expr &E, Context &Ctx, size_t Depth) {
  const std::string &Fn = E.Text;
  size_t Argc = E.Operands.size();
  auto WrongArity = [&](const char *Expected) {
    return typeError("'" + Fn + "' expects " + Expected + " argument(s)",
                     E.Line);
  };

  // Node-context builtins.
  if (Fn == "metric" || Fn == "exclusive" || Fn == "inclusive") {
    if (Argc != 1)
      return WrongArity("1");
    Result<std::string> Name = evalString(*E.Operands[0], Ctx, Depth + 1);
    if (!Name)
      return makeError(Name.error());
    if (!Ctx.HasNode)
      return typeError("'" + Fn + "()' needs a node context", E.Line);
    Result<const MetricView *> View = Ctx.viewFor(*Name, E.Line);
    if (!View)
      return makeError(View.error());
    double V = Fn == "inclusive" ? (*View)->inclusive(Ctx.Node)
                                 : (*View)->exclusive(Ctx.Node);
    return RtValue::number(V);
  }
  if (Fn == "total") {
    if (Argc != 1)
      return WrongArity("1");
    Result<std::string> Name = evalString(*E.Operands[0], Ctx, Depth + 1);
    if (!Name)
      return makeError(Name.error());
    Result<const MetricView *> View = Ctx.viewFor(*Name, E.Line);
    if (!View)
      return makeError(View.error());
    return RtValue::number((*View)->total());
  }
  if (Fn == "nodecount") {
    if (Argc != 0)
      return WrongArity("0");
    return RtValue::number(static_cast<double>(Ctx.P->nodeCount()));
  }
  if (Fn == "name" || Fn == "file" || Fn == "module" || Fn == "kind") {
    if (Argc != 0)
      return WrongArity("0");
    Result<const Frame *> F = nodeFrame(E, Ctx);
    if (!F)
      return makeError(F.error());
    if (Fn == "name")
      return RtValue::string(std::string(Ctx.P->text((*F)->Name)));
    if (Fn == "file")
      return RtValue::string(std::string(Ctx.P->text((*F)->Loc.File)));
    if (Fn == "module")
      return RtValue::string(std::string(Ctx.P->text((*F)->Loc.Module)));
    return RtValue::string(std::string(frameKindName((*F)->Kind)));
  }
  if (Fn == "line") {
    if (Argc != 0)
      return WrongArity("0");
    Result<const Frame *> F = nodeFrame(E, Ctx);
    if (!F)
      return makeError(F.error());
    return RtValue::number((*F)->Loc.Line);
  }
  if (Fn == "depth") {
    if (Argc != 0)
      return WrongArity("0");
    if (!Ctx.HasNode)
      return typeError("'depth()' needs a node context", E.Line);
    return RtValue::number(Ctx.NodeDepth);
  }
  if (Fn == "nchildren") {
    if (Argc != 0)
      return WrongArity("0");
    if (!Ctx.HasNode)
      return typeError("'nchildren()' needs a node context", E.Line);
    return RtValue::number(
        static_cast<double>(Ctx.P->node(Ctx.Node).Children.size()));
  }
  if (Fn == "isleaf") {
    if (Argc != 0)
      return WrongArity("0");
    if (!Ctx.HasNode)
      return typeError("'isleaf()' needs a node context", E.Line);
    return RtValue::boolean(Ctx.P->node(Ctx.Node).Children.empty());
  }
  if (Fn == "parentname") {
    if (Argc != 0)
      return WrongArity("0");
    if (!Ctx.HasNode)
      return typeError("'parentname()' needs a node context", E.Line);
    NodeId Parent = Ctx.P->node(Ctx.Node).Parent;
    if (Parent == InvalidNode)
      return RtValue::string("");
    return RtValue::string(std::string(Ctx.P->nameOf(Parent)));
  }
  if (Fn == "hasancestor") {
    if (Argc != 1)
      return WrongArity("1");
    Result<std::string> Name = evalString(*E.Operands[0], Ctx, Depth + 1);
    if (!Name)
      return makeError(Name.error());
    if (!Ctx.HasNode)
      return typeError("'hasancestor()' needs a node context", E.Line);
    for (NodeId Walk = Ctx.P->node(Ctx.Node).Parent; Walk != InvalidNode;
         Walk = Ctx.P->node(Walk).Parent)
      if (Ctx.P->nameOf(Walk) == *Name)
        return RtValue::boolean(true);
    return RtValue::boolean(false);
  }
  if (Fn == "share") {
    if (Argc != 1)
      return WrongArity("1");
    Result<std::string> Name = evalString(*E.Operands[0], Ctx, Depth + 1);
    if (!Name)
      return makeError(Name.error());
    if (!Ctx.HasNode)
      return typeError("'share()' needs a node context", E.Line);
    Result<const MetricView *> View = Ctx.viewFor(*Name, E.Line);
    if (!View)
      return makeError(View.error());
    double Total = (*View)->total();
    return RtValue::number(Total == 0.0
                               ? 0.0
                               : (*View)->inclusive(Ctx.Node) / Total);
  }

  // Pure numeric builtins.
  if (Fn == "min" || Fn == "max" || Fn == "ratio") {
    if (Argc != 2)
      return WrongArity("2");
    Result<double> A = evalNumber(*E.Operands[0], Ctx, Depth + 1);
    if (!A)
      return makeError(A.error());
    Result<double> B = evalNumber(*E.Operands[1], Ctx, Depth + 1);
    if (!B)
      return makeError(B.error());
    if (Fn == "min")
      return RtValue::number(std::min(*A, *B));
    if (Fn == "max")
      return RtValue::number(std::max(*A, *B));
    return RtValue::number(*B == 0.0 ? 0.0 : *A / *B);
  }
  if (Fn == "abs" || Fn == "log" || Fn == "sqrt" || Fn == "floor" ||
      Fn == "ceil") {
    if (Argc != 1)
      return WrongArity("1");
    Result<double> A = evalNumber(*E.Operands[0], Ctx, Depth + 1);
    if (!A)
      return makeError(A.error());
    if (Fn == "abs")
      return RtValue::number(std::abs(*A));
    if (Fn == "log")
      return RtValue::number(*A > 0 ? std::log(*A) : 0.0);
    if (Fn == "sqrt")
      return RtValue::number(*A >= 0 ? std::sqrt(*A) : 0.0);
    if (Fn == "floor")
      return RtValue::number(std::floor(*A));
    return RtValue::number(std::ceil(*A));
  }

  // String builtins.
  if (Fn == "contains" || Fn == "startswith" || Fn == "endswith") {
    if (Argc != 2)
      return WrongArity("2");
    Result<std::string> A = evalString(*E.Operands[0], Ctx, Depth + 1);
    if (!A)
      return makeError(A.error());
    Result<std::string> B = evalString(*E.Operands[1], Ctx, Depth + 1);
    if (!B)
      return makeError(B.error());
    if (Fn == "contains")
      return RtValue::boolean(A->find(*B) != std::string::npos);
    if (Fn == "startswith")
      return RtValue::boolean(startsWith(*A, *B));
    return RtValue::boolean(endsWith(*A, *B));
  }
  if (Fn == "str") {
    if (Argc != 1)
      return WrongArity("1");
    EvalResult V = evalExpr(*E.Operands[0], Ctx, Depth + 1);
    if (!V)
      return V;
    return RtValue::string(V->render());
  }
  if (Fn == "fmt") {
    if (Argc != 2)
      return WrongArity("2");
    Result<double> A = evalNumber(*E.Operands[0], Ctx, Depth + 1);
    if (!A)
      return makeError(A.error());
    Result<double> D = evalNumber(*E.Operands[1], Ctx, Depth + 1);
    if (!D)
      return makeError(D.error());
    return RtValue::string(renderFormatted(*A, *D));
  }

  return typeError("unknown function '" + Fn + "'", E.Line);
}

EvalResult evalExpr(const Expr &E, Context &Ctx, size_t Depth) {
  // Adversarially nested expressions (the parser admits up to its own
  // MaxParseDepth) bound recursion here, mirroring the static checker's
  // EVQL012 wording so both report the same diagnostic.
  if (Depth >= Ctx.Limits->MaxExprDepth)
    return typeError("expression nesting exceeds the analysis limit of " +
                         std::to_string(Ctx.Limits->MaxExprDepth),
                     E.Line);
  switch (E.TheKind) {
  case Expr::Kind::NumberLit:
    return RtValue::number(E.Number);
  case Expr::Kind::StringLit:
    return RtValue::string(E.Text);
  case Expr::Kind::BoolLit:
    return RtValue::boolean(E.BoolValue);
  case Expr::Kind::Ident: {
    auto It = Ctx.Globals.find(E.Text);
    if (It == Ctx.Globals.end())
      return typeError("unknown identifier '" + E.Text + "'", E.Line);
    return It->second;
  }
  case Expr::Kind::Unary: {
    if (E.Op == TokenKind::Minus) {
      Result<double> V = evalNumber(*E.Operands[0], Ctx, Depth + 1);
      if (!V)
        return makeError(V.error());
      return RtValue::number(-*V);
    }
    Result<bool> V = evalBool(*E.Operands[0], Ctx, Depth + 1);
    if (!V)
      return makeError(V.error());
    return RtValue::boolean(!*V);
  }
  case Expr::Kind::Ternary: {
    Result<bool> Cond = evalBool(*E.Operands[0], Ctx, Depth + 1);
    if (!Cond)
      return makeError(Cond.error());
    return evalExpr(*Cond ? *E.Operands[1] : *E.Operands[2], Ctx, Depth + 1);
  }
  case Expr::Kind::Binary: {
    // Short-circuit logic first.
    if (E.Op == TokenKind::AmpAmp || E.Op == TokenKind::PipePipe) {
      Result<bool> Lhs = evalBool(*E.Operands[0], Ctx, Depth + 1);
      if (!Lhs)
        return makeError(Lhs.error());
      if (E.Op == TokenKind::AmpAmp && !*Lhs)
        return RtValue::boolean(false);
      if (E.Op == TokenKind::PipePipe && *Lhs)
        return RtValue::boolean(true);
      Result<bool> Rhs = evalBool(*E.Operands[1], Ctx, Depth + 1);
      if (!Rhs)
        return makeError(Rhs.error());
      return RtValue::boolean(*Rhs);
    }
    EvalResult Lhs = evalExpr(*E.Operands[0], Ctx, Depth + 1);
    if (!Lhs)
      return Lhs;
    EvalResult Rhs = evalExpr(*E.Operands[1], Ctx, Depth + 1);
    if (!Rhs)
      return Rhs;

    bool BothStrings = Lhs->type() == RtValue::Type::String &&
                       Rhs->type() == RtValue::Type::String;
    switch (E.Op) {
    case TokenKind::Plus:
      if (BothStrings)
        return RtValue::string(Lhs->str() + Rhs->str());
      break;
    case TokenKind::EqualEqual:
    case TokenKind::BangEqual: {
      bool Equal;
      if (BothStrings)
        Equal = Lhs->str() == Rhs->str();
      else if (Lhs->type() == RtValue::Type::String ||
               Rhs->type() == RtValue::Type::String)
        Equal = false;
      else {
        double A = Lhs->type() == RtValue::Type::Bool
                       ? (Lhs->boolean() ? 1.0 : 0.0)
                       : Lhs->num();
        double B = Rhs->type() == RtValue::Type::Bool
                       ? (Rhs->boolean() ? 1.0 : 0.0)
                       : Rhs->num();
        Equal = A == B;
      }
      return RtValue::boolean(E.Op == TokenKind::EqualEqual ? Equal : !Equal);
    }
    case TokenKind::Less:
    case TokenKind::LessEqual:
    case TokenKind::Greater:
    case TokenKind::GreaterEqual:
      if (BothStrings) {
        int Cmp = Lhs->str().compare(Rhs->str());
        switch (E.Op) {
        case TokenKind::Less:
          return RtValue::boolean(Cmp < 0);
        case TokenKind::LessEqual:
          return RtValue::boolean(Cmp <= 0);
        case TokenKind::Greater:
          return RtValue::boolean(Cmp > 0);
        default:
          return RtValue::boolean(Cmp >= 0);
        }
      }
      break;
    default:
      break;
    }

    // Numeric path.
    auto AsNumber = [&](const RtValue &V) -> Result<double> {
      switch (V.type()) {
      case RtValue::Type::Number:
        return V.num();
      case RtValue::Type::Bool:
        return V.boolean() ? 1.0 : 0.0;
      case RtValue::Type::String:
        return typeError("string operand in numeric expression", E.Line);
      }
      return 0.0;
    };
    Result<double> A = AsNumber(*Lhs);
    if (!A)
      return makeError(A.error());
    Result<double> B = AsNumber(*Rhs);
    if (!B)
      return makeError(B.error());
    switch (E.Op) {
    case TokenKind::Plus:
      return RtValue::number(*A + *B);
    case TokenKind::Minus:
      return RtValue::number(*A - *B);
    case TokenKind::Star:
      return RtValue::number(*A * *B);
    case TokenKind::Slash:
      return RtValue::number(*B == 0.0 ? 0.0 : *A / *B);
    case TokenKind::Percent:
      return RtValue::number(*B == 0.0 ? 0.0 : std::fmod(*A, *B));
    case TokenKind::Less:
      return RtValue::boolean(*A < *B);
    case TokenKind::LessEqual:
      return RtValue::boolean(*A <= *B);
    case TokenKind::Greater:
      return RtValue::boolean(*A > *B);
    case TokenKind::GreaterEqual:
      return RtValue::boolean(*A >= *B);
    default:
      return typeError("unsupported operator", E.Line);
    }
  }
  case Expr::Kind::Call:
    return evalCall(E, Ctx, Depth);
  }
  return typeError("unreachable expression kind", E.Line);
}

} // namespace

Result<QueryOutput> runProgram(const Profile &P, const Program &Prog,
                               const AnalysisLimits &Limits) {
  QueryOutput Out;
  Out.Result = P;

  Context Ctx;
  Ctx.P = &Out.Result;
  Ctx.Limits = &Limits;

  for (const Stmt &S : Prog.Statements) {
    switch (S.TheKind) {
    case Stmt::Kind::Let: {
      Ctx.HasNode = false;
      EvalResult V = evalExpr(*S.Value, Ctx, 0);
      if (!V)
        return makeError(V.error());
      Ctx.Globals[S.Name] = *V;
      break;
    }
    case Stmt::Kind::Print: {
      Ctx.HasNode = false;
      EvalResult V = evalExpr(*S.Value, Ctx, 0);
      if (!V)
        return makeError(V.error());
      Out.Printed.push_back(V->render());
      break;
    }
    case Stmt::Kind::Return: {
      // Like print, but the program stops here: statements after a return
      // never execute (the static analyzer flags them as unreachable).
      Ctx.HasNode = false;
      EvalResult V = evalExpr(*S.Value, Ctx, 0);
      if (!V)
        return makeError(V.error());
      Out.Printed.push_back(V->render());
      return Out;
    }
    case Stmt::Kind::Derive: {
      // Compute the formula per node against the columns as they were
      // before the new metric exists, then install the column.
      std::vector<double> Column(Out.Result.nodeCount(), 0.0);
      std::vector<uint32_t> Depths = depthColumn(Out.Result);
      for (NodeId Id = 0; Id < Out.Result.nodeCount(); ++Id) {
        Ctx.HasNode = true;
        Ctx.Node = Id;
        Ctx.NodeDepth = Depths[Id];
        Result<double> V = evalNumber(*S.Value, Ctx, 0);
        if (!V)
          return makeError(V.error());
        Column[Id] = *V;
      }
      Ctx.HasNode = false;
      Out.Result = withDerivedColumn(Out.Result, S.Name, Column);
      Out.DerivedMetrics.push_back(S.Name);
      Ctx.Views.clear(); // Schema changed.
      break;
    }
    case Stmt::Kind::Prune:
    case Stmt::Kind::Keep: {
      std::vector<char> Keep(Out.Result.nodeCount(), 1);
      std::vector<uint32_t> Depths = depthColumn(Out.Result);
      for (NodeId Id = 1; Id < Out.Result.nodeCount(); ++Id) {
        Ctx.HasNode = true;
        Ctx.Node = Id;
        Ctx.NodeDepth = Depths[Id];
        Result<bool> V = evalBool(*S.Value, Ctx, 0);
        if (!V)
          return makeError(V.error());
        bool Matches = *V;
        Keep[Id] = S.TheKind == Stmt::Kind::Prune ? !Matches : Matches;
      }
      Ctx.HasNode = false;
      Out.Result = filterNodes(
          Out.Result, [&Keep](const Profile &, NodeId Id) -> bool {
            return Keep[Id] != 0;
          });
      Ctx.P = &Out.Result;
      Ctx.Views.clear(); // Node ids changed.
      break;
    }
    }
  }
  return Out;
}

Result<QueryOutput> runProgram(const Profile &P, const Program &Prog) {
  return oracle::runProgram(P, Prog, AnalysisLimits::defaults());
}

Result<QueryOutput> runProgram(const Profile &P, std::string_view Source,
                               const AnalysisLimits &Limits) {
  Result<Program> Prog = parseProgram(Source);
  if (!Prog)
    return makeError(Prog.error());
  return oracle::runProgram(P, *Prog, Limits);
}

Result<QueryOutput> runProgram(const Profile &P, std::string_view Source) {
  return runProgram(P, Source, AnalysisLimits::defaults());
}

} // namespace oracle
} // namespace evql
} // namespace ev
