//===- query/Parser.cpp - EVQL parser ---------------------------------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "query/Parser.h"

namespace ev {
namespace evql {

namespace {

/// Hard cap on expression nesting. Recursive descent means parser stack
/// frames scale with nesting depth; hostile input ("(((((...") must error
/// out, never overflow the stack.
constexpr unsigned MaxParseDepth = 500;

class Parser {
public:
  explicit Parser(std::vector<Token> Tokens) : Tokens(std::move(Tokens)) {}

  Result<Program> parseProgram() {
    Program Prog;
    while (!lookingAt(TokenKind::EndOfInput)) {
      Result<Stmt> S = parseStatement();
      if (!S)
        return makeError(S.error());
      Prog.Statements.push_back(std::move(*S));
    }
    return Prog;
  }

  RecoveredProgram parseProgramRecover() {
    RecoveredProgram Out;
    while (!lookingAt(TokenKind::EndOfInput)) {
      Result<Stmt> S = parseStatement();
      if (!S) {
        Out.Errors.push_back(LastError);
        synchronize();
        continue;
      }
      Out.Prog.Statements.push_back(std::move(*S));
    }
    return Out;
  }

private:
  const Token &peek() const { return Tokens[Pos]; }
  const Token &advance() { return Tokens[Pos++]; }
  bool lookingAt(TokenKind Kind) const { return peek().Kind == Kind; }

  bool consume(TokenKind Kind) {
    if (!lookingAt(Kind))
      return false;
    ++Pos;
    return true;
  }

  static bool isStatementKeyword(TokenKind Kind) {
    switch (Kind) {
    case TokenKind::KwLet:
    case TokenKind::KwDerive:
    case TokenKind::KwPrune:
    case TokenKind::KwKeep:
    case TokenKind::KwPrint:
    case TokenKind::KwReturn:
      return true;
    default:
      return false;
    }
  }

  /// Panic-mode recovery: skip to just past the next ';', or stop early at
  /// a token that can only start a statement, so the next parseStatement()
  /// attempt starts on a plausible boundary.
  void synchronize() {
    while (!lookingAt(TokenKind::EndOfInput)) {
      if (consume(TokenKind::Semicolon))
        return;
      if (isStatementKeyword(peek().Kind))
        return;
      advance();
    }
  }

  Error fail(std::string Message) {
    LastError.Message = Message;
    LastError.Line = peek().Line;
    LastError.Column = peek().Column;
    return makeError(Message + " at line " + std::to_string(peek().Line) +
                     ":" + std::to_string(peek().Column));
  }

  Result<bool> expect(TokenKind Kind) {
    if (consume(Kind))
      return true;
    return fail("expected " + std::string(tokenKindName(Kind)) + ", found " +
                std::string(tokenKindName(peek().Kind)));
  }

  Result<Stmt> parseStatement() {
    Stmt S;
    S.Line = peek().Line;
    S.Column = peek().Column;
    switch (peek().Kind) {
    case TokenKind::KwLet:
    case TokenKind::KwDerive: {
      S.TheKind = peek().Kind == TokenKind::KwLet ? Stmt::Kind::Let
                                                  : Stmt::Kind::Derive;
      advance();
      if (!lookingAt(TokenKind::Identifier))
        return fail("expected name after 'let'/'derive'");
      S.Name = advance().Text;
      if (Result<bool> R = expect(TokenKind::Assign); !R)
        return makeError(R.error());
      Result<ExprPtr> E = parseExpr();
      if (!E)
        return makeError(E.error());
      S.Value = E.take();
      break;
    }
    case TokenKind::KwPrune:
    case TokenKind::KwKeep: {
      S.TheKind = peek().Kind == TokenKind::KwPrune ? Stmt::Kind::Prune
                                                    : Stmt::Kind::Keep;
      advance();
      if (Result<bool> R = expect(TokenKind::KwWhen); !R)
        return makeError(R.error());
      Result<ExprPtr> E = parseExpr();
      if (!E)
        return makeError(E.error());
      S.Value = E.take();
      break;
    }
    case TokenKind::KwPrint:
    case TokenKind::KwReturn: {
      S.TheKind = peek().Kind == TokenKind::KwPrint ? Stmt::Kind::Print
                                                    : Stmt::Kind::Return;
      advance();
      Result<ExprPtr> E = parseExpr();
      if (!E)
        return makeError(E.error());
      S.Value = E.take();
      break;
    }
    default:
      return fail("expected a statement ('let', 'derive', 'prune', 'keep', "
                  "'print', or 'return')");
    }
    if (Result<bool> R = expect(TokenKind::Semicolon); !R)
      return makeError(R.error());
    return S;
  }

  Result<ExprPtr> parseExpr() {
    if (Depth >= MaxParseDepth)
      return fail("expression nesting too deep");
    ++Depth;
    Result<ExprPtr> E = parseTernary();
    --Depth;
    return E;
  }

  Result<ExprPtr> parseTernary() {
    Result<ExprPtr> Cond = parseOr();
    if (!Cond)
      return Cond;
    if (!consume(TokenKind::Question))
      return Cond;
    Result<ExprPtr> Then = parseExpr();
    if (!Then)
      return Then;
    if (Result<bool> R = expect(TokenKind::Colon); !R)
      return makeError(R.error());
    Result<ExprPtr> Else = parseExpr();
    if (!Else)
      return Else;
    auto E = std::make_unique<Expr>();
    E->TheKind = Expr::Kind::Ternary;
    E->Line = (*Cond)->Line;
    E->Column = (*Cond)->Column;
    E->Operands.push_back(Cond.take());
    E->Operands.push_back(Then.take());
    E->Operands.push_back(Else.take());
    return E;
  }

  template <typename NextFn>
  Result<ExprPtr> parseLeftAssoc(NextFn Next,
                                 std::initializer_list<TokenKind> Ops) {
    Result<ExprPtr> Lhs = Next();
    if (!Lhs)
      return Lhs;
    while (true) {
      TokenKind Matched = TokenKind::EndOfInput;
      for (TokenKind Op : Ops)
        if (lookingAt(Op)) {
          Matched = Op;
          break;
        }
      if (Matched == TokenKind::EndOfInput)
        return Lhs;
      advance();
      Result<ExprPtr> Rhs = Next();
      if (!Rhs)
        return Rhs;
      auto E = std::make_unique<Expr>();
      E->TheKind = Expr::Kind::Binary;
      E->Op = Matched;
      E->Line = (*Lhs)->Line;
      E->Column = (*Lhs)->Column;
      E->Operands.push_back(Lhs.take());
      E->Operands.push_back(Rhs.take());
      Lhs = std::move(E);
    }
  }

  Result<ExprPtr> parseOr() {
    return parseLeftAssoc([this] { return parseAnd(); },
                          {TokenKind::PipePipe});
  }
  Result<ExprPtr> parseAnd() {
    return parseLeftAssoc([this] { return parseEquality(); },
                          {TokenKind::AmpAmp});
  }
  Result<ExprPtr> parseEquality() {
    return parseLeftAssoc([this] { return parseRelational(); },
                          {TokenKind::EqualEqual, TokenKind::BangEqual});
  }
  Result<ExprPtr> parseRelational() {
    return parseLeftAssoc([this] { return parseAdditive(); },
                          {TokenKind::Less, TokenKind::LessEqual,
                           TokenKind::Greater, TokenKind::GreaterEqual});
  }
  Result<ExprPtr> parseAdditive() {
    return parseLeftAssoc([this] { return parseMultiplicative(); },
                          {TokenKind::Plus, TokenKind::Minus});
  }
  Result<ExprPtr> parseMultiplicative() {
    return parseLeftAssoc([this] { return parseUnary(); },
                          {TokenKind::Star, TokenKind::Slash,
                           TokenKind::Percent});
  }

  Result<ExprPtr> parseUnary() {
    if (lookingAt(TokenKind::Minus) || lookingAt(TokenKind::Bang)) {
      if (Depth >= MaxParseDepth)
        return fail("expression nesting too deep");
      ++Depth;
      size_t OpLine = peek().Line;
      size_t OpColumn = peek().Column;
      TokenKind Op = advance().Kind;
      Result<ExprPtr> Operand = parseUnary();
      --Depth;
      if (!Operand)
        return Operand;
      auto E = std::make_unique<Expr>();
      E->TheKind = Expr::Kind::Unary;
      E->Op = Op;
      E->Line = OpLine;
      E->Column = OpColumn;
      E->Operands.push_back(Operand.take());
      return E;
    }
    return parsePrimary();
  }

  Result<ExprPtr> parsePrimary() {
    auto E = std::make_unique<Expr>();
    E->Line = peek().Line;
    E->Column = peek().Column;
    switch (peek().Kind) {
    case TokenKind::Number:
      E->TheKind = Expr::Kind::NumberLit;
      E->Number = advance().Number;
      return E;
    case TokenKind::String:
      E->TheKind = Expr::Kind::StringLit;
      E->Text = advance().Text;
      return E;
    case TokenKind::KwTrue:
    case TokenKind::KwFalse:
      E->TheKind = Expr::Kind::BoolLit;
      E->BoolValue = advance().Kind == TokenKind::KwTrue;
      return E;
    case TokenKind::LParen: {
      advance();
      Result<ExprPtr> Inner = parseExpr();
      if (!Inner)
        return Inner;
      if (Result<bool> R = expect(TokenKind::RParen); !R)
        return makeError(R.error());
      return Inner;
    }
    case TokenKind::Identifier: {
      E->Text = advance().Text;
      if (!consume(TokenKind::LParen)) {
        E->TheKind = Expr::Kind::Ident;
        return E;
      }
      E->TheKind = Expr::Kind::Call;
      if (consume(TokenKind::RParen))
        return E;
      while (true) {
        Result<ExprPtr> Arg = parseExpr();
        if (!Arg)
          return Arg;
        E->Operands.push_back(Arg.take());
        if (consume(TokenKind::Comma))
          continue;
        if (Result<bool> R = expect(TokenKind::RParen); !R)
          return makeError(R.error());
        return E;
      }
    }
    default:
      return fail("expected an expression, found " +
                  std::string(tokenKindName(peek().Kind)));
    }
  }

  std::vector<Token> Tokens;
  size_t Pos = 0;
  unsigned Depth = 0;
  SyntaxError LastError;
};

} // namespace

Result<Program> parseProgram(std::string_view Source) {
  Result<std::vector<Token>> Tokens = lex(Source);
  if (!Tokens)
    return makeError(Tokens.error());
  return Parser(Tokens.take()).parseProgram();
}

RecoveredProgram parseProgramRecover(std::string_view Source) {
  Result<std::vector<Token>> Tokens = lex(Source);
  if (!Tokens) {
    // Lexical failures are not statement-recoverable: report the one error
    // with its position parsed back out of the message when possible.
    RecoveredProgram Out;
    SyntaxError E;
    E.Message = Tokens.error();
    Out.Errors.push_back(std::move(E));
    return Out;
  }
  return Parser(Tokens.take()).parseProgramRecover();
}

std::optional<std::string> programSizeError(std::string_view Source,
                                            const AnalysisLimits &Limits) {
  if (Source.size() <= Limits.MaxProgramBytes)
    return std::nullopt;
  return "program of " + std::to_string(Source.size()) +
         " bytes exceeds the analysis limit of " +
         std::to_string(Limits.MaxProgramBytes);
}

} // namespace evql
} // namespace ev
