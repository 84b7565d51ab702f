//===- taco/Parser.cpp - Parser for TACO index notation -------------------===//

#include "taco/Parser.h"

#include "taco/Lexer.h"

#include <algorithm>
#include <cctype>

using namespace stagg;
using namespace stagg::taco;

namespace {

/// True for a non-empty run of decimal digits: the lexer's spelling of an
/// integer literal (one that lexed as Invalid overflowed int64).
bool isDigits(const std::string &Spelling) {
  return !Spelling.empty() &&
         std::all_of(Spelling.begin(), Spelling.end(), [](unsigned char C) {
           return std::isdigit(C) != 0;
         });
}

/// Token-stream cursor with error accumulation.
class ParserImpl {
public:
  explicit ParserImpl(std::vector<Token> Tokens)
      : Tokens(std::move(Tokens)) {}

  const Token &peek() const { return Tokens[Pos]; }
  const Token &advance() { return Tokens[Pos++]; }

  bool check(TokKind K) const { return peek().Kind == K; }

  bool match(TokKind K) {
    if (!check(K))
      return false;
    ++Pos;
    return true;
  }

  /// Records the first error, located at the current token. An Invalid
  /// token is the culprit itself (nothing can consume it), so the error
  /// names it instead of what was expected there.
  void fail(const std::string &Message) {
    if (!ErrorMessage.empty())
      return;
    const Token &Tok = peek();
    if (Tok.Kind != TokKind::Invalid)
      ErrorMessage = Message;
    else if (isDigits(Tok.Spelling))
      ErrorMessage = "numeric literal '" + Tok.Spelling +
                     "' does not fit in 64 bits";
    else
      ErrorMessage = "invalid token '" + Tok.Spelling + "'";
    ErrorMessage += " at offset " + std::to_string(Tok.Offset);
  }

  bool hadError() const { return !ErrorMessage.empty(); }
  const std::string &error() const { return ErrorMessage; }

  /// tensor := IDENTIFIER [ "(" INDEX ("," INDEX)* ")" ]
  std::optional<AccessExpr> parseAccess() {
    if (!check(TokKind::Identifier)) {
      fail("expected identifier");
      return std::nullopt;
    }
    std::string Name = advance().Spelling;
    std::vector<std::string> Indices;
    if (match(TokKind::LParen)) {
      do {
        if (!check(TokKind::Identifier)) {
          fail("expected index variable");
          return std::nullopt;
        }
        Indices.push_back(advance().Spelling);
      } while (match(TokKind::Comma));
      if (!match(TokKind::RParen)) {
        fail("expected ')'");
        return std::nullopt;
      }
    }
    return AccessExpr(std::move(Name), std::move(Indices));
  }

  /// primary := tensor | INTEGER | "(" expr ")" | "-" primary
  ExprPtr parsePrimary() {
    if (check(TokKind::Integer)) {
      int64_t Value = advance().IntValue;
      return std::make_unique<ConstantExpr>(Value);
    }
    if (match(TokKind::Minus)) {
      ExprPtr Sub = parsePrimary();
      if (!Sub)
        return nullptr;
      return std::make_unique<NegateExpr>(std::move(Sub));
    }
    if (match(TokKind::LParen)) {
      ExprPtr Inner = parseExpr();
      if (!Inner)
        return nullptr;
      if (!match(TokKind::RParen)) {
        fail("expected ')'");
        return nullptr;
      }
      return Inner;
    }
    // The identifier `Const` denotes the symbolic template constant
    // (§4.2.1); it cannot be indexed.
    if (check(TokKind::Identifier) && peek().Spelling == "Const") {
      advance();
      return ConstantExpr::symbolic();
    }
    // `max(e1, e2)` is a reserved call form, not a tensor access: its
    // arguments are full expressions, which an index list cannot carry.
    if (check(TokKind::Identifier) && peek().Spelling == "max") {
      advance();
      if (!match(TokKind::LParen)) {
        fail("expected '(' after max");
        return nullptr;
      }
      ExprPtr Lhs = parseExpr();
      if (!Lhs)
        return nullptr;
      if (!match(TokKind::Comma)) {
        fail("expected ',' in max");
        return nullptr;
      }
      ExprPtr Rhs = parseExpr();
      if (!Rhs)
        return nullptr;
      if (!match(TokKind::RParen)) {
        fail("expected ')' after max");
        return nullptr;
      }
      return std::make_unique<MaxExpr>(std::move(Lhs), std::move(Rhs));
    }
    std::optional<AccessExpr> Access = parseAccess();
    if (!Access)
      return nullptr;
    return std::make_unique<AccessExpr>(std::move(*Access));
  }

  /// term := primary (("*" | "/") primary)*
  ExprPtr parseTerm() {
    ExprPtr Lhs = parsePrimary();
    if (!Lhs)
      return nullptr;
    while (check(TokKind::Star) || check(TokKind::Slash)) {
      BinOpKind Op =
          advance().Kind == TokKind::Star ? BinOpKind::Mul : BinOpKind::Div;
      ExprPtr Rhs = parsePrimary();
      if (!Rhs)
        return nullptr;
      Lhs = std::make_unique<BinaryExpr>(Op, std::move(Lhs), std::move(Rhs));
    }
    return Lhs;
  }

  /// expr := term (("+" | "-") term)*
  ExprPtr parseExpr() {
    ExprPtr Lhs = parseTerm();
    if (!Lhs)
      return nullptr;
    while (check(TokKind::Plus) || check(TokKind::Minus)) {
      BinOpKind Op =
          advance().Kind == TokKind::Plus ? BinOpKind::Add : BinOpKind::Sub;
      ExprPtr Rhs = parseTerm();
      if (!Rhs)
        return nullptr;
      Lhs = std::make_unique<BinaryExpr>(Op, std::move(Lhs), std::move(Rhs));
    }
    return Lhs;
  }

private:
  std::vector<Token> Tokens;
  size_t Pos = 0;
  std::string ErrorMessage;
};

} // namespace

ParseResult taco::parseTacoProgram(const std::string &Source) {
  ParserImpl P(lexTaco(Source));
  ParseResult Result;
  std::optional<AccessExpr> Lhs = P.parseAccess();
  if (!Lhs) {
    Result.Error = P.error();
    return Result;
  }
  if (!P.match(TokKind::Equals)) {
    Result.Error = "expected '='";
    return Result;
  }
  ExprPtr Rhs = P.parseExpr();
  if (!Rhs) {
    Result.Error = P.error();
    return Result;
  }
  if (!P.check(TokKind::End)) {
    Result.Error = "trailing tokens after expression";
    return Result;
  }
  Result.Prog = Program(std::move(*Lhs), std::move(Rhs));
  return Result;
}

ParseStatementsResult taco::parseTacoStatements(const std::string &Source) {
  ParseStatementsResult Result;
  size_t Start = 0;
  while (Start <= Source.size()) {
    size_t Semi = Source.find(';', Start);
    std::string Piece = Source.substr(
        Start, Semi == std::string::npos ? std::string::npos : Semi - Start);
    bool Blank =
        Piece.find_first_not_of(" \t\r\n") == std::string::npos;
    if (!Blank) {
      ParseResult One = parseTacoProgram(Piece);
      if (!One.ok()) {
        Result.Error = "statement " +
                       std::to_string(Result.Programs.size() + 1) + ": " +
                       One.Error;
        Result.Programs.clear();
        return Result;
      }
      Result.Programs.push_back(std::move(*One.Prog));
    }
    if (Semi == std::string::npos)
      break;
    Start = Semi + 1;
  }
  if (Result.Programs.empty())
    Result.Error = "no statements";
  return Result;
}

ParseExprResult taco::parseTacoExpr(const std::string &Source) {
  ParserImpl P(lexTaco(Source));
  ParseExprResult Result;
  ExprPtr E = P.parseExpr();
  if (!E) {
    Result.Error = P.error();
    return Result;
  }
  if (!P.check(TokKind::End)) {
    Result.Error = "trailing tokens after expression";
    return Result;
  }
  Result.E = std::move(E);
  return Result;
}
