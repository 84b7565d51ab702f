//===- tests/TacoParserTest.cpp - TACO lexer + parser ---------------------===//

#include "taco/Parser.h"

#include "taco/Lexer.h"
#include "taco/Printer.h"

#include <gtest/gtest.h>

using namespace stagg::taco;

TEST(TacoLexer, BasicTokens) {
  std::vector<Token> Tokens = lexTaco("a(i) = b(i,j) * 3");
  ASSERT_FALSE(Tokens.empty());
  EXPECT_EQ(Tokens.front().Kind, TokKind::Identifier);
  EXPECT_EQ(Tokens.back().Kind, TokKind::End);
  int Stars = 0, Ints = 0;
  for (const Token &T : Tokens) {
    Stars += T.Kind == TokKind::Star;
    Ints += T.Kind == TokKind::Integer;
  }
  EXPECT_EQ(Stars, 1);
  EXPECT_EQ(Ints, 1);
}

TEST(TacoLexer, FractionalLiteralIsInvalid) {
  std::vector<Token> Tokens = lexTaco("0.5");
  EXPECT_EQ(Tokens.front().Kind, TokKind::Invalid);
}

TEST(TacoLexer, OutOfRangeIntegerIsInvalid) {
  std::vector<Token> Tokens = lexTaco("99999999999999999999");
  EXPECT_EQ(Tokens.front().Kind, TokKind::Invalid);
  Tokens = lexTaco("9223372036854775807");
  ASSERT_EQ(Tokens.front().Kind, TokKind::Integer);
  EXPECT_EQ(Tokens.front().IntValue, 9223372036854775807);
}

TEST(TacoParser, ParsesSimpleAssignment) {
  ParseResult R = parseTacoProgram("out(i) = x(i) + y(i)");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Prog->Lhs.name(), "out");
  ASSERT_EQ(R.Prog->Lhs.indices().size(), 1u);
  EXPECT_EQ(printProgram(*R.Prog), "out(i) = x(i) + y(i)");
}

TEST(TacoParser, ParsesScalarLhs) {
  ParseResult R = parseTacoProgram("s = x(i) * y(i)");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_TRUE(R.Prog->Lhs.indices().empty());
}

TEST(TacoParser, RespectsPrecedence) {
  ParseResult R = parseTacoProgram("a(i) = b(i) + c(i) * d(i)");
  ASSERT_TRUE(R.ok());
  const auto &Root = exprCast<BinaryExpr>(*R.Prog->Rhs);
  EXPECT_EQ(Root.op(), BinOpKind::Add);
  const auto &Right = exprCast<BinaryExpr>(Root.rhs());
  EXPECT_EQ(Right.op(), BinOpKind::Mul);
}

TEST(TacoParser, ParenthesesOverridePrecedence) {
  ParseResult R = parseTacoProgram("a(i) = (b(i) + c(i)) * d(i)");
  ASSERT_TRUE(R.ok());
  const auto &Root = exprCast<BinaryExpr>(*R.Prog->Rhs);
  EXPECT_EQ(Root.op(), BinOpKind::Mul);
  const auto &Left = exprCast<BinaryExpr>(Root.lhs());
  EXPECT_EQ(Left.op(), BinOpKind::Add);
}

TEST(TacoParser, LeftAssociativity) {
  ParseResult R = parseTacoProgram("a(i) = b(i) - c(i) - d(i)");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(printProgram(*R.Prog), "a(i) = b(i) - c(i) - d(i)");
  const auto &Root = exprCast<BinaryExpr>(*R.Prog->Rhs);
  // ((b - c) - d): the left child is itself a subtraction.
  EXPECT_EQ(exprCast<BinaryExpr>(Root.lhs()).op(), BinOpKind::Sub);
}

TEST(TacoParser, UnaryMinus) {
  ParseResult R = parseTacoProgram("a(i) = -b(i)");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Prog->Rhs->kind(), Expr::Kind::Negate);
}

TEST(TacoParser, MultiIndexAccess) {
  ParseResult R = parseTacoProgram("a(i,j,k) = b(i,j,k,l) * c(l)");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Prog->Lhs.order(), 3u);
}

TEST(TacoParser, RejectsMissingRhs) {
  EXPECT_FALSE(parseTacoProgram("a(i) = ").ok());
}

TEST(TacoParser, RejectsTrailingGarbage) {
  EXPECT_FALSE(parseTacoProgram("a(i) = b(i) extra").ok());
}

TEST(TacoParser, RejectsUnbalancedParens) {
  EXPECT_FALSE(parseTacoProgram("a(i) = (b(i) + c(i)").ok());
  EXPECT_FALSE(parseTacoProgram("a(i = b(i)").ok());
}

TEST(TacoParser, RejectsSumPseudoNotation) {
  // `sum(i, ...)` is einsum pseudo-syntax LLMs like to emit; the comma makes
  // it unparsable as a TACO expression.
  EXPECT_FALSE(parseTacoProgram("a = sum(i, b(i))").ok());
}

TEST(TacoParser, ParsesIntegerConstants) {
  ParseResult R = parseTacoProgram("a(i) = 2 * b(i) + 1");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(printProgram(*R.Prog), "a(i) = 2 * b(i) + 1");
}

TEST(TacoParser, RejectsOutOfRangeConstantAtItsOffset) {
  ParseResult R = parseTacoProgram("out(i) = x(i) * 99999999999999999999");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Error, "numeric literal '99999999999999999999' does not fit "
                     "in 64 bits at offset 16");
}

TEST(TacoParser, NamesTheInvalidTokenItStoppedAt) {
  // An Invalid token is reported by its spelling, not by what the parser
  // expected in its place; only an all-digit one is called an overflow.
  ParseResult R = parseTacoProgram("out(i) = x(i) * 0.5");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Error, "invalid token '0.5' at offset 16");
  R = parseTacoProgram("out(i) = @(i)");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Error, "invalid token '@' at offset 9");
  ParseExprResult E = parseTacoExpr("b(i) + 18446744073709551616");
  ASSERT_FALSE(E.ok());
  EXPECT_EQ(E.Error, "numeric literal '18446744073709551616' does not fit "
                     "in 64 bits at offset 7");
  // A valid token keeps the expectation message.
  R = parseTacoProgram("out(i) = x(i) * )");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Error, "expected identifier at offset 16");
}

TEST(TacoParser, StructuralErrorsCarryTheirOffset) {
  // A missing '=' and trailing tokens are located like every other error,
  // and an Invalid token there is named by its spelling.
  ParseResult R = parseTacoProgram("out(i) x(i)");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Error, "expected '=' at offset 7");
  R = parseTacoProgram("out(i) = x(i) y(i)");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Error, "trailing tokens after expression at offset 14");
  R = parseTacoProgram("out(i) # x(i)");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Error, "invalid token '#' at offset 7");
  R = parseTacoProgram("out(i) = x(i) 0.5");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Error, "invalid token '0.5' at offset 14");
  ParseExprResult E = parseTacoExpr("b(i) c(i)");
  ASSERT_FALSE(E.ok());
  EXPECT_EQ(E.Error, "trailing tokens after expression at offset 5");
}

TEST(TacoParser, ExprEntryPoint) {
  ParseExprResult R = parseTacoExpr("b(i) * c(j)");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(printExpr(*R.E), "b(i) * c(j)");
  EXPECT_FALSE(parseTacoExpr("b(i) *").ok());
}

TEST(TacoParser, ParsesMaxCalls) {
  ParseResult R = parseTacoProgram("out(i) = max(x(i), 0)");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(printProgram(*R.Prog), "out(i) = max(x(i), 0)");

  // Arguments are full expressions, and max nests freely.
  R = parseTacoProgram("out(i) = 2 * max(a(i) - b(i), max(c(i), 1))");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(printProgram(*R.Prog),
            "out(i) = 2 * max(a(i) - b(i), max(c(i), 1))");

  // `max` is reserved call syntax, not a tensor name.
  EXPECT_FALSE(parseTacoProgram("out(i) = max(i)").ok());
  EXPECT_FALSE(parseTacoProgram("out(i) = max(a(i))").ok());
  EXPECT_FALSE(parseTacoProgram("out(i) = max(a(i), b(i)").ok());
}

TEST(TacoParser, ParsesStatementLists) {
  ParseStatementsResult R =
      parseTacoStatements("out(i) = x(i) * x(i); out(i) = out(i) + y(i);");
  ASSERT_TRUE(R.ok()) << R.Error;
  ASSERT_EQ(R.Programs.size(), 2u);
  EXPECT_EQ(printProgram(R.Programs[0]), "out(i) = x(i) * x(i)");
  EXPECT_EQ(printProgram(R.Programs[1]), "out(i) = out(i) + y(i)");

  // A single statement needs no semicolon; bad statements name their index.
  EXPECT_TRUE(parseTacoStatements("out(i) = x(i)").ok());
  ParseStatementsResult Bad = parseTacoStatements("out(i) = x(i); out(i) =");
  EXPECT_FALSE(Bad.ok());
  EXPECT_NE(Bad.Error.find("statement 2"), std::string::npos) << Bad.Error;
  EXPECT_FALSE(parseTacoStatements("  ;  ").ok());
}
