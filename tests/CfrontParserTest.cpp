//===- tests/CfrontParserTest.cpp - Mini-C parser -------------------------===//

#include "cfront/Parser.h"

#include <gtest/gtest.h>

using namespace stagg::cfront;

TEST(CfrontParser, ParsesSimpleKernel) {
  CParseResult R = parseCFunction(
      "void f(int N, float* x, float* out) {"
      "  for (int i = 0; i < N; i++) out[i] = x[i]; }");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Function->Name, "f");
  ASSERT_EQ(R.Function->Params.size(), 3u);
  EXPECT_FALSE(R.Function->Params[0].Type.isPointer());
  EXPECT_TRUE(R.Function->Params[1].Type.isPointer());
}

TEST(CfrontParser, ParsesPointerArithmetic) {
  CParseResult R = parseCFunction(
      "void f(int N, int* a, int* b) {"
      "  int* p = a; int* q = b;"
      "  for (int i = 0; i < N; i++) *q++ = *p++; }");
  ASSERT_TRUE(R.ok()) << R.Error;
}

TEST(CfrontParser, ParsesCompoundAssignAndComments) {
  CParseResult R = parseCFunction(
      "void f(int N, float* x, float* out) {\n"
      "  float s = 0; // accumulate\n"
      "  /* block comment */\n"
      "  for (int i = 0; i < N; i++) s += x[i];\n"
      "  *out = s; }");
  ASSERT_TRUE(R.ok()) << R.Error;
}

TEST(CfrontParser, ParsesMultipleDeclarators) {
  CParseResult R = parseCFunction(
      "void f(int N, int* A) { int i, j; int *p, k;"
      "  p = A; i = 0; j = 0; k = 0; }");
  ASSERT_TRUE(R.ok()) << R.Error;
}

TEST(CfrontParser, ParsesIfElseAndWhile) {
  CParseResult R = parseCFunction(
      "void f(int N, float* x) {"
      "  int i = 0;"
      "  while (i < N) { if (i > 2) x[i] = 1; else x[i] = 2; i++; } }");
  ASSERT_TRUE(R.ok()) << R.Error;
}

TEST(CfrontParser, ParsesCasts) {
  CParseResult R = parseCFunction(
      "void f(int N, float* x, float* out) {"
      "  for (int i = 0; i < N; i++) out[i] = (float) x[i]; }");
  ASSERT_TRUE(R.ok()) << R.Error;
}

TEST(CfrontParser, ParsesAddressOfIndex) {
  CParseResult R = parseCFunction(
      "void f(int N, int* A) { int* p = &A[0]; *p = 3; }");
  ASSERT_TRUE(R.ok()) << R.Error;
}

TEST(CfrontParser, ParsesArrayParamSyntax) {
  CParseResult R = parseCFunction(
      "void f(int N, float x[], float out[]) {"
      "  for (int i = 0; i < N; i++) out[i] = x[i]; }");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_TRUE(R.Function->Params[1].Type.isPointer());
}

TEST(CfrontParser, ParsesReturn) {
  CParseResult R = parseCFunction("int f(int N) { return N * 2; }");
  ASSERT_TRUE(R.ok()) << R.Error;
}

TEST(CfrontParser, RejectsMissingSemicolon) {
  EXPECT_FALSE(parseCFunction("void f(int N) { N = 1 }").ok());
}

TEST(CfrontParser, RejectsUnbalancedBraces) {
  EXPECT_FALSE(parseCFunction("void f(int N) { if (N) {").ok());
}

TEST(CfrontParser, RejectsBadParamList) {
  EXPECT_FALSE(parseCFunction("void f(int) { }").ok());
}

TEST(CfrontParser, RejectsOutOfRangeLiteralsAtTheirLine) {
  // Literals that do not fit int64 (an integer, a float mantissa, or a
  // 10^scale denominator) are parse errors located at their line, not
  // exceptions out of the lexer.
  for (const char *Literal :
       {"99999999999999999999", "18446744073709551616.0",
        "0.0000000000000000001"}) {
    CParseResult R = parseCFunction(
        std::string("void f(int N, float* x, float* out) {\n"
                    "  for (int i = 0; i < N; i++)\n"
                    "    out[i] = x[i] * ") +
        Literal + ";\n}");
    EXPECT_FALSE(R.ok()) << Literal;
    EXPECT_NE(R.Error.find("(line 3)"), std::string::npos)
        << Literal << ": " << R.Error;
  }
  // The largest representable forms still parse.
  EXPECT_TRUE(parseCFunction("int f(int N) { return N * 9223372036854775807; }")
                  .ok());
  EXPECT_TRUE(
      parseCFunction("float f(float x) { return x * 0.000000000000000001; }")
          .ok());
}

TEST(CfrontParser, EveryBenchmarkPrecedenceShape) {
  // a + b * c parses as a + (b * c).
  CParseResult R = parseCFunction(
      "void f(int N, float* a, float* b, float* c, float* o) {"
      "  for (int i = 0; i < N; i++) o[i] = a[i] + b[i] * c[i]; }");
  ASSERT_TRUE(R.ok());
}
