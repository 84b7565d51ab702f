//===- cfront/Lexer.cpp - Tokenizer for the mini-C front end --------------===//

#include "cfront/Lexer.h"

#include <cctype>
#include <charconv>

using namespace stagg;
using namespace stagg::cfront;

static bool isKeyword(const std::string &Word) {
  static const char *Keywords[] = {"int",  "float", "double", "void",
                                   "for",  "while", "if",     "else",
                                   "return"};
  for (const char *K : Keywords)
    if (Word == K)
      return true;
  return false;
}

/// Parses the decimal digit string \p Digits; false when it overflows.
static bool toInt64(const std::string &Digits, int64_t &Out) {
  const char *End = Digits.data() + Digits.size();
  auto [Ptr, Ec] = std::from_chars(Digits.data(), End, Out);
  return Ec == std::errc() && Ptr == End;
}

std::vector<CToken> cfront::lexC(const std::string &Source) {
  std::vector<CToken> Tokens;
  size_t I = 0;
  const size_t N = Source.size();
  int Line = 1;
  size_t LineStart = 0;

  auto Peek = [&](size_t Ahead) -> char {
    return I + Ahead < N ? Source[I + Ahead] : '\0';
  };

  while (I < N) {
    char C = Source[I];
    if (C == '\n') {
      ++Line;
      ++I;
      LineStart = I;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(C))) {
      ++I;
      continue;
    }
    if (C == '/' && Peek(1) == '/') {
      while (I < N && Source[I] != '\n')
        ++I;
      continue;
    }
    if (C == '/' && Peek(1) == '*') {
      I += 2;
      while (I + 1 < N && !(Source[I] == '*' && Source[I + 1] == '/')) {
        if (Source[I] == '\n') {
          ++Line;
          LineStart = I + 1;
        }
        ++I;
      }
      I = I + 2 <= N ? I + 2 : N;
      continue;
    }

    CToken Tok;
    Tok.Line = Line;
    Tok.Col = static_cast<int>(I - LineStart) + 1;

    if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
      size_t Start = I;
      while (I < N && (std::isalnum(static_cast<unsigned char>(Source[I])) ||
                       Source[I] == '_'))
        ++I;
      Tok.Spelling = Source.substr(Start, I - Start);
      Tok.Kind = isKeyword(Tok.Spelling) ? CTokKind::Keyword
                                         : CTokKind::Identifier;
      Tokens.push_back(std::move(Tok));
      continue;
    }

    if (std::isdigit(static_cast<unsigned char>(C))) {
      size_t Start = I;
      while (I < N && std::isdigit(static_cast<unsigned char>(Source[I])))
        ++I;
      if (I < N && Source[I] == '.') {
        ++I;
        size_t FracStart = I;
        while (I < N && std::isdigit(static_cast<unsigned char>(Source[I])))
          ++I;
        // Optional float suffix.
        if (I < N && (Source[I] == 'f' || Source[I] == 'F'))
          ++I;
        std::string IntPart = Source.substr(Start, FracStart - 1 - Start);
        std::string FracPart =
            Source.substr(FracStart, I - FracStart);
        while (!FracPart.empty() &&
               (FracPart.back() == 'f' || FracPart.back() == 'F'))
          FracPart.pop_back();
        Tok.Spelling = Source.substr(Start, I - Start);
        // "2." == 20 / 10^1. A literal whose mantissa or 10^scale
        // denominator does not fit int64 lexes as Invalid, which the
        // parser reports at its line.
        Tok.FloatScale =
            FracPart.empty() ? 1 : static_cast<int>(FracPart.size());
        std::string Digits = IntPart + (FracPart.empty() ? "0" : FracPart);
        Tok.Kind = Tok.FloatScale <= 18 && toInt64(Digits, Tok.FloatMantissa)
                       ? CTokKind::Float
                       : CTokKind::Invalid;
        Tokens.push_back(std::move(Tok));
        continue;
      }
      Tok.Spelling = Source.substr(Start, I - Start);
      Tok.Kind = toInt64(Tok.Spelling, Tok.IntValue) ? CTokKind::Integer
                                                      : CTokKind::Invalid;
      Tokens.push_back(std::move(Tok));
      continue;
    }

    // Multi-character punctuation first.
    static const char *TwoChar[] = {"+=", "-=", "*=", "/=", "==", "!=",
                                    "<=", ">=", "&&", "||", "++", "--"};
    bool Matched = false;
    for (const char *P : TwoChar) {
      if (C == P[0] && Peek(1) == P[1]) {
        Tok.Kind = CTokKind::Punct;
        Tok.Spelling = P;
        I += 2;
        Matched = true;
        break;
      }
    }
    if (Matched) {
      Tokens.push_back(std::move(Tok));
      continue;
    }

    static const char OneChar[] = "+-*/%<>=!&(){}[];,";
    if (std::string(OneChar).find(C) != std::string::npos) {
      Tok.Kind = CTokKind::Punct;
      Tok.Spelling = std::string(1, C);
      ++I;
      Tokens.push_back(std::move(Tok));
      continue;
    }

    Tok.Kind = CTokKind::Invalid;
    Tok.Spelling = std::string(1, C);
    ++I;
    Tokens.push_back(std::move(Tok));
  }

  CToken EndTok;
  EndTok.Kind = CTokKind::End;
  EndTok.Line = Line;
  Tokens.push_back(std::move(EndTok));
  return Tokens;
}
