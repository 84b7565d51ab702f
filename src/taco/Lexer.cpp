//===- taco/Lexer.cpp - Tokenizer for TACO index notation -----------------===//

#include "taco/Lexer.h"

#include <cctype>
#include <charconv>

using namespace stagg;
using namespace stagg::taco;

std::vector<Token> taco::lexTaco(const std::string &Source) {
  std::vector<Token> Tokens;
  size_t I = 0;
  const size_t N = Source.size();
  while (I < N) {
    char C = Source[I];
    if (std::isspace(static_cast<unsigned char>(C))) {
      ++I;
      continue;
    }
    Token Tok;
    Tok.Offset = I;
    if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
      size_t Start = I;
      while (I < N && (std::isalnum(static_cast<unsigned char>(Source[I])) ||
                       Source[I] == '_'))
        ++I;
      Tok.Kind = TokKind::Identifier;
      Tok.Spelling = Source.substr(Start, I - Start);
      Tokens.push_back(std::move(Tok));
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(C))) {
      size_t Start = I;
      while (I < N && std::isdigit(static_cast<unsigned char>(Source[I])))
        ++I;
      // A fractional literal (e.g. "0.5") is outside the grammar of Fig. 5;
      // lex it as Invalid so the candidate gets discarded.
      if (I < N && Source[I] == '.') {
        ++I;
        while (I < N && std::isdigit(static_cast<unsigned char>(Source[I])))
          ++I;
        Tok.Kind = TokKind::Invalid;
        Tok.Spelling = Source.substr(Start, I - Start);
        Tokens.push_back(std::move(Tok));
        continue;
      }
      // So is an integer literal that does not fit int64.
      Tok.Spelling = Source.substr(Start, I - Start);
      const char *End = Tok.Spelling.data() + Tok.Spelling.size();
      auto [Ptr, Ec] = std::from_chars(Tok.Spelling.data(), End, Tok.IntValue);
      Tok.Kind = Ec == std::errc() && Ptr == End ? TokKind::Integer
                                                 : TokKind::Invalid;
      Tokens.push_back(std::move(Tok));
      continue;
    }
    ++I;
    switch (C) {
    case '=':
      Tok.Kind = TokKind::Equals;
      break;
    case '+':
      Tok.Kind = TokKind::Plus;
      break;
    case '-':
      Tok.Kind = TokKind::Minus;
      break;
    case '*':
      Tok.Kind = TokKind::Star;
      break;
    case '/':
      Tok.Kind = TokKind::Slash;
      break;
    case '(':
      Tok.Kind = TokKind::LParen;
      break;
    case ')':
      Tok.Kind = TokKind::RParen;
      break;
    case ',':
      Tok.Kind = TokKind::Comma;
      break;
    default:
      Tok.Kind = TokKind::Invalid;
      break;
    }
    Tok.Spelling = std::string(1, C);
    Tokens.push_back(std::move(Tok));
  }
  Token EndTok;
  EndTok.Kind = TokKind::End;
  EndTok.Offset = N;
  Tokens.push_back(std::move(EndTok));
  return Tokens;
}
