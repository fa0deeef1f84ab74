//===- MiniJson.cpp - Minimal JSON reader ---------------------------------===//
//
// Part of the lao perfbench package.
//
//===----------------------------------------------------------------------===//

#include "MiniJson.h"

#include <cctype>
#include <cstdlib>

namespace perfbench {

const JsonValue *JsonValue::get(const std::string &Key) const {
  for (const auto &[Name, V] : Fields)
    if (Name == Key)
      return &V;
  return nullptr;
}

uint64_t JsonValue::asU64() const {
  return K == Kind::Number ? std::strtoull(Text.c_str(), nullptr, 10) : 0;
}

double JsonValue::asDouble() const {
  return K == Kind::Number ? std::strtod(Text.c_str(), nullptr) : 0;
}

namespace {

class Parser {
public:
  explicit Parser(const std::string &S) : S(S) {}

  bool parse(JsonValue &Out) {
    if (!value(Out, 0))
      return false;
    skipSpace();
    return Pos == S.size();
  }

private:
  void skipSpace() {
    while (Pos < S.size() && (S[Pos] == ' ' || S[Pos] == '\n' ||
                              S[Pos] == '\t' || S[Pos] == '\r'))
      ++Pos;
  }

  bool literal(const char *Word) {
    size_t N = std::char_traits<char>::length(Word);
    if (S.compare(Pos, N, Word) != 0)
      return false;
    Pos += N;
    return true;
  }

  bool string(std::string &Out) {
    if (Pos >= S.size() || S[Pos] != '"')
      return false;
    ++Pos;
    while (Pos < S.size() && S[Pos] != '"') {
      char C = S[Pos++];
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (Pos >= S.size())
        return false;
      char E = S[Pos++];
      switch (E) {
      case 'n': Out += '\n'; break;
      case 't': Out += '\t'; break;
      case 'r': Out += '\r'; break;
      case 'b': Out += '\b'; break;
      case 'f': Out += '\f'; break;
      case 'u': {
        if (Pos + 4 > S.size())
          return false;
        unsigned long Code = std::strtoul(S.substr(Pos, 4).c_str(), nullptr,
                                          16);
        Pos += 4;
        Out += Code < 0x80 ? static_cast<char>(Code) : '?';
        break;
      }
      default: Out += E; break;
      }
    }
    if (Pos >= S.size())
      return false;
    ++Pos;
    return true;
  }

  bool value(JsonValue &Out, unsigned Depth) {
    if (Depth > 64)
      return false;
    skipSpace();
    if (Pos >= S.size())
      return false;
    char C = S[Pos];
    if (C == '{') {
      Out.K = JsonValue::Kind::Object;
      ++Pos;
      skipSpace();
      if (Pos < S.size() && S[Pos] == '}')
        return ++Pos, true;
      for (;;) {
        skipSpace();
        std::string Key;
        if (!string(Key))
          return false;
        skipSpace();
        if (Pos >= S.size() || S[Pos++] != ':')
          return false;
        JsonValue V;
        if (!value(V, Depth + 1))
          return false;
        Out.Fields.emplace_back(std::move(Key), std::move(V));
        skipSpace();
        if (Pos < S.size() && S[Pos] == ',') {
          ++Pos;
          continue;
        }
        return Pos < S.size() && S[Pos++] == '}';
      }
    }
    if (C == '[') {
      Out.K = JsonValue::Kind::Array;
      ++Pos;
      skipSpace();
      if (Pos < S.size() && S[Pos] == ']')
        return ++Pos, true;
      for (;;) {
        JsonValue V;
        if (!value(V, Depth + 1))
          return false;
        Out.Items.push_back(std::move(V));
        skipSpace();
        if (Pos < S.size() && S[Pos] == ',') {
          ++Pos;
          continue;
        }
        return Pos < S.size() && S[Pos++] == ']';
      }
    }
    if (C == '"') {
      Out.K = JsonValue::Kind::String;
      return string(Out.Text);
    }
    if (literal("true")) {
      Out.K = JsonValue::Kind::Bool;
      Out.B = true;
      return true;
    }
    if (literal("false")) {
      Out.K = JsonValue::Kind::Bool;
      return true;
    }
    if (literal("null"))
      return true;
    size_t Begin = Pos;
    while (Pos < S.size() &&
           (std::isdigit(static_cast<unsigned char>(S[Pos])) ||
            S[Pos] == '-' || S[Pos] == '+' || S[Pos] == '.' ||
            S[Pos] == 'e' || S[Pos] == 'E'))
      ++Pos;
    if (Pos == Begin)
      return false;
    Out.K = JsonValue::Kind::Number;
    Out.Text = S.substr(Begin, Pos - Begin);
    return true;
  }

  const std::string &S;
  size_t Pos = 0;
};

} // namespace

std::optional<JsonValue> parseJson(const std::string &Text) {
  JsonValue V;
  if (!Parser(Text).parse(V))
    return std::nullopt;
  return V;
}

} // namespace perfbench
