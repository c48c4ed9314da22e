//===- support/Json.cpp - Minimal JSON reader/writer ----------------------===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <utility>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace petal;
using namespace petal::json;

//===----------------------------------------------------------------------===//
// Value
//===----------------------------------------------------------------------===//

void Value::push(Value V) {
  if (K == Kind::Null)
    K = Kind::Array;
  Elems.push_back(std::move(V));
}

void Value::set(std::string_view Name, Value V) {
  if (K == Kind::Null)
    K = Kind::Object;
  for (Member &M : Membs)
    if (M.first == Name) {
      M.second = std::move(V);
      return;
    }
  Membs.emplace_back(std::string(Name), std::move(V));
}

const Value *Value::find(std::string_view Name) const {
  if (K != Kind::Object)
    return nullptr;
  for (const Member &M : Membs)
    if (M.first == Name)
      return &M.second;
  return nullptr;
}

Value Value::take(std::string_view Name) {
  Value *V = const_cast<Value *>(find(Name));
  return V ? std::exchange(*V, Value()) : Value();
}

std::string Value::takeString(std::string_view Name) {
  Value *V = const_cast<Value *>(find(Name));
  return V && V->isString() ? std::move(V->StrV) : std::string();
}

bool Value::getBool(std::string_view Name, bool Default) const {
  const Value *V = find(Name);
  return V && V->isBool() ? V->boolValue() : Default;
}

double Value::getNumber(std::string_view Name, double Default) const {
  const Value *V = find(Name);
  return V && V->isNumber() ? V->numberValue() : Default;
}

int64_t Value::getInt(std::string_view Name, int64_t Default) const {
  const Value *V = find(Name);
  return V && V->isNumber() ? V->intValue() : Default;
}

std::string Value::getString(std::string_view Name,
                             std::string_view Default) const {
  const Value *V = find(Name);
  return V && V->isString() ? V->stringValue() : std::string(Default);
}

bool Value::operator==(const Value &O) const {
  if (K != O.K)
    return false;
  switch (K) {
  case Kind::Null:
    return true;
  case Kind::Bool:
    return BoolV == O.BoolV;
  case Kind::Number:
    return NumV == O.NumV;
  case Kind::String:
    return StrV == O.StrV;
  case Kind::Array:
    return Elems == O.Elems;
  case Kind::Object:
    return Membs == O.Membs;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Writer
//===----------------------------------------------------------------------===//

void json::escapeString(std::string_view S, std::string &Out) {
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\b':
      Out += "\\b";
      break;
    case '\f':
      Out += "\\f";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C; // UTF-8 bytes pass through unmodified
      }
    }
  }
}

static void writeNumber(double N, std::string &Out) {
  if (std::isfinite(N) && N == std::floor(N) && std::fabs(N) < 9.0e15) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%lld", static_cast<long long>(N));
    Out += Buf;
    return;
  }
  if (!std::isfinite(N)) { // not representable in JSON
    Out += "null";
    return;
  }
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", N);
  Out += Buf;
}

void Value::writeTo(std::string &Out) const {
  switch (K) {
  case Kind::Null:
    Out += "null";
    break;
  case Kind::Bool:
    Out += BoolV ? "true" : "false";
    break;
  case Kind::Number:
    writeNumber(NumV, Out);
    break;
  case Kind::String:
    Out += '"';
    escapeString(StrV, Out);
    Out += '"';
    break;
  case Kind::Array:
    Out += '[';
    for (size_t I = 0; I != Elems.size(); ++I) {
      if (I)
        Out += ',';
      Elems[I].writeTo(Out);
    }
    Out += ']';
    break;
  case Kind::Object:
    Out += '{';
    for (size_t I = 0; I != Membs.size(); ++I) {
      if (I)
        Out += ',';
      Out += '"';
      escapeString(Membs[I].first, Out);
      Out += "\":";
      Membs[I].second.writeTo(Out);
    }
    Out += '}';
    break;
  }
}

std::string Value::write() const {
  std::string Out;
  writeTo(Out);
  return Out;
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

namespace {

constexpr int MaxDepth = 64;

/// Recursive-descent parser over a string_view; Pos is the cursor.
struct Parser {
  std::string_view Text;
  size_t Pos = 0;
  std::string Error;

  bool fail(const std::string &Msg) {
    if (Error.empty())
      Error = "offset " + std::to_string(Pos) + ": " + Msg;
    return false;
  }

  bool atEnd() const { return Pos >= Text.size(); }
  char peek() const { return Text[Pos]; }

  void skipWs() {
    while (!atEnd() && (Text[Pos] == ' ' || Text[Pos] == '\t' ||
                        Text[Pos] == '\n' || Text[Pos] == '\r'))
      ++Pos;
  }

  bool consume(char C) {
    if (atEnd() || Text[Pos] != C)
      return false;
    ++Pos;
    return true;
  }

  bool parseLiteral(std::string_view Word) {
    if (Text.substr(Pos, Word.size()) != Word)
      return fail("invalid literal");
    Pos += Word.size();
    return true;
  }

  bool parseHex4(unsigned &Out) {
    if (Pos + 4 > Text.size())
      return fail("truncated \\u escape");
    Out = 0;
    for (int I = 0; I != 4; ++I) {
      char C = Text[Pos++];
      Out <<= 4;
      if (C >= '0' && C <= '9')
        Out |= static_cast<unsigned>(C - '0');
      else if (C >= 'a' && C <= 'f')
        Out |= static_cast<unsigned>(C - 'a' + 10);
      else if (C >= 'A' && C <= 'F')
        Out |= static_cast<unsigned>(C - 'A' + 10);
      else
        return fail("invalid \\u escape");
    }
    return true;
  }

  void appendUtf8(unsigned CP, std::string &Out) {
    if (CP < 0x80) {
      Out += static_cast<char>(CP);
    } else if (CP < 0x800) {
      Out += static_cast<char>(0xC0 | (CP >> 6));
      Out += static_cast<char>(0x80 | (CP & 0x3F));
    } else if (CP < 0x10000) {
      Out += static_cast<char>(0xE0 | (CP >> 12));
      Out += static_cast<char>(0x80 | ((CP >> 6) & 0x3F));
      Out += static_cast<char>(0x80 | (CP & 0x3F));
    } else {
      Out += static_cast<char>(0xF0 | (CP >> 18));
      Out += static_cast<char>(0x80 | ((CP >> 12) & 0x3F));
      Out += static_cast<char>(0x80 | ((CP >> 6) & 0x3F));
      Out += static_cast<char>(0x80 | (CP & 0x3F));
    }
  }

  bool parseString(std::string &Out) {
    if (!consume('"'))
      return fail("expected string");
    for (;;) {
      // Copy the run of plain characters up to the next quote, escape or
      // control character in one append.
      size_t Run = Pos;
      while (Pos < Text.size()) {
        unsigned char U = static_cast<unsigned char>(Text[Pos]);
        if (U == '"' || U == '\\' || U < 0x20)
          break;
        ++Pos;
      }
      Out.append(Text.data() + Run, Pos - Run);
      if (atEnd())
        return fail("unterminated string");
      char C = Text[Pos++];
      if (C == '"')
        return true;
      if (static_cast<unsigned char>(C) < 0x20)
        return fail("unescaped control character in string");
      // C is a backslash.
      if (atEnd())
        return fail("truncated escape");
      char E = Text[Pos++];
      switch (E) {
      case '"':
        Out += '"';
        break;
      case '\\':
        Out += '\\';
        break;
      case '/':
        Out += '/';
        break;
      case 'n':
        Out += '\n';
        break;
      case 't':
        Out += '\t';
        break;
      case 'r':
        Out += '\r';
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'u': {
        unsigned CP;
        if (!parseHex4(CP))
          return false;
        // Surrogate pair?
        if (CP >= 0xD800 && CP <= 0xDBFF && Pos + 1 < Text.size() &&
            Text[Pos] == '\\' && Text[Pos + 1] == 'u') {
          size_t Save = Pos;
          Pos += 2;
          unsigned Low;
          if (!parseHex4(Low))
            return false;
          if (Low >= 0xDC00 && Low <= 0xDFFF)
            CP = 0x10000 + ((CP - 0xD800) << 10) + (Low - 0xDC00);
          else
            Pos = Save; // lone high surrogate; emit as-is
        }
        appendUtf8(CP, Out);
        break;
      }
      default:
        return fail("invalid escape character");
      }
    }
  }

  bool parseNumber(Value &Out) {
    size_t Start = Pos;
    consume('-');
    if (atEnd() || !std::isdigit(static_cast<unsigned char>(peek())))
      return fail("invalid number");
    // JSON forbids leading zeros: "0" and "0.5" yes, "01" no.
    if (peek() == '0') {
      ++Pos;
      if (!atEnd() && std::isdigit(static_cast<unsigned char>(peek())))
        return fail("invalid number (leading zero)");
    }
    while (!atEnd() && std::isdigit(static_cast<unsigned char>(peek())))
      ++Pos;
    if (!atEnd() && peek() == '.') {
      ++Pos;
      if (atEnd() || !std::isdigit(static_cast<unsigned char>(peek())))
        return fail("invalid number");
      while (!atEnd() && std::isdigit(static_cast<unsigned char>(peek())))
        ++Pos;
    }
    if (!atEnd() && (peek() == 'e' || peek() == 'E')) {
      ++Pos;
      if (!atEnd() && (peek() == '+' || peek() == '-'))
        ++Pos;
      if (atEnd() || !std::isdigit(static_cast<unsigned char>(peek())))
        return fail("invalid number");
      while (!atEnd() && std::isdigit(static_cast<unsigned char>(peek())))
        ++Pos;
    }
    std::string Num(Text.substr(Start, Pos - Start));
    Out = Value(std::strtod(Num.c_str(), nullptr));
    return true;
  }

  bool parseValue(Value &Out, int Depth) {
    if (Depth > MaxDepth)
      return fail("nesting too deep");
    skipWs();
    if (atEnd())
      return fail("unexpected end of input");
    switch (peek()) {
    case 'n':
      Out = Value();
      return parseLiteral("null");
    case 't':
      Out = Value(true);
      return parseLiteral("true");
    case 'f':
      Out = Value(false);
      return parseLiteral("false");
    case '"': {
      std::string S;
      if (!parseString(S))
        return false;
      Out = Value(std::move(S));
      return true;
    }
    case '[': {
      ++Pos;
      Out = Value::array();
      skipWs();
      if (consume(']'))
        return true;
      for (;;) {
        Value Elem;
        if (!parseValue(Elem, Depth + 1))
          return false;
        Out.push(std::move(Elem));
        skipWs();
        if (consume(']'))
          return true;
        if (!consume(','))
          return fail("expected ',' or ']' in array");
      }
    }
    case '{': {
      ++Pos;
      Out = Value::object();
      skipWs();
      if (consume('}'))
        return true;
      for (;;) {
        skipWs();
        std::string Name;
        if (!parseString(Name))
          return false;
        skipWs();
        if (!consume(':'))
          return fail("expected ':' after object key");
        Value Member;
        if (!parseValue(Member, Depth + 1))
          return false;
        Out.set(Name, std::move(Member));
        skipWs();
        if (consume('}'))
          return true;
        if (!consume(','))
          return fail("expected ',' or '}' in object");
      }
    }
    default:
      return parseNumber(Out);
    }
  }
};

} // namespace

bool json::parse(std::string_view Text, Value &Out, std::string &Error) {
  Parser P{Text, 0, {}};
  if (!P.parseValue(Out, 0)) {
    Error = P.Error;
    return false;
  }
  P.skipWs();
  if (!P.atEnd()) {
    P.fail("trailing characters after value");
    Error = P.Error;
    return false;
  }
  return true;
}
