//===- support/Json.h - Minimal JSON reader/writer --------------*- C++ -*-===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small, self-contained JSON value type with a recursive-descent parser
/// and a deterministic writer, used by the completion service's JSON-RPC
/// transport (service/). Design points, in keeping with the rest of the
/// library:
///
///  * no exceptions — parsing returns an error message through an out
///    parameter instead of throwing;
///  * objects preserve insertion order (a vector of pairs, not a map), so
///    serialization is deterministic and responses are byte-stable across
///    runs — which the result cache and the bit-identical service bench
///    rely on;
///  * numbers are stored as double; JSON-RPC ids and protocol counters fit
///    in the 2^53 exact-integer range, and the writer prints integral
///    doubles without a fraction part so they round-trip textually.
///
//===----------------------------------------------------------------------===//

#ifndef PETAL_SUPPORT_JSON_H
#define PETAL_SUPPORT_JSON_H

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace petal {
namespace json {

/// Discriminator for Value.
enum class Kind { Null, Bool, Number, String, Array, Object };

/// One JSON value. Copyable, movable; arrays and objects own their
/// children by value.
class Value {
public:
  using Member = std::pair<std::string, Value>;

  Value() : K(Kind::Null) {}
  Value(std::nullptr_t) : K(Kind::Null) {}
  Value(bool B) : K(Kind::Bool), BoolV(B) {}
  Value(double N) : K(Kind::Number), NumV(N) {}
  Value(int N) : K(Kind::Number), NumV(N) {}
  Value(int64_t N) : K(Kind::Number), NumV(static_cast<double>(N)) {}
  Value(uint64_t N) : K(Kind::Number), NumV(static_cast<double>(N)) {}
  Value(const char *S) : K(Kind::String), StrV(S) {}
  Value(std::string S) : K(Kind::String), StrV(std::move(S)) {}
  Value(std::string_view S) : K(Kind::String), StrV(S) {}

  static Value array() {
    Value V;
    V.K = Kind::Array;
    return V;
  }
  static Value object() {
    Value V;
    V.K = Kind::Object;
    return V;
  }

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  bool boolValue() const { return BoolV; }
  double numberValue() const { return NumV; }
  int64_t intValue() const { return static_cast<int64_t>(NumV); }
  const std::string &stringValue() const { return StrV; }

  const std::vector<Value> &elements() const { return Elems; }
  const std::vector<Member> &members() const { return Membs; }

  /// Appends \p V to an array (the value must be an array).
  void push(Value V);

  /// Appends or overwrites member \p Name of an object (the value must be
  /// an object). Insertion order is preserved; overwriting keeps the
  /// original position.
  void set(std::string_view Name, Value V);

  /// Member lookup; null if absent or not an object.
  const Value *find(std::string_view Name) const;

  /// Moves member \p Name out of an object, leaving null in its place;
  /// null if absent or not an object.
  Value take(std::string_view Name);

  /// Moves the string out of member \p Name, leaving it empty; empty if
  /// absent or not a string.
  std::string takeString(std::string_view Name);

  /// Typed convenience getters over find(): the fallback is returned when
  /// the member is absent or has the wrong kind.
  bool getBool(std::string_view Name, bool Default) const;
  double getNumber(std::string_view Name, double Default) const;
  int64_t getInt(std::string_view Name, int64_t Default) const;
  std::string getString(std::string_view Name,
                        std::string_view Default = "") const;

  /// Serializes this value to compact JSON (no whitespace). Deterministic:
  /// object members in insertion order, integral numbers without fraction.
  std::string write() const;
  void writeTo(std::string &Out) const;

  bool operator==(const Value &O) const;
  bool operator!=(const Value &O) const { return !(*this == O); }

private:
  Kind K = Kind::Null;
  bool BoolV = false;
  double NumV = 0;
  std::string StrV;
  std::vector<Value> Elems;
  std::vector<Member> Membs;
};

/// Parses \p Text into \p Out. On failure returns false and describes the
/// problem in \p Error ("offset N: message"). Trailing non-whitespace after
/// the top-level value is an error; nesting depth is capped (64) to keep
/// the recursive parser safe on adversarial input.
bool parse(std::string_view Text, Value &Out, std::string &Error);

/// Escapes \p S as the inside of a JSON string literal (no surrounding
/// quotes), handling the two mandatory escapes plus control characters.
void escapeString(std::string_view S, std::string &Out);

} // namespace json
} // namespace petal

#endif // PETAL_SUPPORT_JSON_H
