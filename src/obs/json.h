// Minimal JSON value type, serializer, and parser.
//
// This exists so that (a) the exporters build documents that are valid by
// construction and serialize deterministically — objects are std::map, so
// keys come out sorted; numbers use a fixed format — and (b) the inspection
// tools (tools/evc_trace, tools/evc_bench_check) can read those documents
// back without an external dependency. It is not a general-purpose JSON
// library: no \uXXXX escapes beyond ASCII round-tripping, no streaming.

#ifndef EVC_OBS_JSON_H_
#define EVC_OBS_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace evc::obs {

/// A JSON document node. Value-semantic; objects keep keys sorted.
class Json {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };
  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;

  Json() : type_(Type::kNull) {}
  Json(bool b) : type_(Type::kBool), bool_(b) {}
  Json(int v) : type_(Type::kInt), int_(v) {}
  Json(int64_t v) : type_(Type::kInt), int_(v) {}
  Json(uint64_t v) : type_(Type::kInt), int_(static_cast<int64_t>(v)) {}
  Json(double v) : type_(Type::kDouble), double_(v) {}
  Json(const char* s) : type_(Type::kString), string_(s) {}
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  Json(Array a) : type_(Type::kArray), array_(std::move(a)) {}
  Json(Object o) : type_(Type::kObject), object_(std::move(o)) {}

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const {
    return type_ == Type::kInt || type_ == Type::kDouble;
  }
  bool is_int() const { return type_ == Type::kInt; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  int64_t AsInt() const {
    return type_ == Type::kDouble ? static_cast<int64_t>(double_) : int_;
  }
  double AsDouble() const {
    return type_ == Type::kInt ? static_cast<double>(int_) : double_;
  }
  const std::string& AsString() const { return string_; }
  const Array& AsArray() const { return array_; }
  Array& AsArray() { return array_; }
  const Object& AsObject() const { return object_; }
  Object& AsObject() { return object_; }

  /// Object field access; creates the field (as null) on mutable access.
  Json& operator[](const std::string& key) { return object_[key]; }
  /// Returns the field or nullptr when absent / not an object.
  const Json* Find(const std::string& key) const;

  void push_back(Json v) { array_.push_back(std::move(v)); }

  /// Serializes deterministically. `indent` < 0 emits compact single-line
  /// JSON; >= 0 pretty-prints with that many spaces per level.
  std::string Dump(int indent = -1) const;

  /// Parses a complete JSON document (rejects trailing garbage).
  static Result<Json> Parse(std::string_view text);

 private:
  void DumpTo(std::string* out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

}  // namespace evc::obs

#endif  // EVC_OBS_JSON_H_
