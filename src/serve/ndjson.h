#ifndef SDADCS_SERVE_NDJSON_H_
#define SDADCS_SERVE_NDJSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace sdadcs::serve {

/// Minimal JSON document model for the newline-delimited protocol of
/// sdadcs_serve: one request object per line in, one response object per
/// line out. Hand-rolled (the repo takes no third-party deps); supports
/// the full JSON grammar except that numbers are always held as double
/// (ints up to 2^53 round-trip exactly, plenty for row counts and
/// budgets).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  /// Parses one complete JSON document; trailing garbage is an error.
  static util::StatusOr<JsonValue> Parse(std::string_view text);

  Kind kind() const { return kind_; }
  bool IsObject() const { return kind_ == Kind::kObject; }
  bool IsArray() const { return kind_ == Kind::kArray; }
  bool IsString() const { return kind_ == Kind::kString; }
  bool IsNumber() const { return kind_ == Kind::kNumber; }
  bool IsBool() const { return kind_ == Kind::kBool; }

  bool AsBool() const { return bool_; }
  double AsNumber() const { return number_; }
  const std::string& AsString() const { return string_; }
  const std::vector<JsonValue>& AsArray() const { return array_; }

  /// Object field lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;

  /// Typed object accessors with fallbacks (fallback also on wrong type).
  std::string GetString(const std::string& key,
                        const std::string& fallback = "") const;
  double GetNumber(const std::string& key, double fallback) const;
  int64_t GetInt(const std::string& key, int64_t fallback) const;
  bool GetBool(const std::string& key, bool fallback) const;
  /// The field as an array of strings ({} / absent / non-array → empty).
  std::vector<std::string> GetStringArray(const std::string& key) const;

 private:
  friend class JsonParser;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// Incremental writer for one flat-or-nested JSON object, rendered in
/// insertion order:
///
///   JsonObjectWriter w;
///   w.Add("ok", true).Add("rows", 1000).AddRaw("stats", nested.Str());
///   std::string line = w.Str();
class JsonObjectWriter {
 public:
  JsonObjectWriter& Add(const std::string& key, const std::string& value);
  JsonObjectWriter& Add(const std::string& key, const char* value);
  JsonObjectWriter& Add(const std::string& key, double value);
  JsonObjectWriter& Add(const std::string& key, int64_t value);
  JsonObjectWriter& Add(const std::string& key, uint64_t value);
  JsonObjectWriter& Add(const std::string& key, int value);
  JsonObjectWriter& Add(const std::string& key, bool value);
  /// Splices `json` (already-rendered JSON: object, array, number...).
  JsonObjectWriter& AddRaw(const std::string& key, const std::string& json);

  /// "{...}" with the fields in insertion order.
  std::string Str() const;

 private:
  JsonObjectWriter& AddRendered(const std::string& key, std::string rendered);

  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Renders a double the way the protocol expects: integral values without
/// a fraction ("3"), others shortest-round-trip-ish ("0.125"), non-finite
/// as null (JSON has no Inf/NaN).
std::string JsonNumber(double value);

}  // namespace sdadcs::serve

#endif  // SDADCS_SERVE_NDJSON_H_
