#include "serve/ndjson.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/string_util.h"

namespace sdadcs::serve {

namespace {

bool IsJsonSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

}  // namespace

/// Recursive-descent parser over a string_view with a depth cap (a
/// protocol line is shallow; the cap turns pathological nesting into an
/// error instead of a stack overflow).
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  util::StatusOr<JsonValue> Run() {
    JsonValue v;
    SDADCS_RETURN_IF_ERROR(ParseValue(&v, 0));
    SkipSpace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return v;
  }

 private:
  static constexpr int kMaxDepth = 32;

  util::Status Error(const std::string& what) const {
    return util::Status::InvalidArgument(
        "json: " + what + " at offset " + std::to_string(pos_));
  }

  void SkipSpace() {
    while (pos_ < text_.size() && IsJsonSpace(text_[pos_])) ++pos_;
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  util::Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipSpace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    char c = text_[pos_];
    if (c == '{') return ParseObject(out, depth);
    if (c == '[') return ParseArray(out, depth);
    if (c == '"') {
      out->kind_ = JsonValue::Kind::kString;
      return ParseString(&out->string_);
    }
    if (ConsumeWord("null")) {
      out->kind_ = JsonValue::Kind::kNull;
      return util::Status::OK();
    }
    if (ConsumeWord("true")) {
      out->kind_ = JsonValue::Kind::kBool;
      out->bool_ = true;
      return util::Status::OK();
    }
    if (ConsumeWord("false")) {
      out->kind_ = JsonValue::Kind::kBool;
      out->bool_ = false;
      return util::Status::OK();
    }
    return ParseNumber(out);
  }

  util::Status ParseObject(JsonValue* out, int depth) {
    Consume('{');
    out->kind_ = JsonValue::Kind::kObject;
    SkipSpace();
    if (Consume('}')) return util::Status::OK();
    while (true) {
      SkipSpace();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      SDADCS_RETURN_IF_ERROR(ParseString(&key));
      SkipSpace();
      if (!Consume(':')) return Error("expected ':'");
      JsonValue value;
      SDADCS_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      out->object_.emplace_back(std::move(key), std::move(value));
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume('}')) return util::Status::OK();
      return Error("expected ',' or '}'");
    }
  }

  util::Status ParseArray(JsonValue* out, int depth) {
    Consume('[');
    out->kind_ = JsonValue::Kind::kArray;
    SkipSpace();
    if (Consume(']')) return util::Status::OK();
    while (true) {
      JsonValue value;
      SDADCS_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      out->array_.push_back(std::move(value));
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume(']')) return util::Status::OK();
      return Error("expected ',' or ']'");
    }
  }

  util::Status ParseString(std::string* out) {
    Consume('"');
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return util::Status::OK();
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("raw control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      char e = text_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            if (pos_ >= text_.size()) return Error("truncated \\u escape");
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return Error("bad \\u escape");
          }
          // BMP code point → UTF-8 (surrogate pairs are rejected; the
          // protocol has no use for astral-plane payloads).
          if (code >= 0xD800 && code <= 0xDFFF) {
            return Error("surrogate \\u escape unsupported");
          }
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Error("bad escape character");
      }
    }
    return Error("unterminated string");
  }

  util::Status ParseNumber(JsonValue* out) {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected a value");
    auto parsed = util::ParseDouble(text_.substr(start, pos_ - start));
    if (!parsed.has_value()) return Error("malformed number");
    out->kind_ = JsonValue::Kind::kNumber;
    out->number_ = *parsed;
    return util::Status::OK();
  }

  std::string_view text_;
  size_t pos_ = 0;
};

util::StatusOr<JsonValue> JsonValue::Parse(std::string_view text) {
  return JsonParser(text).Run();
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string JsonValue::GetString(const std::string& key,
                                 const std::string& fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->IsString()) ? v->string_ : fallback;
}

double JsonValue::GetNumber(const std::string& key, double fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->IsNumber()) ? v->number_ : fallback;
}

int64_t JsonValue::GetInt(const std::string& key, int64_t fallback) const {
  const JsonValue* v = Find(key);
  if (v == nullptr || !v->IsNumber()) return fallback;
  return static_cast<int64_t>(v->number_);
}

bool JsonValue::GetBool(const std::string& key, bool fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->IsBool()) ? v->bool_ : fallback;
}

std::vector<std::string> JsonValue::GetStringArray(
    const std::string& key) const {
  std::vector<std::string> out;
  const JsonValue* v = Find(key);
  if (v == nullptr || !v->IsArray()) return out;
  for (const JsonValue& item : v->array_) {
    if (item.IsString()) out.push_back(item.AsString());
  }
  return out;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    return util::StrFormat("%.0f", value);
  }
  std::string s = util::StrFormat("%.12g", value);
  return s;
}

JsonObjectWriter& JsonObjectWriter::AddRendered(const std::string& key,
                                                std::string rendered) {
  fields_.emplace_back(key, std::move(rendered));
  return *this;
}

JsonObjectWriter& JsonObjectWriter::Add(const std::string& key,
                                        const std::string& value) {
  // Built with += (not operator+ chains): GCC 12's -Wrestrict false
  // positive fires on `const char* + std::string&&`.
  std::string rendered = "\"";
  rendered += util::JsonEscape(value);
  rendered += '"';
  return AddRendered(key, std::move(rendered));
}

JsonObjectWriter& JsonObjectWriter::Add(const std::string& key,
                                        const char* value) {
  return Add(key, std::string(value));
}

JsonObjectWriter& JsonObjectWriter::Add(const std::string& key, double value) {
  return AddRendered(key, JsonNumber(value));
}

JsonObjectWriter& JsonObjectWriter::Add(const std::string& key,
                                        int64_t value) {
  return AddRendered(key, std::to_string(value));
}

JsonObjectWriter& JsonObjectWriter::Add(const std::string& key,
                                        uint64_t value) {
  return AddRendered(key, std::to_string(value));
}

JsonObjectWriter& JsonObjectWriter::Add(const std::string& key, int value) {
  return AddRendered(key, std::to_string(value));
}

JsonObjectWriter& JsonObjectWriter::Add(const std::string& key, bool value) {
  return AddRendered(key, value ? "true" : "false");
}

JsonObjectWriter& JsonObjectWriter::AddRaw(const std::string& key,
                                           const std::string& json) {
  return AddRendered(key, json);
}

std::string JsonObjectWriter::Str() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ",";
    out += '"';
    out += util::JsonEscape(fields_[i].first);
    out += "\":";
    out += fields_[i].second;
  }
  out += "}";
  return out;
}

}  // namespace sdadcs::serve
