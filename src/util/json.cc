#include "src/util/json.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace juggler {

namespace {
const std::string kEmptyString;
}  // namespace

Json Json::Bool(bool v) {
  Json j;
  j.kind_ = Kind::kBool;
  j.bool_ = v;
  return j;
}

Json Json::Int(int64_t v) {
  Json j;
  j.kind_ = Kind::kInt;
  j.int_ = v;
  return j;
}

Json Json::Uint(uint64_t v) {
  Json j;
  j.kind_ = Kind::kUint;
  j.uint_ = v;
  return j;
}

Json Json::Double(double v) {
  Json j;
  j.kind_ = Kind::kDouble;
  j.double_ = v;
  return j;
}

Json Json::Str(std::string v) {
  Json j;
  j.kind_ = Kind::kString;
  j.string_ = std::move(v);
  return j;
}

Json Json::Array() {
  Json j;
  j.kind_ = Kind::kArray;
  return j;
}

Json Json::Object() {
  Json j;
  j.kind_ = Kind::kObject;
  return j;
}

bool Json::AsBool(bool fallback) const {
  return kind_ == Kind::kBool ? bool_ : fallback;
}

int64_t Json::AsInt(int64_t fallback) const {
  switch (kind_) {
    case Kind::kInt:
      return int_;
    case Kind::kUint:
      return static_cast<int64_t>(uint_);
    case Kind::kDouble:
      return static_cast<int64_t>(double_);
    default:
      return fallback;
  }
}

uint64_t Json::AsUint(uint64_t fallback) const {
  switch (kind_) {
    case Kind::kInt:
      return int_ < 0 ? fallback : static_cast<uint64_t>(int_);
    case Kind::kUint:
      return uint_;
    case Kind::kDouble:
      return double_ < 0 ? fallback : static_cast<uint64_t>(double_);
    default:
      return fallback;
  }
}

double Json::AsDouble(double fallback) const {
  switch (kind_) {
    case Kind::kInt:
      return static_cast<double>(int_);
    case Kind::kUint:
      return static_cast<double>(uint_);
    case Kind::kDouble:
      return double_;
    default:
      return fallback;
  }
}

const std::string& Json::AsString() const {
  return kind_ == Kind::kString ? string_ : kEmptyString;
}

const Json* Json::Find(const std::string& key) const {
  if (kind_ != Kind::kObject) {
    return nullptr;
  }
  for (const auto& [k, v] : members_) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

Json& Json::Set(std::string key, Json value) {
  if (kind_ == Kind::kNull) {
    kind_ = Kind::kObject;
  }
  for (auto& [k, v] : members_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  members_.emplace_back(std::move(key), std::move(value));
  return *this;
}

Json& Json::Push(Json value) {
  if (kind_ == Kind::kNull) {
    kind_ = Kind::kArray;
  }
  items_.push_back(std::move(value));
  return *this;
}

bool Json::GetBool(const std::string& key, bool* out) const {
  const Json* v = Find(key);
  if (v == nullptr) {
    return true;
  }
  if (v->kind_ != Kind::kBool) {
    return false;
  }
  *out = v->bool_;
  return true;
}

bool Json::GetDouble(const std::string& key, double* out) const {
  const Json* v = Find(key);
  if (v == nullptr) {
    return true;
  }
  if (!v->is_number()) {
    return false;
  }
  *out = v->AsDouble();
  return true;
}

bool Json::GetString(const std::string& key, std::string* out) const {
  const Json* v = Find(key);
  if (v == nullptr) {
    return true;
  }
  if (v->kind_ != Kind::kString) {
    return false;
  }
  *out = v->string_;
  return true;
}

// ------------------------------------------------------------ serializing --

namespace {

void EscapeString(const std::string& s, std::string* out) {
  out->push_back('"');
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\b':
        out->append("\\b");
        break;
      case '\f':
        out->append("\\f");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(static_cast<char>(c));
        }
    }
  }
  out->push_back('"');
}

void Newline(std::string* out, int indent, int depth) {
  if (indent >= 0) {
    out->push_back('\n');
    out->append(static_cast<size_t>(indent) * static_cast<size_t>(depth), ' ');
  }
}

}  // namespace

void Json::DumpTo(std::string* out, int indent, int depth) const {
  char buf[40];
  switch (kind_) {
    case Kind::kNull:
      out->append("null");
      return;
    case Kind::kBool:
      out->append(bool_ ? "true" : "false");
      return;
    case Kind::kInt:
      std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(int_));
      out->append(buf);
      return;
    case Kind::kUint:
      std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(uint_));
      out->append(buf);
      return;
    case Kind::kDouble:
      // %.17g survives a parse round trip for every finite double.
      std::snprintf(buf, sizeof buf, "%.17g", double_);
      out->append(buf);
      return;
    case Kind::kString:
      EscapeString(string_, out);
      return;
    case Kind::kArray: {
      if (items_.empty()) {
        out->append("[]");
        return;
      }
      out->push_back('[');
      for (size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) {
          out->push_back(',');
        }
        Newline(out, indent, depth + 1);
        items_[i].DumpTo(out, indent, depth + 1);
      }
      Newline(out, indent, depth);
      out->push_back(']');
      return;
    }
    case Kind::kObject: {
      if (members_.empty()) {
        out->append("{}");
        return;
      }
      out->push_back('{');
      for (size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) {
          out->push_back(',');
        }
        Newline(out, indent, depth + 1);
        EscapeString(members_[i].first, out);
        out->push_back(':');
        if (indent >= 0) {
          out->push_back(' ');
        }
        members_[i].second.DumpTo(out, indent, depth + 1);
      }
      Newline(out, indent, depth);
      out->push_back('}');
      return;
    }
  }
}

std::string Json::Dump(int indent) const {
  std::string out;
  DumpTo(&out, indent, 0);
  return out;
}

// --------------------------------------------------------------- parsing --

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool Parse(Json* out, std::string* error) {
    SkipWs();
    if (!ParseValue(out, 0)) {
      if (error != nullptr) {
        *error = error_ + " at byte " + std::to_string(pos_);
      }
      return false;
    }
    SkipWs();
    if (pos_ != text_.size()) {
      if (error != nullptr) {
        *error = "trailing characters at byte " + std::to_string(pos_);
      }
      return false;
    }
    return true;
  }

 private:
  static constexpr int kMaxDepth = 64;

  bool Fail(const char* what) {
    if (error_.empty()) {
      error_ = what;
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
        break;
      }
      ++pos_;
    }
  }

  bool Literal(const char* word, size_t len) {
    if (text_.size() - pos_ < len || text_.compare(pos_, len, word) != 0) {
      return Fail("invalid literal");
    }
    pos_ += len;
    return true;
  }

  bool ParseValue(Json* out, int depth) {
    if (depth > kMaxDepth) {
      return Fail("nesting too deep");
    }
    if (pos_ >= text_.size()) {
      return Fail("unexpected end of input");
    }
    switch (text_[pos_]) {
      case 'n':
        *out = Json::Null();
        return Literal("null", 4);
      case 't':
        *out = Json::Bool(true);
        return Literal("true", 4);
      case 'f':
        *out = Json::Bool(false);
        return Literal("false", 5);
      case '"': {
        std::string s;
        if (!ParseString(&s)) {
          return false;
        }
        *out = Json::Str(std::move(s));
        return true;
      }
      case '[':
        return ParseArray(out, depth);
      case '{':
        return ParseObject(out, depth);
      default:
        return ParseNumber(out);
    }
  }

  bool ParseArray(Json* out, int depth) {
    ++pos_;  // '['
    *out = Json::Array();
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      Json item;
      SkipWs();
      if (!ParseValue(&item, depth + 1)) {
        return false;
      }
      out->Push(std::move(item));
      SkipWs();
      if (pos_ >= text_.size()) {
        return Fail("unterminated array");
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or ']'");
    }
  }

  bool ParseObject(Json* out, int depth) {
    ++pos_;  // '{'
    *out = Json::Object();
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected object key");
      }
      std::string key;
      if (!ParseString(&key)) {
        return false;
      }
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Fail("expected ':'");
      }
      ++pos_;
      SkipWs();
      Json value;
      if (!ParseValue(&value, depth + 1)) {
        return false;
      }
      out->Set(std::move(key), std::move(value));
      SkipWs();
      if (pos_ >= text_.size()) {
        return Fail("unterminated object");
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or '}'");
    }
  }

  bool HexQuad(uint32_t* out) {
    if (text_.size() - pos_ < 4) {
      return Fail("truncated \\u escape");
    }
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<size_t>(i)];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Fail("bad hex digit in \\u escape");
      }
    }
    pos_ += 4;
    *out = v;
    return true;
  }

  static void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool ParseString(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("raw control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        ++pos_;
        continue;
      }
      ++pos_;
      if (pos_ >= text_.size()) {
        break;
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '/':
          out->push_back('/');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          uint32_t cp = 0;
          if (!HexQuad(&cp)) {
            return false;
          }
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: must be followed by \uDC00-\uDFFF.
            if (text_.size() - pos_ < 2 || text_[pos_] != '\\' || text_[pos_ + 1] != 'u') {
              return Fail("unpaired surrogate");
            }
            pos_ += 2;
            uint32_t lo = 0;
            if (!HexQuad(&lo)) {
              return false;
            }
            if (lo < 0xDC00 || lo > 0xDFFF) {
              return Fail("invalid low surrogate");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Fail("unpaired surrogate");
          }
          AppendUtf8(cp, out);
          break;
        }
        default:
          return Fail("bad escape");
      }
    }
    return Fail("unterminated string");
  }

  bool ParseNumber(Json* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    bool integral = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start || (text_[start] == '-' && pos_ == start + 1)) {
      return Fail("invalid number");
    }
    const std::string token(text_.substr(start, pos_ - start));
    errno = 0;
    if (integral) {
      char* end = nullptr;
      if (token[0] == '-') {
        const long long v = std::strtoll(token.c_str(), &end, 10);
        if (errno != ERANGE && end != nullptr && *end == '\0') {
          *out = Json::Int(v);
          return true;
        }
      } else {
        const unsigned long long v = std::strtoull(token.c_str(), &end, 10);
        if (errno != ERANGE && end != nullptr && *end == '\0') {
          *out = Json::Uint(v);
          return true;
        }
      }
      errno = 0;  // overflowed the 64-bit range: fall back to double
    }
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0' || !std::isfinite(d)) {
      return Fail("invalid number");
    }
    *out = Json::Double(d);
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::string error_;
};

}  // namespace

bool Json::Parse(std::string_view text, Json* out, std::string* error) {
  return Parser(text).Parse(out, error);
}

}  // namespace juggler
