#include "common/flatjson.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace lifeguard::flatjson {

const Value* Value::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

void skip_ws(std::string_view s, std::size_t& i) {
  while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' ||
                          s[i] == '\r')) {
    ++i;
  }
}

bool scan_string(std::string_view s, std::size_t& i, std::string& out,
                 std::string& error) {
  if (i >= s.size() || s[i] != '"') {
    error = "expected '\"'";
    return false;
  }
  ++i;
  out.clear();
  while (i < s.size() && s[i] != '"') {
    char c = s[i++];
    if (c == '\\') {
      if (i >= s.size()) {
        error = "dangling escape";
        return false;
      }
      const char esc = s[i++];
      switch (esc) {
        case '"': c = '"'; break;
        case '\\': c = '\\'; break;
        case '/': c = '/'; break;
        case 'n': c = '\n'; break;
        case 'r': c = '\r'; break;
        case 't': c = '\t'; break;
        case 'u': {
          if (i + 4 > s.size()) {
            error = "truncated \\u escape";
            return false;
          }
          unsigned code = 0;
          for (int d = 0; d < 4; ++d) {
            const char hc = s[i++];
            code <<= 4;
            if (hc >= '0' && hc <= '9') code |= static_cast<unsigned>(hc - '0');
            else if (hc >= 'a' && hc <= 'f') code |= static_cast<unsigned>(hc - 'a' + 10);
            else if (hc >= 'A' && hc <= 'F') code |= static_cast<unsigned>(hc - 'A' + 10);
            else {
              error = "bad \\u escape";
              return false;
            }
          }
          // Artifacts only escape control characters; anything else is kept
          // as-is only when it fits one byte.
          if (code > 0xFF) {
            error = "unsupported \\u escape above 0xFF";
            return false;
          }
          c = static_cast<char>(code);
          break;
        }
        default:
          error = "unknown escape";
          return false;
      }
    }
    out += c;
  }
  if (i >= s.size()) {
    error = "unterminated string";
    return false;
  }
  ++i;  // closing quote
  return true;
}

bool scan_value(std::string_view s, std::size_t& i, Value& out,
                std::string& error);

bool scan_object(std::string_view s, std::size_t& i, Value& out,
                 std::string& error) {
  out.kind = Value::Kind::kObject;
  out.members.clear();
  if (i >= s.size() || s[i] != '{') {
    error = "expected '{'";
    return false;
  }
  ++i;
  skip_ws(s, i);
  if (i < s.size() && s[i] == '}') {
    ++i;
    return true;
  }
  while (true) {
    std::string key;
    skip_ws(s, i);
    if (!scan_string(s, i, key, error)) return false;
    skip_ws(s, i);
    if (i >= s.size() || s[i] != ':') {
      error = "expected ':' after key '" + key + "'";
      return false;
    }
    ++i;
    Value v;
    if (!scan_value(s, i, v, error)) return false;
    // Duplicate keys keep the first occurrence (matching the old
    // map::emplace behavior of the trace scanner).
    if (out.find(key) == nullptr) {
      out.members.emplace_back(std::move(key), std::move(v));
    }
    skip_ws(s, i);
    if (i < s.size() && s[i] == ',') {
      ++i;
      continue;
    }
    if (i < s.size() && s[i] == '}') {
      ++i;
      return true;
    }
    error = "expected ',' or '}'";
    return false;
  }
}

bool scan_value(std::string_view s, std::size_t& i, Value& out,
                std::string& error) {
  skip_ws(s, i);
  if (i >= s.size()) {
    error = "expected a value";
    return false;
  }
  if (s[i] == '"') {
    out.kind = Value::Kind::kString;
    return scan_string(s, i, out.text, error);
  }
  if (s[i] == '{') return scan_object(s, i, out, error);
  if (s[i] == 't' || s[i] == 'f') {
    const bool is_true = s.substr(i, 4) == "true";
    const bool is_false = s.substr(i, 5) == "false";
    if (!is_true && !is_false) {
      error = "bad literal";
      return false;
    }
    out.kind = Value::Kind::kBool;
    out.boolean = is_true;
    i += is_true ? 4 : 5;
    return true;
  }
  if (s[i] == '[') {
    ++i;
    out.kind = Value::Kind::kArray;
    out.array.clear();
    skip_ws(s, i);
    if (i < s.size() && s[i] == ']') {
      ++i;
      return true;
    }
    while (true) {
      Value element;
      if (!scan_value(s, i, element, error)) return false;
      out.array.push_back(std::move(element));
      skip_ws(s, i);
      if (i < s.size() && s[i] == ',') {
        ++i;
        continue;
      }
      if (i < s.size() && s[i] == ']') {
        ++i;
        return true;
      }
      error = "expected ',' or ']' in array";
      return false;
    }
  }
  // number
  const std::size_t start = i;
  while (i < s.size() && (std::isdigit(static_cast<unsigned char>(s[i])) ||
                          s[i] == '-' || s[i] == '+' || s[i] == '.' ||
                          s[i] == 'e' || s[i] == 'E')) {
    ++i;
  }
  if (i == start) {
    error = "expected a value";
    return false;
  }
  out.kind = Value::Kind::kNumber;
  out.text = std::string(s.substr(start, i - start));
  return true;
}

}  // namespace

bool parse(std::string_view text, Value& out, std::string& error) {
  std::size_t i = 0;
  skip_ws(text, i);
  if (i >= text.size() || text[i] != '{') {
    error = "expected '{'";
    return false;
  }
  if (!scan_object(text, i, out, error)) return false;
  skip_ws(text, i);
  if (i != text.size()) {
    error = "trailing content after the document";
    return false;
  }
  return true;
}

namespace {

/// Decimal digits, after one leading '-' when `negative_ok`. The strto*
/// parsers alone would also take a leading '+' or whitespace, and strtoull
/// reads "-1" as 2^64 - 1 without reporting a range error.
bool integer_spelling(const std::string& t, bool negative_ok) {
  std::size_t i = negative_ok && !t.empty() && t[0] == '-' ? 1 : 0;
  if (i == t.size()) return false;
  for (; i < t.size(); ++i) {
    if (t[i] < '0' || t[i] > '9') return false;
  }
  return true;
}

}  // namespace

bool get_i64(const Value& obj, const std::string& key, std::int64_t& out,
             std::string& error, bool required) {
  const Value* v = obj.find(key);
  if (v == nullptr) {
    if (required) error = "missing field '" + key + "'";
    return !required;
  }
  // Numbers arrive as raw tokens; seeds as strings — accept both.
  if (integer_spelling(v->text, /*negative_ok=*/true)) {
    errno = 0;
    const long long parsed = std::strtoll(v->text.c_str(), nullptr, 10);
    if (errno != ERANGE) {
      out = parsed;
      return true;
    }
  }
  error = "field '" + key + "' is not an integer";
  return false;
}

bool get_u64(const Value& obj, const std::string& key, std::uint64_t& out,
             std::string& error, bool required) {
  const Value* v = obj.find(key);
  if (v == nullptr) {
    if (required) error = "missing field '" + key + "'";
    return !required;
  }
  if (integer_spelling(v->text, /*negative_ok=*/false)) {
    errno = 0;
    const unsigned long long parsed =
        std::strtoull(v->text.c_str(), nullptr, 10);
    if (errno != ERANGE) {
      out = parsed;
      return true;
    }
  }
  error = "field '" + key + "' is not an unsigned integer";
  return false;
}

bool get_dbl(const Value& obj, const std::string& key, double& out,
             std::string& error, bool required) {
  const Value* v = obj.find(key);
  if (v == nullptr) {
    if (required) error = "missing field '" + key + "'";
    return !required;
  }
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(v->text.c_str(), &end);
  if (v->text.empty() || end != v->text.c_str() + v->text.size() ||
      errno == ERANGE) {
    error = "field '" + key + "' is not a number";
    return false;
  }
  out = parsed;
  return true;
}

bool get_str(const Value& obj, const std::string& key, std::string& out,
             std::string& error, bool required) {
  const Value* v = obj.find(key);
  if (v == nullptr) {
    if (required) error = "missing string field '" + key + "'";
    return !required;
  }
  if (v->kind != Value::Kind::kString) {
    error = "field '" + key + "' is not a string";
    return false;
  }
  out = v->text;
  return true;
}

bool get_bool(const Value& obj, const std::string& key, bool& out,
              std::string& error, bool required) {
  const Value* v = obj.find(key);
  if (v == nullptr) {
    if (required) error = "missing field '" + key + "'";
    return !required;
  }
  if (v->kind != Value::Kind::kBool) {
    error = "field '" + key + "' is not a boolean";
    return false;
  }
  out = v->boolean;
  return true;
}

bool get_string_array(const Value& obj, const std::string& key,
                      std::vector<std::string>& out, std::string& error,
                      bool required) {
  const Value* v = obj.find(key);
  if (v == nullptr) {
    if (required) error = "missing array field '" + key + "'";
    return !required;
  }
  if (v->kind != Value::Kind::kArray) {
    error = "field '" + key + "' is not an array";
    return false;
  }
  out.clear();
  out.reserve(v->array.size());
  for (const Value& e : v->array) {
    if (e.kind != Value::Kind::kString) {
      error = "array '" + key + "' holds a non-string element";
      return false;
    }
    out.push_back(e.text);
  }
  return true;
}

}  // namespace lifeguard::flatjson
