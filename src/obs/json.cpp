#include "obs/json.hpp"

#include <bit>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <ostream>
#include <sstream>
#include <string_view>

namespace mhp::obs {

namespace {

[[noreturn]] void type_error(const char* wanted) {
  throw std::logic_error(std::string("Json: value is not ") + wanted);
}

}  // namespace

Json::Json(unsigned long v) {
  if (v > static_cast<unsigned long>(std::numeric_limits<std::int64_t>::max()))
    throw std::overflow_error("Json: unsigned value exceeds int64 range");
  v_ = static_cast<std::int64_t>(v);
}

Json::Json(unsigned long long v) {
  if (v > static_cast<unsigned long long>(
              std::numeric_limits<std::int64_t>::max()))
    throw std::overflow_error("Json: unsigned value exceeds int64 range");
  v_ = static_cast<std::int64_t>(v);
}

bool Json::as_bool() const {
  if (!is_bool()) type_error("a bool");
  return std::get<bool>(v_);
}

std::int64_t Json::as_int() const {
  if (is_int()) return std::get<std::int64_t>(v_);
  if (type() == Type::kDouble) {
    const double d = std::get<double>(v_);
    // int64 covers [-2^63, 2^63); both bounds are exact doubles, and the
    // half-open test keeps the cast defined (2^63 itself must throw).
    // NaN fails the comparison and lands in out_of_range too.
    if (!(d >= -0x1p63 && d < 0x1p63))
      throw std::out_of_range("Json: double value outside int64 range");
    if (std::trunc(d) != d) type_error("an integer");
    return static_cast<std::int64_t>(d);
  }
  type_error("a number");
}

std::uint64_t Json::as_uint() const {
  const std::int64_t v = as_int();
  if (v < 0) throw std::out_of_range("Json: negative value read as uint");
  return static_cast<std::uint64_t>(v);
}

double Json::as_double() const {
  if (type() == Type::kDouble) return std::get<double>(v_);
  if (is_int()) return static_cast<double>(std::get<std::int64_t>(v_));
  type_error("a number");
}

const std::string& Json::as_string() const {
  if (!is_string()) type_error("a string");
  return std::get<std::string>(v_);
}

void Json::push_back(Json value) {
  if (is_null()) v_.emplace<Array>();
  if (!is_array()) type_error("an array");
  std::get<Array>(v_).push_back(std::move(value));
}

std::size_t Json::size() const {
  if (is_array()) return std::get<Array>(v_).size();
  if (is_object()) return std::get<Object>(v_).members.size();
  return 0;
}

const Json& Json::at(std::size_t index) const {
  if (!is_array()) type_error("an array");
  return std::get<Array>(v_).at(index);
}

std::size_t Json::Object::slot(std::string_view key) const {
  const Index& slots = *index;
  const std::size_t mask = slots.size() - 1;
  std::size_t i = std::hash<std::string_view>{}(key) & mask;
  while (slots[i] != 0 && members[slots[i] - 1].first != key)
    i = (i + 1) & mask;
  return i;
}

std::size_t Json::Object::position(std::string_view key) const {
  if (index == nullptr) {
    for (std::size_t i = 0; i < members.size(); ++i)
      if (members[i].first == key) return i;
    return members.size();
  }
  const std::uint32_t s = (*index)[slot(key)];
  return s != 0 ? s - 1 : members.size();
}

void Json::Object::push(std::string key, Json value) {
  members.emplace_back(std::move(key), std::move(value));
  std::size_t from = members.size() - 1;  // the members still to index
  if (index == nullptr || 2 * members.size() > index->size()) {
    if (members.size() < kIndexFrom) return;
    index = std::make_unique<Index>(std::bit_ceil(2 * members.size()));
    from = 0;
  }
  for (std::size_t k = from; k < members.size(); ++k) {
    std::uint32_t& s = (*index)[slot(members[k].first)];
    if (s == 0) s = static_cast<std::uint32_t>(k + 1);
  }
}

Json& Json::set(std::string key, Json value) & {
  if (is_null()) v_.emplace<Object>();
  if (!is_object()) type_error("an object");
  Object& object = std::get<Object>(v_);
  if (const std::size_t i = object.position(key); i < object.members.size())
    object.members[i].second = std::move(value);
  else
    object.push(std::move(key), std::move(value));
  return *this;
}

Json& Json::append(std::string key, Json value) {
  if (is_null()) v_.emplace<Object>();
  if (!is_object()) type_error("an object");
  std::get<Object>(v_).push(std::move(key), std::move(value));
  return *this;
}

const Json* Json::find(const std::string& key) const {
  if (!is_object()) return nullptr;
  const Object& object = std::get<Object>(v_);
  const std::size_t i = object.position(key);
  return i < object.members.size() ? &object.members[i].second : nullptr;
}

Json* Json::find(const std::string& key) {
  return const_cast<Json*>(static_cast<const Json*>(this)->find(key));
}

const Json& Json::at(const std::string& key) const {
  const Json* found = find(key);
  if (found == nullptr)
    throw std::out_of_range("Json: no key \"" + key + "\"");
  return *found;
}

const std::vector<std::pair<std::string, Json>>& Json::items() const {
  if (!is_object()) type_error("an object");
  return std::get<Object>(v_).members;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

void write_int(std::ostream& os, std::int64_t v) {
  // to_chars, not operator<<: a grouping std::locale imbued globally
  // would render 10000 as "10,000" through the stream.
  char buf[24];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  os << std::string_view(buf, static_cast<std::size_t>(end - buf));
  static_cast<void>(ec);  // int64 always fits in 24 chars
}

void write_double(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    // JSON has no inf/nan; null is the conventional stand-in.
    os << "null";
    return;
  }
  // to_chars(general, 17) is specified as printf "%.17g" in the C locale,
  // so the bytes match the old snprintf output everywhere while ignoring
  // the global locale's decimal point.
  char buf[40];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v,
                                       std::chars_format::general, 17);
  static_cast<void>(ec);  // 40 chars cover every %.17g rendering
  const std::string_view sv(buf, static_cast<std::size_t>(end - buf));
  os << sv;
  // Keep a number marker so the value parses back as a double.
  if (sv.find_first_of(".eE") == std::string_view::npos) os << ".0";
}

void write_newline_indent(std::ostream& os, int indent, int depth) {
  os << '\n';
  for (int i = 0; i < indent * depth; ++i) os << ' ';
}

}  // namespace

void Json::write_impl(std::ostream& os, int indent, int depth) const {
  switch (type()) {
    case Type::kNull:
      os << "null";
      break;
    case Type::kBool:
      os << (std::get<bool>(v_) ? "true" : "false");
      break;
    case Type::kInt:
      write_int(os, std::get<std::int64_t>(v_));
      break;
    case Type::kDouble:
      write_double(os, std::get<double>(v_));
      break;
    case Type::kString:
      os << '"' << json_escape(std::get<std::string>(v_)) << '"';
      break;
    case Type::kArray: {
      const Array& elements = std::get<Array>(v_);
      if (elements.empty()) {
        os << "[]";
        break;
      }
      os << '[';
      for (std::size_t i = 0; i < elements.size(); ++i) {
        if (i > 0) os << ',';
        if (indent >= 0) write_newline_indent(os, indent, depth + 1);
        elements[i].write_impl(os, indent, depth + 1);
      }
      if (indent >= 0) write_newline_indent(os, indent, depth);
      os << ']';
      break;
    }
    case Type::kObject: {
      const auto& members = std::get<Object>(v_).members;
      if (members.empty()) {
        os << "{}";
        break;
      }
      os << '{';
      bool first = true;
      for (const auto& [k, v] : members) {
        if (!first) os << ',';
        first = false;
        if (indent >= 0) write_newline_indent(os, indent, depth + 1);
        os << '"' << json_escape(k) << "\":";
        if (indent >= 0) os << ' ';
        v.write_impl(os, indent, depth + 1);
      }
      if (indent >= 0) write_newline_indent(os, indent, depth);
      os << '}';
      break;
    }
  }
}

void Json::write(std::ostream& os, int indent) const {
  write_impl(os, indent, 0);
}

std::string Json::dump(int indent) const {
  std::ostringstream os;
  write(os, indent);
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Json& value) {
  value.write(os);
  return os;
}

// ---------------------------------------------------------------- parser

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    // line:column (1-based) so editors can jump straight to the fault;
    // the byte offset is kept for tooling that indexes the raw text.
    std::size_t line = 1, column = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
    throw JsonParseError("JSON parse error at offset " +
                             std::to_string(pos_) + " (line " +
                             std::to_string(line) + ", column " +
                             std::to_string(column) + "): " + what,
                         pos_, line, column);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json parse_value() {
    skip_ws();
    switch (peek()) {
      case '{':
      case '[':
        return parse_container();
      case '"':
        return Json(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Json(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Json(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Json();
      default:
        return parse_number();
    }
  }

  /// An object or array one level deeper; the offset of a level past
  /// the cap is its opening bracket.
  Json parse_container() {
    if (++depth_ > kMaxJsonDepth)
      fail("nesting deeper than " + std::to_string(kMaxJsonDepth) + " levels");
    Json out = text_[pos_] == '{' ? parse_object() : parse_array();
    --depth_;
    return out;
  }

  Json parse_object() {
    expect('{');
    Json out = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return out;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      out.set(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return out;
    }
  }

  Json parse_array() {
    expect('[');
    Json out = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return out;
    }
    while (true) {
      out.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return out;
    }
  }

  std::string parse_string() {
    if (peek() != '"') fail("expected string");
    ++pos_;
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("short \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9')
              code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              fail("bad \\u escape");
          }
          // UTF-8 encode the BMP code point (we never emit surrogates).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail("unknown escape");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    bool is_double = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_double = true;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-'))
      fail("expected a value");
    // from_chars, not stod/stoll: locale-independent, no ERANGE throw on
    // subnormals, and the whole-token check below rejects malformed
    // shapes the scanner's character class admits ("1..2", "1e+5e-2",
    // "1e") instead of silently parsing a prefix.
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    if (is_double) {
      double v = 0.0;
      const auto [p, ec] = std::from_chars(first, last, v);
      if (p != last || ec != std::errc{})
        fail("bad number \"" + std::string(first, last) + "\"");
      return Json(v);
    }
    std::int64_t v = 0;
    const auto [p, ec] = std::from_chars(first, last, v);
    if (p != last || ec != std::errc{})
      fail("bad number \"" + std::string(first, last) + "\"");
    return Json(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // arrays and objects open at pos_
};

}  // namespace

Json parse_json(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace mhp::obs
