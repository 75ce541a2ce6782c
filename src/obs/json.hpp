// Dependency-free JSON layer for the observability exporters: a value
// tree (Json), a deterministic writer, and a strict parser.
//
// Objects preserve insertion order so serialized reports diff cleanly
// run to run.  Numbers distinguish integers from doubles: counters
// round-trip exactly, doubles print with max_digits10 so parsing the
// output reproduces the bit pattern.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace mhp::obs {

class JsonParseError : public std::runtime_error {
 public:
  /// `offset` is the byte position the parser stopped at; `line`/`column`
  /// are 1-based and derived from it, so editors can jump to the fault.
  explicit JsonParseError(const std::string& what, std::size_t offset = 0,
                          std::size_t line = 1, std::size_t column = 1)
      : std::runtime_error(what),
        offset_(offset),
        line_(line),
        column_(column) {}

  std::size_t offset() const { return offset_; }
  std::size_t line() const { return line_; }
  std::size_t column() const { return column_; }

 private:
  std::size_t offset_ = 0;
  std::size_t line_ = 1;
  std::size_t column_ = 1;
};

class Json {
 public:
  /// In the order of the variant's alternatives: type() is its index.
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Json() = default;  // null
  Json(bool b) : v_(b) {}
  Json(int v) : v_(std::int64_t{v}) {}
  Json(long v) : v_(std::int64_t{v}) {}
  Json(long long v) : v_(std::int64_t{v}) {}
  Json(unsigned v) : v_(std::int64_t{v}) {}
  /// Counters are uint64; values beyond int64 are unrepresentable in the
  /// common JSON integer range and throw rather than silently wrap.
  Json(unsigned long v);
  Json(unsigned long long v);
  Json(double v) : v_(v) {}
  Json(const char* s) : v_(std::in_place_type<std::string>, s) {}
  Json(std::string s) : v_(std::move(s)) {}
  Json(std::string_view s) : v_(std::in_place_type<std::string>, s) {}

  static Json array() {
    Json j;
    j.v_.emplace<Array>();
    return j;
  }
  static Json object() {
    Json j;
    j.v_.emplace<Object>();
    return j;
  }

  Type type() const { return static_cast<Type>(v_.index()); }
  bool is_null() const { return type() == Type::kNull; }
  bool is_bool() const { return type() == Type::kBool; }
  bool is_int() const { return type() == Type::kInt; }
  bool is_number() const { return is_int() || type() == Type::kDouble; }
  bool is_string() const { return type() == Type::kString; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_object() const { return type() == Type::kObject; }

  bool as_bool() const;
  std::int64_t as_int() const;
  std::uint64_t as_uint() const;
  /// Numeric value of either number flavour.
  double as_double() const;
  const std::string& as_string() const;

  // --- array ---
  void push_back(Json value);
  std::size_t size() const;  // array/object element count
  const Json& at(std::size_t index) const;

  // --- object (insertion-ordered) ---
  /// Insert or overwrite; returns *this so reports chain .set() calls.
  /// On a temporary the chain stays an rvalue, so
  /// `return Json::object().set(..)...;` moves the tree it built.
  Json& set(std::string key, Json value) &;
  Json&& set(std::string key, Json value) && {
    return std::move(set(std::move(key), std::move(value)));
  }
  /// Insert a key the caller knows is absent (the keys of a std::map, say)
  /// without looking it up first.
  Json& append(std::string key, Json value);
  /// nullptr when absent (or not an object).
  const Json* find(const std::string& key) const;
  /// Mutable lookup for in-place patching (campaign sweep overrides).
  Json* find(const std::string& key);
  /// Throws std::out_of_range when absent.
  const Json& at(const std::string& key) const;
  const std::vector<std::pair<std::string, Json>>& items() const;

  /// Serialize.  indent < 0 → compact single line; otherwise pretty-print
  /// with `indent` spaces per level.
  void write(std::ostream& os, int indent = -1) const;
  std::string dump(int indent = -1) const;

 private:
  using Array = std::vector<Json>;
  using Index = std::vector<std::uint32_t>;

  /// Members in insertion order.  From kIndexFrom members on, `index`
  /// holds their positions + 1 in an open-addressing table (0 = empty,
  /// power-of-two size, at most half full), so a lookup costs O(1) and
  /// k sets O(k) rather than O(k²).  A key's first member wins a lookup.
  struct Object {
    static constexpr std::size_t kIndexFrom = 16;
    std::vector<std::pair<std::string, Json>> members;
    std::unique_ptr<Index> index;

    Object() = default;
    Object(const Object& o)
        : members(o.members),
          index(o.index ? std::make_unique<Index>(*o.index) : nullptr) {}
    Object& operator=(const Object& o) { return *this = Object(o); }
    Object(Object&&) noexcept = default;
    Object& operator=(Object&&) noexcept = default;

    /// The position of `key`'s first member, or members.size().
    std::size_t position(std::string_view key) const;
    void push(std::string key, Json value);
    /// The index slot holding `key`, or the empty slot where it belongs.
    std::size_t slot(std::string_view key) const;
  };
  // Vector plus pointer: an object node is no larger than a string node.
  static_assert(sizeof(Object) <= sizeof(std::string));

  void write_impl(std::ostream& os, int indent, int depth) const;

  // A node costs its largest alternative (a std::string) plus the index.
  // A copy is deep; a moved-from value keeps its alternative, so its type.
  std::variant<std::monostate, bool, std::int64_t, double, std::string,
               Array, Object>
      v_;
};

/// JSON string escaping (quotes, backslash, control characters).
std::string json_escape(std::string_view s);

/// The deepest nesting of arrays and objects parse_json accepts.  The
/// parser recurses once per level, so the cap bounds its stack use.
inline constexpr std::size_t kMaxJsonDepth = 256;

/// Strict parse of one JSON document (trailing non-whitespace is an
/// error; so is nesting deeper than kMaxJsonDepth).  Throws
/// JsonParseError with position information.
Json parse_json(std::string_view text);

std::ostream& operator<<(std::ostream& os, const Json& value);

}  // namespace mhp::obs
