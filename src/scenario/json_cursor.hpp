// Internal helper for the scenario/campaign parsers: a strict,
// path-tracking reader over one obs::Json object.
//
// Every getter records the key it consumed; finish() then rejects any
// key that was never consumed ("scenario.protocol.oracl_order: unknown
// key"), which is how the schema stays closed without maintaining a
// separate allow-list.  All errors are ScenarioError with the dotted
// path of the offending field as the message prefix.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "scenario/scenario.hpp"

namespace mhp::scenario {

inline const char* json_type_name(obs::Json::Type t) {
  switch (t) {
    case obs::Json::Type::kNull:
      return "null";
    case obs::Json::Type::kBool:
      return "boolean";
    case obs::Json::Type::kInt:
      return "integer";
    case obs::Json::Type::kDouble:
      return "number";
    case obs::Json::Type::kString:
      return "string";
    case obs::Json::Type::kArray:
      return "array";
    case obs::Json::Type::kObject:
      return "object";
  }
  return "?";
}

/// One row of an enum's name table: the schema spells each enum value
/// exactly once, and both the reader and the writer look it up here.
template <typename E>
struct EnumName {
  const char* name;
  E value;
};

class ObjectReader {
 public:
  /// `path` is the dotted location of `node` ("scenario.protocol").
  ObjectReader(const obs::Json& node, std::string path)
      : node_(node), path_(std::move(path)) {
    if (!node_.is_object())
      throw ScenarioError(path_ + ": expected object, got " +
                          json_type_name(node_.type()));
  }

  const std::string& path() const { return path_; }

  bool has(const std::string& key) const {
    return node_.find(key) != nullptr;
  }

  [[noreturn]] void error(const std::string& key,
                          const std::string& what) const {
    throw ScenarioError(path_ + "." + key + ": " + what);
  }

  /// Consume `key` without reading it (sections handled elsewhere).
  const obs::Json* take(const std::string& key) {
    const obs::Json* v = node_.find(key);
    if (v != nullptr) consumed_.push_back(key);
    return v;
  }

  void read_bool(const std::string& key, bool& out) {
    const obs::Json* v = take(key);
    if (v == nullptr) return;
    if (!v->is_bool())
      error(key, std::string("expected boolean, got ") +
                     json_type_name(v->type()));
    out = v->as_bool();
  }

  void read_double(const std::string& key, double& out) {
    const obs::Json* v = take(key);
    if (v == nullptr) return;
    if (!v->is_number())
      error(key, std::string("expected number, got ") +
                     json_type_name(v->type()));
    out = v->as_double();
  }

  template <typename T>
  void read_int(const std::string& key, T& out) {
    static_assert(std::is_integral_v<T>);
    const obs::Json* v = take(key);
    if (v == nullptr) return;
    if (!v->is_int())
      error(key, std::string("expected integer, got ") +
                     json_type_name(v->type()));
    const std::int64_t raw = v->as_int();
    if constexpr (std::is_unsigned_v<T>) {
      if (raw < 0)
        error(key, "expected a non-negative integer, got " +
                       std::to_string(raw));
      if (static_cast<std::uint64_t>(raw) >
          static_cast<std::uint64_t>(std::numeric_limits<T>::max()))
        error(key, "value " + std::to_string(raw) + " out of range");
    } else {
      if (raw < static_cast<std::int64_t>(std::numeric_limits<T>::min()) ||
          raw > static_cast<std::int64_t>(std::numeric_limits<T>::max()))
        error(key, "value " + std::to_string(raw) + " out of range");
    }
    out = static_cast<T>(raw);
  }

  void read_string(const std::string& key, std::string& out) {
    const obs::Json* v = take(key);
    if (v == nullptr) return;
    if (!v->is_string())
      error(key, std::string("expected string, got ") +
                     json_type_name(v->type()));
    out = v->as_string();
  }

  void read_duration(const std::string& key, Time& out) {
    const obs::Json* v = take(key);
    if (v == nullptr) return;
    if (!v->is_string())
      error(key, std::string("expected duration string, got ") +
                     json_type_name(v->type()));
    try {
      out = parse_duration(v->as_string());
    } catch (const ScenarioError& e) {
      error(key, e.what());
    }
  }

  /// Map a string field onto an enum through its (name, value) table.
  template <typename E>
  void read_enum(const std::string& key, E& out,
                 std::span<const EnumName<E>> names) {
    const obs::Json* v = take(key);
    if (v == nullptr) return;
    if (!v->is_string())
      error(key, std::string("expected string, got ") +
                     json_type_name(v->type()));
    const std::string& got = v->as_string();
    std::string expected;
    for (const auto& [name, value] : names) {
      if (got == name) {
        out = value;
        return;
      }
      if (!expected.empty()) expected += ", ";
      expected += std::string("\"") + name + "\"";
    }
    error(key, "expected one of " + expected + ", got \"" + got + "\"");
  }

  /// The consumed sub-object under `key`, or nullptr when absent.
  const obs::Json* child_object(const std::string& key) {
    const obs::Json* v = take(key);
    if (v == nullptr) return nullptr;
    if (!v->is_object())
      error(key, std::string("expected object, got ") +
                     json_type_name(v->type()));
    return v;
  }

  /// The consumed array under `key`, or nullptr when absent.
  const obs::Json* child_array(const std::string& key) {
    const obs::Json* v = take(key);
    if (v == nullptr) return nullptr;
    if (!v->is_array())
      error(key, std::string("expected array, got ") +
                     json_type_name(v->type()));
    return v;
  }

  /// Reject every key no getter consumed.
  void finish() const {
    for (const auto& [key, value] : node_.items()) {
      bool seen = false;
      for (const std::string& c : consumed_)
        if (c == key) {
          seen = true;
          break;
        }
      if (!seen) error(key, "unknown key");
    }
  }

 private:
  const obs::Json& node_;
  std::string path_;
  std::vector<std::string> consumed_;
};

}  // namespace mhp::scenario
