// Tiny key=value configuration reader, and the one table-driven applier
// that turns its keys into params fields.
//
// The paper registers every workstation that participates in remote paging
// "in a common file" (§2.1); the TCP cluster tools use this parser for that
// registry and for tuning constants. Format: one `key = value` per line,
// '#' starts a comment, later keys override earlier ones.

#ifndef SRC_UTIL_CONFIG_H_
#define SRC_UTIL_CONFIG_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "src/util/status.h"

namespace rmp {

class Config {
 public:
  Config() = default;

  // Parses from a string (tests) or a file (tools).
  static Result<Config> Parse(std::string_view text);
  static Result<Config> Load(const std::string& path);

  bool Has(const std::string& key) const;

  // Typed getters; return the fallback when the key is absent, and an error
  // only when the key is present but malformed.
  std::string GetString(const std::string& key, std::string fallback) const;
  Result<int64_t> GetInt(const std::string& key, int64_t fallback) const;
  Result<double> GetDouble(const std::string& key, double fallback) const;
  Result<bool> GetBool(const std::string& key, bool fallback) const;

  void Set(const std::string& key, std::string value);

  // All keys, sorted (map order).
  std::vector<std::string> Keys() const;

 private:
  std::map<std::string, std::string> values_;
};

// One row of a config table (DESIGN.md §12 "One config applier"): a key, the type its
// value is read as, the inclusive range that value must fall in, the unit
// scale, and the field it sets. The field receives value * scale (ms -> ns
// is 1e6, KB -> bytes 1024, per-1k -> fraction 1e-3). A null field checks
// the key but stores nothing. Range and scale do not apply to bool and
// string keys.
struct ConfigKey {
  enum Type { kInt, kDouble, kBool, kString };
  using Field = std::variant<bool*, int*, uint32_t*, int64_t*, uint64_t*, double*, std::string*>;

  std::string key;
  Type type = kInt;
  Field field;
  double min = 0;
  double max = 0;
  double scale = 1;
};
using ConfigTable = std::vector<ConfigKey>;

// An int key's upper bound when only the field's type limits it.
inline constexpr double kNoLimit = static_cast<double>(std::numeric_limits<int64_t>::max());

// Sets the field of every row whose key `config` holds; absent keys leave
// their fields alone. A table owns the prefix of each of its keys (the text
// up to and including the first '.'; keys without a '.' own every such key),
// and any key of `config` under an owned prefix that no row names is an
// error, as is a malformed or out-of-range value. Fields are written only
// once every key has passed.
Status ApplyConfig(const Config& config, const ConfigTable& table);

// Strips leading/trailing whitespace. Exposed for reuse by the wire-protocol
// text helpers and tests.
std::string_view TrimWhitespace(std::string_view s);

}  // namespace rmp

#endif  // SRC_UTIL_CONFIG_H_
