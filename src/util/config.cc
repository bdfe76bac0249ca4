#include "src/util/config.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <type_traits>

namespace rmp {

std::string_view TrimWhitespace(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() && std::isspace(static_cast<unsigned char>(s[begin])) != 0) {
    ++begin;
  }
  size_t end = s.size();
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1])) != 0) {
    --end;
  }
  return s.substr(begin, end - begin);
}

Result<Config> Config::Parse(std::string_view text) {
  Config config;
  size_t line_start = 0;
  int line_no = 0;
  while (line_start <= text.size()) {
    size_t line_end = text.find('\n', line_start);
    if (line_end == std::string_view::npos) {
      line_end = text.size();
    }
    ++line_no;
    std::string_view line = text.substr(line_start, line_end - line_start);
    line_start = line_end + 1;

    const size_t comment = line.find('#');
    if (comment != std::string_view::npos) {
      line = line.substr(0, comment);
    }
    line = TrimWhitespace(line);
    if (line.empty()) {
      continue;
    }
    const size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return InvalidArgumentError("config line " + std::to_string(line_no) + ": missing '='");
    }
    const std::string key(TrimWhitespace(line.substr(0, eq)));
    const std::string value(TrimWhitespace(line.substr(eq + 1)));
    if (key.empty()) {
      return InvalidArgumentError("config line " + std::to_string(line_no) + ": empty key");
    }
    config.values_[key] = value;
  }
  return config;
}

Result<Config> Config::Load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return IoError("cannot open config file: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return Parse(buffer.str());
}

bool Config::Has(const std::string& key) const { return values_.count(key) > 0; }

std::string Config::GetString(const std::string& key, std::string fallback) const {
  auto it = values_.find(key);
  return it != values_.end() ? it->second : std::move(fallback);
}

Result<int64_t> Config::GetInt(const std::string& key, int64_t fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) {
    return fallback;
  }
  errno = 0;
  char* end = nullptr;
  const int64_t value = std::strtoll(it->second.c_str(), &end, 0);
  if (errno != 0 || end == it->second.c_str() || *end != '\0') {
    return InvalidArgumentError("config key '" + key + "': not an integer: " + it->second);
  }
  return value;
}

Result<double> Config::GetDouble(const std::string& key, double fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) {
    return fallback;
  }
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(it->second.c_str(), &end);
  if (errno != 0 || end == it->second.c_str() || *end != '\0') {
    return InvalidArgumentError("config key '" + key + "': not a number: " + it->second);
  }
  return value;
}

Result<bool> Config::GetBool(const std::string& key, bool fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) {
    return fallback;
  }
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") {
    return true;
  }
  if (v == "false" || v == "0" || v == "no" || v == "off") {
    return false;
  }
  return InvalidArgumentError("config key '" + key + "': not a bool: " + v);
}

void Config::Set(const std::string& key, std::string value) { values_[key] = std::move(value); }

std::vector<std::string> Config::Keys() const {
  std::vector<std::string> keys;
  keys.reserve(values_.size());
  for (const auto& [key, value] : values_) {
    keys.push_back(key);
  }
  return keys;
}

namespace {

// The text up to and including a key's first '.', or "" for a dotless key.
std::string_view KeyPrefix(std::string_view key) {
  const size_t dot = key.find('.');
  return dot == std::string_view::npos ? std::string_view() : key.substr(0, dot + 1);
}

// Reads and range-checks one row's value; writes its field only if `store`.
Status ApplyRow(const Config& config, const ConfigKey& row, bool store) {
  bool flag = false;
  int64_t integer = 0;
  double number = 0;
  bool in_range = true;
  if (row.type == ConfigKey::kBool) {
    auto value = config.GetBool(row.key, false);
    RMP_RETURN_IF_ERROR(value.status());
    flag = *value;
  } else if (row.type == ConfigKey::kInt) {
    auto value = config.GetInt(row.key, 0);
    RMP_RETURN_IF_ERROR(value.status());
    number = static_cast<double>(*value);
    integer = *value;
    // Integer scales apply in int64: a double bound near the int64 limit can
    // round up past it, so an overflow counts as out of range.
    in_range = !(row.scale >= 1 && __builtin_mul_overflow(
                                       *value, static_cast<int64_t>(row.scale), &integer));
  } else if (row.type == ConfigKey::kDouble) {
    auto value = config.GetDouble(row.key, 0);
    RMP_RETURN_IF_ERROR(value.status());
    number = *value;
  }
  if (row.type == ConfigKey::kInt || row.type == ConfigKey::kDouble) {
    if (!in_range || !(number >= row.min && number <= row.max)) {
      std::ostringstream message;
      message << "config key '" << row.key << "': " << config.GetString(row.key, "")
              << " is outside [" << row.min << ", " << row.max << "]";
      return InvalidArgumentError(message.str());
    }
  }
  if (!store) {
    return OkStatus();
  }
  std::visit(
      [&](auto* field) {
        using T = std::remove_pointer_t<decltype(field)>;
        if (field == nullptr) {
          return;
        }
        if constexpr (std::is_same_v<T, bool>) {
          *field = flag;
        } else if constexpr (std::is_same_v<T, std::string>) {
          *field = config.GetString(row.key, "");
        } else if constexpr (std::is_floating_point_v<T>) {
          *field = number * row.scale;
        } else if (row.type == ConfigKey::kInt && row.scale >= 1) {
          *field = static_cast<T>(integer);  // Already scaled.
        } else {
          *field = static_cast<T>(number * row.scale);
        }
      },
      row.field);
  return OkStatus();
}

}  // namespace

Status ApplyConfig(const Config& config, const ConfigTable& table) {
  for (const std::string& key : config.Keys()) {
    bool owned = false;
    bool known = false;
    for (const ConfigKey& row : table) {
      owned = owned || KeyPrefix(row.key) == KeyPrefix(key);
      known = known || row.key == key;
    }
    if (owned && !known) {
      return InvalidArgumentError("unknown config key: " + key);
    }
  }
  // Check every row before writing any, so a rejected config sets nothing.
  for (const bool store : {false, true}) {
    for (const ConfigKey& row : table) {
      if (config.Has(row.key)) {
        RMP_RETURN_IF_ERROR(ApplyRow(config, row, store));
      }
    }
  }
  return OkStatus();
}

}  // namespace rmp
