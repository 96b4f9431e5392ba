// Minimal command-line flag parsing for the CLI tools.
//
// Supports "--key value", "--key=value" and boolean "--key"; everything
// else is collected as positional arguments.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace rr::util {

class Flags {
 public:
  static Flags parse(int argc, const char* const* argv);

  [[nodiscard]] bool has(std::string_view key) const;
  [[nodiscard]] std::string get(std::string_view key,
                                std::string_view fallback = {}) const;
  /// Numeric values are parsed strictly (util::parse_int/parse_double)
  /// and must lie in [min, max]: "--stream-block 8k", "--threads -1" or
  /// "--ttl 300" throws std::invalid_argument naming the flag instead of
  /// silently running with a different value. The fallback is returned
  /// as is when the flag is absent.
  [[nodiscard]] std::int64_t get_int(
      std::string_view key, std::int64_t fallback,
      std::int64_t min = std::numeric_limits<std::int64_t>::min(),
      std::int64_t max = std::numeric_limits<std::int64_t>::max()) const;
  [[nodiscard]] double get_double(
      std::string_view key, double fallback,
      double min = std::numeric_limits<double>::lowest(),
      double max = std::numeric_limits<double>::max()) const;
  /// A value that must be one of `choices` ("--type bogus" throws
  /// std::invalid_argument listing them); the fallback when absent.
  [[nodiscard]] std::string get_choice(
      std::string_view key, std::string_view fallback,
      std::initializer_list<std::string_view> choices) const;
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// Keys that were provided but never queried — typo detection for tools.
  [[nodiscard]] std::vector<std::string> unused() const;

 private:
  std::unordered_map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  mutable std::unordered_map<std::string, bool> queried_;
};

}  // namespace rr::util
