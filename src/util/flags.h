// Minimal command-line flag parsing for the CLI tools.
//
// Supports "--key value", "--key=value" and boolean "--key"; everything
// else is collected as positional arguments.
#pragma once

#include <cstdint>
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
  /// Numeric values are parsed strictly (util::parse_int/parse_double):
  /// "--stream-block 8k" or "--threads x" throws std::invalid_argument
  /// naming the flag instead of silently running with a different value.
  [[nodiscard]] std::int64_t get_int(std::string_view key,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(std::string_view key,
                                  double fallback) const;
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
