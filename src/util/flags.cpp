#include "util/flags.h"

#include <stdexcept>

#include "util/strings.h"

namespace rr::util {

Flags Flags::parse(int argc, const char* const* argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg{argv[i]};
    if (arg.size() < 3 || arg.substr(0, 2) != "--") {
      flags.positional_.emplace_back(arg);
      continue;
    }
    const std::string_view body = arg.substr(2);
    const std::size_t eq = body.find('=');
    if (eq != std::string_view::npos) {
      flags.values_[std::string{body.substr(0, eq)}] =
          std::string{body.substr(eq + 1)};
      continue;
    }
    // "--key value" unless the next token is another flag (then boolean).
    if (i + 1 < argc && std::string_view{argv[i + 1]}.substr(0, 2) != "--") {
      flags.values_[std::string{body}] = argv[i + 1];
      ++i;
    } else {
      flags.values_[std::string{body}] = "true";
    }
  }
  return flags;
}

bool Flags::has(std::string_view key) const {
  queried_[std::string{key}] = true;
  return values_.contains(std::string{key});
}

std::string Flags::get(std::string_view key, std::string_view fallback) const {
  queried_[std::string{key}] = true;
  const auto it = values_.find(std::string{key});
  return it == values_.end() ? std::string{fallback} : it->second;
}

std::int64_t Flags::get_int(std::string_view key, std::int64_t fallback,
                            std::int64_t min, std::int64_t max) const {
  queried_[std::string{key}] = true;
  const auto it = values_.find(std::string{key});
  if (it == values_.end()) return fallback;
  return parse_int(it->second, "--" + std::string{key}, min, max);
}

std::uint64_t Flags::get_uint(std::string_view key, std::uint64_t fallback,
                              std::uint64_t min, std::uint64_t max) const {
  queried_[std::string{key}] = true;
  const auto it = values_.find(std::string{key});
  if (it == values_.end()) return fallback;
  return parse_uint(it->second, "--" + std::string{key}, min, max);
}

double Flags::get_double(std::string_view key, double fallback, double min,
                         double max) const {
  queried_[std::string{key}] = true;
  const auto it = values_.find(std::string{key});
  if (it == values_.end()) return fallback;
  return parse_double(it->second, "--" + std::string{key}, min, max);
}

std::string Flags::get_choice(
    std::string_view key, std::string_view fallback,
    std::initializer_list<std::string_view> choices) const {
  std::string value = get(key, fallback);
  std::string listed;
  for (const std::string_view choice : choices) {
    if (value == choice) return value;
    if (!listed.empty()) listed += '|';
    listed += choice;
  }
  throw std::invalid_argument("--" + std::string{key} + ": expected one of " +
                              listed + ", got '" + value + "'");
}

std::vector<std::string> Flags::unused() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : values_) {
    if (!queried_.contains(key)) out.push_back(key);
  }
  return out;
}

}  // namespace rr::util
