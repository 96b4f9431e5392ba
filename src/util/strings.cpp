#include "util/strings.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace rr::util {

std::string with_commas(std::uint64_t value) {
  std::string digits = std::to_string(value);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  int counter = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (counter != 0 && counter % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++counter;
  }
  return {out.rbegin(), out.rend()};
}

std::string percent(double ratio, int decimals) {
  return fixed(ratio * 100.0, decimals) + "%";
}

std::string fixed(double value, int decimals) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", decimals, value);
  return buffer;
}

std::vector<std::string> split(std::string_view text, char delimiter) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(delimiter, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string join(const std::vector<std::string>& pieces,
                 std::string_view separator) {
  std::string out;
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    if (i != 0) out.append(separator);
    out.append(pieces[i]);
  }
  return out;
}

std::string pad_left(std::string_view text, std::size_t width) {
  if (text.size() >= width) return std::string{text.substr(0, width)};
  std::string out(width - text.size(), ' ');
  out.append(text);
  return out;
}

std::string pad_right(std::string_view text, std::size_t width) {
  if (text.size() >= width) return std::string{text.substr(0, width)};
  std::string out{text};
  out.append(width - text.size(), ' ');
  return out;
}

namespace {

[[noreturn]] void reject(std::string_view name, std::string_view text,
                         std::string_view expected) {
  throw std::invalid_argument(std::string{name} + ": expected " +
                              std::string{expected} + ", got '" +
                              std::string{text} + "'");
}

}  // namespace

std::int64_t parse_int(std::string_view text, std::string_view name,
                       std::int64_t min, std::int64_t max) {
  std::int64_t value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec == std::errc::invalid_argument || end != text.data() + text.size()) {
    reject(name, text, "an integer");
  }
  if (ec == std::errc::result_out_of_range || value < min || value > max) {
    reject(name, text,
           "an integer in [" + std::to_string(min) + ", " +
               std::to_string(max) + "]");
  }
  return value;
}

double parse_double(std::string_view text, std::string_view name) {
  double value = 0.0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size() ||
      !std::isfinite(value)) {
    reject(name, text, "a finite number");
  }
  return value;
}

}  // namespace rr::util
