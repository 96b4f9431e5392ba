// Small string helpers shared by the analysis/report layers.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace rr::util {

/// Formats `value` with thousands separators: 1234567 -> "1,234,567".
[[nodiscard]] std::string with_commas(std::uint64_t value);

/// Formats a ratio as a percentage with the given precision: 0.754 -> "75%".
[[nodiscard]] std::string percent(double ratio, int decimals = 0);

/// Formats a double with fixed decimals.
[[nodiscard]] std::string fixed(double value, int decimals);

/// Splits on a delimiter; keeps empty fields.
[[nodiscard]] std::vector<std::string> split(std::string_view text,
                                             char delimiter);

/// Joins pieces with a separator.
[[nodiscard]] std::string join(const std::vector<std::string>& pieces,
                               std::string_view separator);

/// Left/right padding to a fixed width (truncates if longer).
[[nodiscard]] std::string pad_left(std::string_view text, std::size_t width);
[[nodiscard]] std::string pad_right(std::string_view text, std::size_t width);

/// Strict parsing for external input (CLI flags, environment knobs): the
/// whole of `text` must be one base-10 integer in [min, max], or one finite
/// number. Empty text, trailing garbage and out-of-range values throw
/// std::invalid_argument naming `name` (the flag or variable the text came
/// from) and the text.
[[nodiscard]] std::int64_t parse_int(
    std::string_view text, std::string_view name,
    std::int64_t min = std::numeric_limits<std::int64_t>::min(),
    std::int64_t max = std::numeric_limits<std::int64_t>::max());
[[nodiscard]] double parse_double(std::string_view text,
                                  std::string_view name);

}  // namespace rr::util
