// Checked number parsing for command-line flags and text formats.
#pragma once

#include <charconv>
#include <cmath>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace tifl::util {

// All of `text` as one number of type T: a finite double, or a base-10
// integer.  Throws std::invalid_argument, as "`what`: " and the problem
// with `text` quoted, for an empty text, one that does not start with a
// number, junk after the number, a value out of range, or a NaN or
// infinite double.
template <class T>
T parse_number(const std::string& text, std::string_view what) {
  const auto fail = [&](const char* problem) {
    throw std::invalid_argument(std::string(what) + ": " + problem + " '" +
                                text + "'");
  };
  const char* end = text.data() + text.size();
  T value{};
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error == std::errc::invalid_argument) fail("expected a number, got");
  if (error == std::errc::result_out_of_range) fail("out of range:");
  if (stop != end) fail("trailing junk in");
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) fail("expected a finite number, got");
  }
  return value;
}

}  // namespace tifl::util
