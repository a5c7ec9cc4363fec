// Small string helpers shared across modules.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cia {

/// Split `s` on `sep`; empty fields are preserved.
std::vector<std::string> split(const std::string& s, char sep);

/// Join parts with `sep`.
std::string join(const std::vector<std::string>& parts, const std::string& sep);

bool starts_with(const std::string& s, const std::string& prefix);
bool ends_with(const std::string& s, const std::string& suffix);

/// Simple glob match supporting '*' (any run, including '/') and '?'.
/// Keylime exclude lists use these wildcards.
bool glob_match(std::string_view pattern, std::string_view text);

/// A non-empty run of decimal digits (no sign, space or base prefix)
/// whose value is at most `max`; empty on anything else. The parser
/// behind every numeric command-line flag, so "abc" or an overflowing
/// value is an error rather than a silent 0.
std::optional<std::uint64_t> parse_decimal(std::string_view text,
                                           std::uint64_t max);

/// printf-style formatting into a std::string.
std::string strformat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace cia
