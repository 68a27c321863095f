// Small string utilities shared by the /proc-format parsers, the
// configuration command language and its replies, and the CSV stores.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ldmsxx {

/// Split on a single delimiter; empty fields are preserved.
std::vector<std::string_view> Split(std::string_view text, char delim);

/// Split on runs of whitespace; empty fields are dropped (the shape of
/// /proc/stat and friends).
std::vector<std::string_view> SplitWhitespace(std::string_view text);

/// Trim ASCII whitespace from both ends.
std::string_view Trim(std::string_view text);

/// Parse an unsigned/signed/floating value; nullopt on any trailing garbage.
std::optional<std::uint64_t> ParseU64(std::string_view text);
std::optional<std::int64_t> ParseI64(std::string_view text);
std::optional<double> ParseDouble(std::string_view text);

bool StartsWith(std::string_view text, std::string_view prefix);

/// Parse "key=value" tokens (the ldmsd configuration command shape:
/// `config name=meminfo producer=nid0001 interval=1000000`).
/// Returns pairs in order; tokens without '=' get an empty value.
std::vector<std::pair<std::string, std::string>> ParseKeyValues(
    std::string_view line);

/// Appends text to one string, numbers printed exactly as std::to_string
/// prints them: integers in decimal, doubles as "%f" (fixed, six decimals).
/// Both go through std::to_chars into a stack buffer, so a number costs no
/// temporary string and no printf format parsing.
class TextWriter {
 public:
  /// "%f" of -DBL_MAX: 309 integer digits, sign, point and six decimals.
  static constexpr std::size_t kMaxF64Chars = 317;

  explicit TextWriter(std::string* out) : out_(out) {}

  TextWriter& Str(std::string_view s) {
    out_->append(s);
    return *this;
  }
  TextWriter& Char(char c) {
    out_->push_back(c);
    return *this;
  }
  TextWriter& U64(std::uint64_t v);
  TextWriter& F64(double v);
  /// " key=v": one numeric field of a verb reply.
  TextWriter& Field(std::string_view key, std::uint64_t v) {
    return Char(' ').Str(key).Char('=').U64(v);
  }

 private:
  std::string* out_;
};

}  // namespace ldmsxx
