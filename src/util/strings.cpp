#include "util/strings.hpp"

#include <cctype>
#include <charconv>

namespace ldmsxx {

std::vector<std::string_view> Split(std::string_view text, char delim) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == delim) {
      out.push_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string_view> SplitWhitespace(std::string_view text) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    std::size_t start = i;
    while (i < text.size() && !std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    if (i > start) out.push_back(text.substr(start, i - start));
  }
  return out;
}

std::string_view Trim(std::string_view text) {
  std::size_t b = 0;
  std::size_t e = text.size();
  while (b < e && std::isspace(static_cast<unsigned char>(text[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1]))) --e;
  return text.substr(b, e - b);
}

template <typename T>
static std::optional<T> ParseIntegral(std::string_view text) {
  text = Trim(text);
  T value{};
  const char* begin = text.data();
  const char* end = begin + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc() || ptr != end || text.empty()) return std::nullopt;
  return value;
}

std::optional<std::uint64_t> ParseU64(std::string_view text) {
  return ParseIntegral<std::uint64_t>(text);
}

std::optional<std::int64_t> ParseI64(std::string_view text) {
  return ParseIntegral<std::int64_t>(text);
}

std::optional<double> ParseDouble(std::string_view text) {
  text = Trim(text);
  if (text.empty()) return std::nullopt;
  // std::from_chars<double> is available in libstdc++ 11+; use it directly.
  double value{};
  const char* begin = text.data();
  const char* end = begin + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

std::vector<std::pair<std::string, std::string>> ParseKeyValues(
    std::string_view line) {
  std::vector<std::pair<std::string, std::string>> out;
  for (std::string_view token : SplitWhitespace(line)) {
    const auto eq = token.find('=');
    if (eq == std::string_view::npos) {
      out.emplace_back(std::string(token), std::string());
    } else {
      out.emplace_back(std::string(token.substr(0, eq)),
                       std::string(token.substr(eq + 1)));
    }
  }
  return out;
}

TextWriter& TextWriter::U64(std::uint64_t v) {
  char buf[20];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out_->append(buf, res.ptr);
  return *this;
}

TextWriter& TextWriter::F64(double v) {
  char buf[kMaxF64Chars];
  const auto res =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::fixed, 6);
  out_->append(buf, res.ptr);
  return *this;
}

}  // namespace ldmsxx
