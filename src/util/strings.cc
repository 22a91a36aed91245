#include "util/strings.h"

#include <cctype>

namespace bestpeer {

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out += sep;
    out += pieces[i];
  }
  return out;
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (auto& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::vector<std::string> TokenizeKeywords(std::string_view text) {
  std::vector<std::string> tokens;
  std::string buf;
  ForEachToken(text, buf, [&tokens](std::string_view token) {
    tokens.emplace_back(token);
  });
  return tokens;
}

bool ContainsKeyword(std::string_view text, std::string_view keyword) {
  if (keyword.empty()) return false;
  const std::string needle = ToLower(keyword);
  // Allocation-free scan: find case-insensitive occurrences and check
  // whole-token boundaries. This is the hot path of every simulated
  // store scan, so it avoids tokenizing the full text.
  auto is_word = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0;
  };
  auto lower = [](char c) {
    return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  };
  for (size_t i = 0; i + needle.size() <= text.size(); ++i) {
    if (lower(text[i]) != needle[0]) continue;
    size_t j = 1;
    while (j < needle.size() && lower(text[i + j]) == needle[j]) ++j;
    if (j != needle.size()) continue;
    bool left_ok = i == 0 || !is_word(text[i - 1]);
    size_t end = i + needle.size();
    bool right_ok = end == text.size() || !is_word(text[end]);
    if (left_ok && right_ok) return true;
  }
  return false;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

}  // namespace bestpeer
