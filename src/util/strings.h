#ifndef BESTPEER_UTIL_STRINGS_H_
#define BESTPEER_UTIL_STRINGS_H_

#include <cctype>
#include <string>
#include <string_view>
#include <vector>

namespace bestpeer {

/// Splits `s` on `sep`, keeping empty pieces.
std::vector<std::string> Split(std::string_view s, char sep);

/// Joins pieces with `sep`.
std::string Join(const std::vector<std::string>& pieces, std::string_view sep);

/// ASCII lower-casing.
std::string ToLower(std::string_view s);

/// Calls `fn(token)` for each keyword of `text`, in order: a maximal run
/// of alphanumeric bytes, lowercased; everything else is a separator.
/// The token is a view of `buf`, which is overwritten by the next token,
/// so a caller that reuses `buf` tokenizes without allocating.
template <typename Fn>
void ForEachToken(std::string_view text, std::string& buf, Fn&& fn) {
  auto is_word = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0;
  };
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && !is_word(text[i])) ++i;
    const size_t start = i;
    while (i < text.size() && is_word(text[i])) ++i;
    if (i == start) break;
    buf.assign(text.data() + start, i - start);
    for (char& c : buf) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    fn(std::string_view(buf));
  }
}

/// Tokenizes text into lowercase alphanumeric keywords (ForEachToken's
/// tokens, collected). Used by the keyword search path (StorM agent,
/// Gnutella file-name matching).
std::vector<std::string> TokenizeKeywords(std::string_view text);

/// True iff `text` contains `keyword` as one of its tokens
/// (case-insensitive whole-token match).
bool ContainsKeyword(std::string_view text, std::string_view keyword);

/// True iff `s` starts with / ends with the given prefix/suffix.
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

}  // namespace bestpeer

#endif  // BESTPEER_UTIL_STRINGS_H_
