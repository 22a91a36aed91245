#include "workload/corpus.h"

#include <algorithm>
#include <cstring>

namespace bestpeer::workload {

CorpusGenerator::CorpusGenerator(const CorpusOptions& options, uint64_t seed)
    : options_(options),
      rng_(seed),
      zipf_(options.vocabulary, options.zipf_skew) {
  words_.reserve(options.vocabulary);
  for (size_t rank = 0; rank < options.vocabulary; ++rank) {
    std::string& word = words_.emplace_back("w");
    word += std::to_string(rank);
    word += ' ';
  }
}

std::string CorpusGenerator::RandomWord() {
  const std::string& word = NextWord();
  return word.substr(0, word.size() - 1);
}

Bytes CorpusGenerator::MakeObject(bool match) {
  static const std::vector<std::string> kNeedleOnly = {kNeedle};
  return MakeObject(match, kNeedleOnly);
}

Bytes CorpusGenerator::MakeObject(bool match,
                                  const std::vector<std::string>& tokens) {
  const size_t size = options_.object_size;
  Bytes text;
  if (match) {
    for (const std::string& token : tokens) {
      text.insert(text.end(), token.begin(), token.end());
      text.push_back(' ');
    }
  }
  // Room for every word the loop can append: it stops at the first word
  // that reaches `size`, and the last rank's word is the longest.
  size_t pos = text.size();
  text.resize(std::max(pos, size) + words_.back().size());
  while (pos < size) {
    const std::string& word = NextWord();
    std::memcpy(text.data() + pos, word.data(), word.size());
    pos += word.size();
  }
  // Truncation may leave a trailing fragment; that is fine — fragments of
  // vocabulary words never equal the needle token.
  text.resize(size);
  return text;
}

std::string CorpusGenerator::MakeFileName(bool match, size_t serial) {
  // The second word is drawn first: existing corpora fix that draw order.
  const std::string second = RandomWord();
  std::string name = match ? std::string(kNeedle) : RandomWord();
  name += '-';
  name += second;
  name += '-';
  name += std::to_string(serial);
  name += ".txt";
  return name;
}

}  // namespace bestpeer::workload
