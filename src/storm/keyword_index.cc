#include "storm/keyword_index.h"

#include <algorithm>

#include "util/strings.h"

namespace bestpeer::storm {

void KeywordIndex::Add(ObjectId id, std::string_view text) {
  Remove(id);  // Update semantics: replace any previous postings of id.
  std::vector<PostingMap::iterator> lists;
  ForEachToken(text, token_buf_, [&](std::string_view token) {
    auto it = postings_.lower_bound(token);
    if (it == postings_.end() || it->first != token) {
      it = postings_.emplace_hint(it, std::string(token),
                                  std::vector<ObjectId>());
    }
    std::vector<ObjectId>& list = it->second;
    // Ids mostly arrive in ascending order, so try the tail first. After
    // Remove(id), finding id in a list means the token repeats in text.
    if (list.empty() || list.back() < id) {
      list.push_back(id);
    } else {
      auto pos = std::lower_bound(list.begin(), list.end(), id);
      if (*pos == id) return;
      list.insert(pos, id);
    }
    lists.push_back(it);
  });
  if (!lists.empty()) doc_tokens_.emplace(id, std::move(lists));
}

void KeywordIndex::Remove(ObjectId id) {
  auto doc = doc_tokens_.find(id);
  if (doc == doc_tokens_.end()) return;
  for (PostingMap::iterator it : doc->second) {
    std::vector<ObjectId>& list = it->second;
    list.erase(std::lower_bound(list.begin(), list.end(), id));
    if (list.empty()) postings_.erase(it);
  }
  doc_tokens_.erase(doc);
}

std::vector<ObjectId> KeywordIndex::Search(std::string_view keyword) const {
  const std::vector<ObjectId>* list = Postings(keyword);
  if (list == nullptr) return {};
  return *list;
}

const std::vector<ObjectId>* KeywordIndex::Postings(
    std::string_view keyword) const {
  auto it = postings_.find(ToLower(keyword));
  if (it == postings_.end()) return nullptr;
  return &it->second;
}

size_t KeywordIndex::PostingCount(std::string_view keyword) const {
  const std::vector<ObjectId>* list = Postings(keyword);
  return list == nullptr ? 0 : list->size();
}

void KeywordIndex::ForEachKeyword(
    const std::function<void(std::string_view, size_t)>& fn) const {
  for (const auto& [keyword, list] : postings_) fn(keyword, list.size());
}

void KeywordIndex::Intersect(const std::vector<ObjectId>& a,
                             const std::vector<ObjectId>& b,
                             std::vector<ObjectId>* out, size_t* probes) {
  out->clear();
  const std::vector<ObjectId>& small = a.size() <= b.size() ? a : b;
  const std::vector<ObjectId>& large = a.size() <= b.size() ? b : a;
  size_t lo = 0;
  for (ObjectId id : small) {
    // Gallop: double the step until the window brackets id, then
    // binary-search inside it. Touches O(log gap) postings per lookup
    // instead of walking the whole larger list.
    size_t step = 1;
    size_t hi = lo;
    while (hi < large.size() && large[hi] < id) {
      if (probes != nullptr) ++*probes;
      lo = hi;
      hi += step;
      step *= 2;
    }
    hi = std::min(hi, large.size());
    auto first = large.begin() + static_cast<ptrdiff_t>(lo);
    auto last = large.begin() + static_cast<ptrdiff_t>(hi);
    auto pos = std::lower_bound(first, last, id);
    if (probes != nullptr && first != last) {
      size_t width = static_cast<size_t>(last - first);
      size_t log2 = 0;
      while (width > 1) {
        width >>= 1;
        ++log2;
      }
      *probes += log2 + 1;
    }
    if (pos != large.end() && *pos == id) {
      out->push_back(id);
      lo = static_cast<size_t>(pos - large.begin()) + 1;
    } else {
      lo = static_cast<size_t>(pos - large.begin());
    }
    if (lo >= large.size()) break;
  }
}

}  // namespace bestpeer::storm
