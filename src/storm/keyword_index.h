#ifndef BESTPEER_STORM_KEYWORD_INDEX_H_
#define BESTPEER_STORM_KEYWORD_INDEX_H_

#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "storm/object_store.h"

namespace bestpeer::storm {

/// In-memory inverted index: keyword -> sorted posting-list vector of
/// object ids. Maintained by the Storm facade as objects are
/// added/removed; gives the fast search path next to the full-scan path
/// the paper's StorM agent uses.
///
/// The index remembers which posting lists it put each object in, so
/// removal needs only the id — callers can no longer leak postings by
/// passing content that differs from what was Add()ed.
class KeywordIndex {
 public:
  /// Indexes the tokens of `text` under `id`. Re-adding an id replaces
  /// its previous postings (update semantics), never accumulates them.
  /// Allocates a keyword string only for a keyword not yet indexed.
  void Add(ObjectId id, std::string_view text);

  /// Removes every posting of `id`, using the posting lists recorded at
  /// Add time. No-op for unknown ids.
  void Remove(ObjectId id);

  /// Ids of objects containing `keyword` (ascending copy).
  std::vector<ObjectId> Search(std::string_view keyword) const;

  /// Borrowed view of one keyword's sorted posting list; nullptr when the
  /// keyword is not indexed. Invalidated by the next Add/Remove.
  const std::vector<ObjectId>* Postings(std::string_view keyword) const;

  /// Number of distinct indexed keywords.
  size_t keyword_count() const { return postings_.size(); }

  /// Number of indexed documents.
  size_t document_count() const { return doc_tokens_.size(); }

  /// Number of postings for one keyword.
  size_t PostingCount(std::string_view keyword) const;

  /// Visits every indexed keyword with its posting count (keyword order).
  void ForEachKeyword(
      const std::function<void(std::string_view, size_t)>& fn) const;

  /// Intersects two sorted posting lists into `out` by galloping
  /// (exponential + binary) search from the smaller into the larger.
  /// Adds the number of postings probed in `b` to `*probes` (the CPU
  /// accounting unit of the index search path). `a` should be the
  /// smaller list; the result is correct either way.
  static void Intersect(const std::vector<ObjectId>& a,
                        const std::vector<ObjectId>& b,
                        std::vector<ObjectId>* out, size_t* probes);

  void Clear() {
    postings_.clear();
    doc_tokens_.clear();
  }

 private:
  using PostingMap = std::map<std::string, std::vector<ObjectId>, std::less<>>;

  PostingMap postings_;
  /// The posting lists each indexed object is in, one entry per distinct
  /// keyword. Map nodes are stable, and a keyword's node lives exactly as
  /// long as some object holds it, so these iterators stay valid until
  /// the object itself is removed.
  std::map<ObjectId, std::vector<PostingMap::iterator>> doc_tokens_;
  /// Reused lowercase token buffer for Add.
  std::string token_buf_;
};

}  // namespace bestpeer::storm

#endif  // BESTPEER_STORM_KEYWORD_INDEX_H_
