#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "storm/object_store.h"
#include "storm/query_expr.h"
#include "storm/storm.h"
#include "util/rng.h"

namespace bestpeer::storm {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& tag)
      : path_("/tmp/bp_storm_test_" + tag + "_" +
              std::to_string(::getpid()) + ".db") {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

Bytes Content(const std::string& s) { return Bytes(s.begin(), s.end()); }

std::unique_ptr<ObjectStore> MakeStore(MemPager* pager, BufferPool** pool_out,
                                       std::unique_ptr<BufferPool>* pool) {
  *pool = BufferPool::Create(pager, {.frames = 16, .policy = "lru"}).value();
  *pool_out = pool->get();
  return ObjectStore::Open(pool->get()).value();
}

TEST(ObjectStoreTest, PutGetDelete) {
  MemPager pager;
  std::unique_ptr<BufferPool> pool;
  BufferPool* raw;
  auto store = MakeStore(&pager, &raw, &pool);

  ASSERT_TRUE(store->Put(1, Content("hello")).ok());
  EXPECT_TRUE(store->Contains(1));
  EXPECT_EQ(store->Get(1).value(), Content("hello"));
  ASSERT_TRUE(store->Delete(1).ok());
  EXPECT_FALSE(store->Contains(1));
  EXPECT_TRUE(store->Get(1).status().IsNotFound());
  EXPECT_TRUE(store->Delete(1).IsNotFound());
}

TEST(ObjectStoreTest, DuplicatePutRejected) {
  MemPager pager;
  std::unique_ptr<BufferPool> pool;
  BufferPool* raw;
  auto store = MakeStore(&pager, &raw, &pool);
  ASSERT_TRUE(store->Put(1, Content("a")).ok());
  EXPECT_TRUE(store->Put(1, Content("b")).IsAlreadyExists());
}

TEST(ObjectStoreTest, EmptyObject) {
  MemPager pager;
  std::unique_ptr<BufferPool> pool;
  BufferPool* raw;
  auto store = MakeStore(&pager, &raw, &pool);
  ASSERT_TRUE(store->Put(5, Bytes{}).ok());
  EXPECT_EQ(store->Get(5).value(), Bytes{});
  // The scan visits the empty object too.
  size_t visits = 0;
  ASSERT_TRUE(store
                  ->ForEach([&visits](ObjectId id, const Bytes& data) {
                    ++visits;
                    EXPECT_EQ(id, 5u);
                    EXPECT_TRUE(data.empty());
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(visits, 1u);
}

TEST(ObjectStoreTest, LargeObjectSpansChunks) {
  MemPager pager;
  std::unique_ptr<BufferPool> pool;
  BufferPool* raw;
  auto store = MakeStore(&pager, &raw, &pool);
  Rng rng(1);
  Bytes big(ObjectStore::kChunkDataSize * 3 + 17);
  for (auto& b : big) b = static_cast<uint8_t>(rng.NextBounded(256));
  ASSERT_TRUE(store->Put(9, big).ok());
  EXPECT_EQ(store->Get(9).value(), big);
  ASSERT_TRUE(store->Delete(9).ok());
  EXPECT_FALSE(store->Contains(9));
}

TEST(ObjectStoreTest, ListIdsSorted) {
  MemPager pager;
  std::unique_ptr<BufferPool> pool;
  BufferPool* raw;
  auto store = MakeStore(&pager, &raw, &pool);
  for (ObjectId id : {5, 1, 9, 3}) {
    ASSERT_TRUE(store->Put(id, Content("x")).ok());
  }
  EXPECT_EQ(store->ListIds(), (std::vector<ObjectId>{1, 3, 5, 9}));
  EXPECT_EQ(store->object_count(), 4u);
}

TEST(ObjectStoreTest, SpaceReusedAfterDelete) {
  MemPager pager;
  std::unique_ptr<BufferPool> pool;
  BufferPool* raw;
  auto store = MakeStore(&pager, &raw, &pool);
  Bytes obj(1024, 0xAB);
  for (ObjectId id = 0; id < 50; ++id) {
    ASSERT_TRUE(store->Put(id, obj).ok());
  }
  PageId pages_before = pager.page_count();
  for (ObjectId id = 0; id < 50; ++id) {
    ASSERT_TRUE(store->Delete(id).ok());
  }
  for (ObjectId id = 100; id < 150; ++id) {
    ASSERT_TRUE(store->Put(id, obj).ok());
  }
  // Deleted space must be reused: no significant page growth.
  EXPECT_LE(pager.page_count(), pages_before + 1);
}

TEST(ObjectStoreTest, DirectoryRebuiltOnReopen) {
  MemPager pager;
  {
    auto pool = BufferPool::Create(&pager, {.frames = 16, .policy = "lru"}).value();
    auto store = ObjectStore::Open(pool.get()).value();
    ASSERT_TRUE(store->Put(1, Content("persisted")).ok());
    Bytes big(ObjectStore::kChunkDataSize * 2, 0x5A);
    ASSERT_TRUE(store->Put(2, big).ok());
    ASSERT_TRUE(pool->FlushAll().ok());
  }
  {
    auto pool = BufferPool::Create(&pager, {.frames = 16, .policy = "lru"}).value();
    auto store = ObjectStore::Open(pool.get()).value();
    EXPECT_EQ(store->object_count(), 2u);
    EXPECT_EQ(store->Get(1).value(), Content("persisted"));
    EXPECT_EQ(store->Get(2).value().size(), ObjectStore::kChunkDataSize * 2);
  }
}

// ---------------------------------------------------------------- Storm

TEST(StormTest, InMemoryBasics) {
  StormOptions options;
  auto storm = Storm::Open(options).value();
  ASSERT_TRUE(storm->Put(1, Content("alpha needle beta")).ok());
  ASSERT_TRUE(storm->Put(2, Content("gamma delta")).ok());
  EXPECT_EQ(storm->object_count(), 2u);

  auto scan = storm->ScanSearch("needle").value();
  EXPECT_EQ(scan.objects_scanned, 2u);
  EXPECT_EQ(scan.matches, (std::vector<ObjectId>{1}));

  EXPECT_EQ(storm->IndexSearch("needle").value(),
            (std::vector<ObjectId>{1}));
  EXPECT_EQ(storm->IndexSearch("delta").value(),
            (std::vector<ObjectId>{2}));
  EXPECT_TRUE(storm->IndexSearch("nothing").value().empty());
}

TEST(StormTest, IndexTracksDeletes) {
  StormOptions options;
  auto storm = Storm::Open(options).value();
  ASSERT_TRUE(storm->Put(1, Content("needle here")).ok());
  ASSERT_TRUE(storm->Delete(1).ok());
  EXPECT_TRUE(storm->IndexSearch("needle").value().empty());
  EXPECT_TRUE(storm->ScanSearch("needle").value().matches.empty());
}

TEST(StormTest, IndexDisabled) {
  StormOptions options;
  options.build_index = false;
  auto storm = Storm::Open(options).value();
  ASSERT_TRUE(storm->Put(1, Content("needle")).ok());
  EXPECT_TRUE(storm->IndexSearch("needle").status().IsFailedPrecondition());
  EXPECT_EQ(storm->ScanSearch("needle").value().matches.size(), 1u);
}

TEST(StormTest, PersistsAcrossReopen) {
  TempFile file("storm_reopen");
  {
    StormOptions options;
    options.path = file.path();
    auto storm = Storm::Open(options).value();
    ASSERT_TRUE(storm->Put(7, Content("needle persists")).ok());
    ASSERT_TRUE(storm->Put(8, Content("other data")).ok());
    ASSERT_TRUE(storm->Flush().ok());
  }
  {
    StormOptions options;
    options.path = file.path();
    auto storm = Storm::Open(options).value();
    EXPECT_EQ(storm->object_count(), 2u);
    EXPECT_EQ(storm->Get(7).value(), Content("needle persists"));
    // Index is rebuilt from the persisted objects.
    EXPECT_EQ(storm->IndexSearch("needle").value(),
              (std::vector<ObjectId>{7}));
  }
}

TEST(StormTest, FilePagerDetectsCorruption) {
  TempFile file("storm_corrupt");
  {
    StormOptions options;
    options.path = file.path();
    auto storm = Storm::Open(options).value();
    ASSERT_TRUE(storm->Put(1, Bytes(2000, 0x11)).ok());
    ASSERT_TRUE(storm->Flush().ok());
  }
  // Flip a byte in the middle of the first page.
  {
    std::FILE* f = std::fopen(file.path().c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 200, SEEK_SET);
    int c = std::fgetc(f);
    std::fseek(f, 200, SEEK_SET);
    std::fputc(c ^ 0xFF, f);
    std::fclose(f);
  }
  StormOptions options;
  options.path = file.path();
  auto storm = Storm::Open(options);
  EXPECT_FALSE(storm.ok());
  EXPECT_TRUE(storm.status().IsCorruption());
}

TEST(StormTest, UpdateReplacesContentAndIndex) {
  auto storm = Storm::Open({}).value();
  ASSERT_TRUE(storm->Put(1, Content("needle old")).ok());
  ASSERT_TRUE(storm->Update(1, Content("fresh text")).ok());
  EXPECT_EQ(storm->Get(1).value(), Content("fresh text"));
  EXPECT_TRUE(storm->IndexSearch("needle").value().empty());
  EXPECT_EQ(storm->IndexSearch("fresh").value(),
            (std::vector<ObjectId>{1}));
  EXPECT_TRUE(storm->Update(99, Content("x")).IsNotFound());
  EXPECT_EQ(storm->object_count(), 1u);
}

TEST(StormTest, UpdateIsOneAtomicMutation) {
  auto storm = Storm::Open({}).value();
  // Put and Delete are one mutation each.
  ASSERT_TRUE(storm->Put(2, Content("scratch")).ok());
  EXPECT_EQ(storm->mutation_epoch(), 1u);
  ASSERT_TRUE(storm->Delete(2).ok());
  EXPECT_EQ(storm->mutation_epoch(), 2u);
  ASSERT_TRUE(storm->Put(1, Content("needle old")).ok());
  EXPECT_EQ(storm->mutation_epoch(), 3u);

  size_t listener_fires = 0;
  uint64_t last_epoch = 0;
  storm->SetMutationListener([&](uint64_t epoch) {
    ++listener_fires;
    last_epoch = epoch;
  });

  const uint64_t before = storm->mutation_epoch();
  ASSERT_TRUE(storm->Update(1, Content("fresh text")).ok());
  EXPECT_EQ(storm->mutation_epoch(), before + 1)
      << "Update must bump the epoch exactly once, not delete+put twice";
  EXPECT_EQ(listener_fires, 1u);
  EXPECT_EQ(last_epoch, before + 1);

  // A miss mutates nothing and stays silent.
  EXPECT_TRUE(storm->Update(99, Content("x")).IsNotFound());
  EXPECT_EQ(storm->mutation_epoch(), before + 1);
  EXPECT_EQ(listener_fires, 1u);
}

TEST(StormTest, UpdateFailurePathKeepsOldObject) {
  auto storm = Storm::Open({}).value();
  ASSERT_TRUE(storm->Put(1, Content("needle old")).ok());
  size_t listener_fires = 0;
  storm->SetMutationListener([&](uint64_t) { ++listener_fires; });
  const uint64_t before = storm->mutation_epoch();

  // Oversized payload: more chunks than a record header can count. The
  // update must fail cleanly with the old object fully retained and no
  // epoch bump / listener fire (the old code lost the object here).
  Bytes huge(ObjectStore::kChunkDataSize * 0x10000, 0);
  Status update = storm->Update(1, huge);
  EXPECT_TRUE(update.IsInvalidArgument()) << update.ToString();
  EXPECT_TRUE(storm->Contains(1));
  EXPECT_EQ(storm->Get(1).value(), Content("needle old"));
  EXPECT_EQ(storm->IndexSearch("needle").value(),
            (std::vector<ObjectId>{1}));
  EXPECT_EQ(storm->mutation_epoch(), before);
  EXPECT_EQ(listener_fires, 0u);
}

TEST(StormTest, ThousandObjectWorkload) {
  // The paper's per-node setup: 1000 objects of 1 KB.
  StormOptions options;
  options.buffer_frames = 32;
  auto storm = Storm::Open(options).value();
  Bytes obj(1024, 0);
  for (ObjectId id = 0; id < 1000; ++id) {
    std::string text = (id % 100 == 0) ? "needle payload" : "plain payload";
    Bytes content(text.begin(), text.end());
    content.resize(1024, ' ');
    ASSERT_TRUE(storm->Put(id, content).ok());
  }
  auto scan = storm->ScanSearch("needle").value();
  EXPECT_EQ(scan.objects_scanned, 1000u);
  EXPECT_EQ(scan.matches.size(), 10u);
  EXPECT_GT(storm->buffer_pool().evictions(), 0u)
      << "workload must exceed the buffer pool";
}

// ------------------------------------------------------- scan property

// ScanSearch matches a view of each object ForEach hands it, without a
// string copy. Property: on seeded stores with empty, single- and
// multi-chunk objects, after deletes, updates and page compaction, over a
// pool smaller than the store, it returns what a Get-per-id loop returns
// and fetches the same pages.

struct ScanCase {
  bool file_backed;
  uint64_t seed;
};

class StormScanPropertyTest : public ::testing::TestWithParam<ScanCase> {};

const char* const kScanWords[] = {"Needle", "hay", "STACK", "peer",
                                  "agent",  "store"};
constexpr size_t kUniformSize = 1000;  // 4 records fill a page exactly.

// Text drawn from a random subset of kScanWords, so that objects of every
// size differ in which queries they match.
Bytes ScanText(Rng& rng, size_t size) {
  std::vector<const char*> words;
  while (words.empty()) {
    for (const char* word : kScanWords) {
      if (rng.NextBool(0.4)) words.push_back(word);
    }
  }
  std::string text;
  while (text.size() < size) {
    text += words[rng.NextBounded(words.size())];
    text += " ,.-"[rng.NextBounded(4)];
  }
  text.resize(size);
  return Content(text);
}

// 1/8 empty, 1/4 multi-chunk, the rest single-chunk.
Bytes RandomScanObject(Rng& rng) {
  const uint64_t kind = rng.NextBounded(8);
  if (kind == 0) return Bytes{};
  if (kind <= 2) {
    return ScanText(rng, ObjectStore::kChunkDataSize + 1 +
                             rng.NextBounded(2 * ObjectStore::kChunkDataSize));
  }
  return ScanText(rng, 1 + rng.NextBounded(1500));
}

// Builds the same store, page for page, for the same case. Two stores of
// one case therefore also start their scans from the same pool state.
std::unique_ptr<Storm> BuildScanStore(const ScanCase& c,
                                      const std::string& path) {
  StormOptions options;
  if (c.file_backed) options.path = path;
  options.buffer_frames = 4;
  std::unique_ptr<Storm> storm = Storm::Open(options).value();
  Rng rng(c.seed);
  Pager* pager = storm->buffer_pool().pager();

  // Full pages of four uniform records; deleting every other one leaves
  // only fragmented space, so the refill fits only by Compact().
  ObjectId id = 0;
  for (; id < 48; ++id) {
    EXPECT_TRUE(storm->Put(id, ScanText(rng, kUniformSize)).ok());
  }
  for (ObjectId odd = 1; odd < 48; odd += 2) {
    EXPECT_TRUE(storm->Delete(odd).ok());
  }
  const PageId uniform_pages = pager->page_count();
  for (; id < 72; ++id) {
    EXPECT_TRUE(storm->Put(id, ScanText(rng, kUniformSize)).ok());
  }
  EXPECT_EQ(pager->page_count(), uniform_pages) << "refill must compact";

  // Random objects, then deletes and updates over everything.
  for (id = 100; id < 220; ++id) {
    EXPECT_TRUE(storm->Put(id, RandomScanObject(rng)).ok());
  }
  for (ObjectId victim : storm->ListIds()) {
    const uint64_t op = rng.NextBounded(4);
    if (op == 0) {
      EXPECT_TRUE(storm->Delete(victim).ok());
    }
    if (op == 1) {
      EXPECT_TRUE(storm->Update(victim, RandomScanObject(rng)).ok());
    }
  }
  for (id = 300; id < 330; ++id) {
    EXPECT_TRUE(storm->Put(id, RandomScanObject(rng)).ok());
  }
  EXPECT_GT(pager->page_count(), 4 * options.buffer_frames)
      << "the store must exceed the buffer pool";
  return storm;
}

struct PoolDelta {
  uint64_t hits = 0;
  uint64_t misses = 0;
};

// ScanSearch spelled out: Get() each id and match a string copy.
Storm::ScanResult ReferenceScan(Storm& storm, std::string_view query) {
  QueryExpr expr = QueryExpr::Parse(query).value();
  expr.Normalize();
  Storm::ScanResult result;
  for (ObjectId id : storm.ListIds()) {
    ++result.objects_scanned;
    Bytes content = storm.Get(id).value();
    if (expr.Matches(ToString(content))) result.matches.push_back(id);
  }
  return result;
}

const char* const kScanQueries[] = {"needle", "hay stack", "peer OR agent",
                                    "store needle OR hay", "absent"};

TEST_P(StormScanPropertyTest, ScanEqualsGetPerIdLoop) {
  const ScanCase c = GetParam();
  const std::string tag = (c.file_backed ? "file" : "mem") +
                          std::to_string(c.seed);
  TempFile scan_file("scan_" + tag);
  TempFile ref_file("ref_" + tag);
  std::unique_ptr<Storm> scanned = BuildScanStore(c, scan_file.path());
  std::unique_ptr<Storm> reference = BuildScanStore(c, ref_file.path());
  ASSERT_EQ(scanned->ListIds(), reference->ListIds());

  size_t empty = 0;
  size_t multi_chunk = 0;
  for (ObjectId id : reference->ListIds()) {
    const size_t size = reference->Get(id).value().size();
    empty += size == 0;
    multi_chunk += size > ObjectStore::kChunkDataSize;
  }
  EXPECT_GT(empty, 0u);
  EXPECT_GT(multi_chunk, 0u);

  size_t total_matches = 0;
  for (const char* query : kScanQueries) {
    BufferPool& scan_pool = scanned->buffer_pool();
    BufferPool& ref_pool = reference->buffer_pool();
    const PoolDelta scan_before{scan_pool.hits(), scan_pool.misses()};
    const PoolDelta ref_before{ref_pool.hits(), ref_pool.misses()};

    Storm::ScanResult got = scanned->ScanSearch(query).value();
    Storm::ScanResult want = ReferenceScan(*reference, query);
    EXPECT_EQ(got.matches, want.matches) << query;
    EXPECT_EQ(got.objects_scanned, want.objects_scanned) << query;
    EXPECT_EQ(scan_pool.hits() - scan_before.hits,
              ref_pool.hits() - ref_before.hits)
        << query;
    EXPECT_EQ(scan_pool.misses() - scan_before.misses,
              ref_pool.misses() - ref_before.misses)
        << query;
    EXPECT_GT(scan_pool.misses() - scan_before.misses, 0u) << query;
    EXPECT_EQ(got.matches, scanned->IndexSearch(query).value()) << query;
    total_matches += got.matches.size();
  }
  EXPECT_GT(total_matches, 0u);

  if (c.file_backed) {
    // Reopening rebuilds the keyword index through the same ForEach.
    ASSERT_TRUE(scanned->Flush().ok());
    std::vector<ObjectId> ids = scanned->ListIds();
    scanned.reset();
    StormOptions options;
    options.path = scan_file.path();
    options.buffer_frames = 4;
    std::unique_ptr<Storm> reopened = Storm::Open(options).value();
    EXPECT_EQ(reopened->ListIds(), ids);
    for (const char* query : kScanQueries) {
      EXPECT_EQ(reopened->IndexSearch(query).value(),
                ReferenceScan(*reference, query).matches)
          << query;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PagersAndSeeds, StormScanPropertyTest,
    ::testing::Values(ScanCase{false, 1}, ScanCase{false, 2},
                      ScanCase{true, 3}, ScanCase{true, 4}),
    [](const ::testing::TestParamInfo<ScanCase>& info) {
      return std::string(info.param.file_backed ? "FilePager" : "MemPager") +
             "Seed" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace bestpeer::storm
