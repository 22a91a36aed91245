#include <gtest/gtest.h>

#include "storm/query_expr.h"
#include "storm/storm.h"
#include "util/rng.h"
#include "util/strings.h"

namespace bestpeer::storm {
namespace {

Bytes Content(const std::string& s) { return Bytes(s.begin(), s.end()); }

// ---------------------------------------------------------------- parsing

TEST(QueryExprTest, SingleTerm) {
  auto expr = QueryExpr::Parse("needle").value();
  EXPECT_EQ(expr.branch_count(), 1u);
  EXPECT_EQ(expr.term_count(), 1u);
  EXPECT_EQ(expr.ToString(), "needle");
}

TEST(QueryExprTest, ImplicitAnd) {
  auto expr = QueryExpr::Parse("peer  agents").value();
  EXPECT_EQ(expr.branch_count(), 1u);
  EXPECT_EQ(expr.term_count(), 2u);
  EXPECT_EQ(expr.ToString(), "peer agents");
}

TEST(QueryExprTest, OrBranches) {
  auto expr = QueryExpr::Parse("mp3 beatles OR flac").value();
  EXPECT_EQ(expr.branch_count(), 2u);
  EXPECT_EQ(expr.term_count(), 3u);
  EXPECT_EQ(expr.ToString(), "mp3 beatles OR flac");
}

TEST(QueryExprTest, TermsAreLowercased) {
  auto expr = QueryExpr::Parse("NeedLe").value();
  EXPECT_EQ(expr.dnf()[0][0], "needle");
}

TEST(QueryExprTest, RejectsEmptyAndDangling) {
  EXPECT_FALSE(QueryExpr::Parse("").ok());
  EXPECT_FALSE(QueryExpr::Parse("   ").ok());
  EXPECT_FALSE(QueryExpr::Parse("a OR").ok());
  EXPECT_FALSE(QueryExpr::Parse("OR b").ok());
  EXPECT_FALSE(QueryExpr::Parse("a OR OR b").ok());
}

// ---------------------------------------------------------------- matching

TEST(QueryExprTest, AndSemantics) {
  auto expr = QueryExpr::Parse("peer agents").value();
  EXPECT_TRUE(expr.Matches("mobile agents in peer networks"));
  EXPECT_FALSE(expr.Matches("mobile agents only"));
  EXPECT_FALSE(expr.Matches("peer networks only"));
}

TEST(QueryExprTest, OrSemantics) {
  auto expr = QueryExpr::Parse("alpha beta OR gamma").value();
  EXPECT_TRUE(expr.Matches("alpha and beta here"));
  EXPECT_TRUE(expr.Matches("just gamma"));
  EXPECT_FALSE(expr.Matches("alpha without the second"));
}

TEST(QueryExprTest, WholeTokenMatching) {
  auto expr = QueryExpr::Parse("needle").value();
  EXPECT_FALSE(expr.Matches("needles"));
  EXPECT_TRUE(expr.Matches("a NEEDLE!"));
}

// ------------------------------------------------------- storm integration

TEST(StormQueryTest, MultiKeywordScan) {
  auto storm = Storm::Open({}).value();
  storm->Put(1, Content("alpha beta gamma")).ok();
  storm->Put(2, Content("alpha delta")).ok();
  storm->Put(3, Content("gamma only")).ok();

  auto both = storm->ScanSearch("alpha beta").value();
  EXPECT_EQ(both.matches, (std::vector<ObjectId>{1}));
  auto either = storm->ScanSearch("beta OR delta").value();
  EXPECT_EQ(either.matches, (std::vector<ObjectId>{1, 2}));
  EXPECT_FALSE(storm->ScanSearch("").ok());
}

TEST(StormQueryTest, IndexMatchesScanOnRandomQueries) {
  StormOptions options;
  options.build_index = true;
  auto storm = Storm::Open(options).value();
  bestpeer::Rng rng(5);
  const char* words[] = {"alpha", "beta", "gamma", "delta", "epsilon"};
  for (ObjectId id = 0; id < 60; ++id) {
    std::string text;
    for (int w = 0; w < 3; ++w) {
      text += words[rng.NextBounded(5)];
      text += ' ';
    }
    storm->Put(id, Content(text)).ok();
  }
  const char* queries[] = {"alpha",          "alpha beta",
                           "alpha OR beta",  "gamma delta OR epsilon",
                           "beta gamma",     "epsilon OR alpha beta"};
  for (const char* q : queries) {
    auto scan = storm->ScanSearch(q).value();
    auto indexed = storm->IndexSearch(q).value();
    EXPECT_EQ(scan.matches, indexed) << "query: " << q;
  }
}

}  // namespace
}  // namespace bestpeer::storm
