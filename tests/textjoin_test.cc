#include <gtest/gtest.h>

#include "textjoin/matchers.h"
#include "textjoin/text_search.h"

namespace pexeso {
namespace {

TEST(EquiMatcherTest, ExactMatchIgnoringCaseAndSpace) {
  EquiMatcher m;
  EXPECT_TRUE(m.MatchRecords("White", " white "));
  EXPECT_FALSE(m.MatchRecords("White", "Whit"));
}

TEST(EquiMatcherTest, PreparedColumnsUseHashLookup) {
  std::vector<std::vector<std::string>> cols = {{"White", "Black"},
                                                {"Asian"}};
  EquiMatcher m;
  m.PrepareColumns(&cols);
  EXPECT_TRUE(m.MatchAny("white", 0));
  EXPECT_FALSE(m.MatchAny("white", 1));
}

TEST(JaccardMatcherTest, SimilarityValues) {
  EXPECT_DOUBLE_EQ(JaccardMatcher::Similarity("a b c", "a b c"), 1.0);
  EXPECT_DOUBLE_EQ(JaccardMatcher::Similarity("a b", "b c"), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(JaccardMatcher::Similarity("a", "b"), 0.0);
}

TEST(JaccardMatcherTest, ThresholdGatesMatch) {
  JaccardMatcher strict(0.9), loose(0.3);
  EXPECT_FALSE(strict.MatchRecords("mario party", "mario kart"));
  EXPECT_TRUE(loose.MatchRecords("mario party", "mario kart"));
}

TEST(JaccardTokenIndexTest, AcceleratedMatchAnyIsExact) {
  // Token-index MatchAny must agree with the brute-force default on random
  // record sets (including token-free records).
  std::vector<std::vector<std::string>> cols = {
      {"mario party", "zelda breath wild", "metroid", "...", ""},
      {"alpha beta", "gamma delta", "beta gamma"},
  };
  for (double th : {0.2, 0.5, 0.99}) {
    JaccardMatcher indexed(th);
    indexed.PrepareColumns(&cols);
    for (const std::string& q :
         {std::string("mario kart"), std::string("zelda"),
          std::string("beta"), std::string("unknown tokens"),
          std::string(""), std::string("!!!")}) {
      for (ColumnId c = 0; c < cols.size(); ++c) {
        // Brute force over the raw records.
        bool expected = false;
        for (const auto& r : cols[c]) {
          if (JaccardMatcher::Similarity(q, r) >= th) expected = true;
        }
        EXPECT_EQ(indexed.MatchAny(q, c), expected)
            << "q='" << q << "' col=" << c << " th=" << th;
      }
    }
  }
}

TEST(JaccardTokenIndexTest, ZeroThresholdFallsBackToScan) {
  // Jaccard >= 0 matches everything; the token filter would wrongly prune,
  // so the matcher must take the exhaustive path.
  std::vector<std::vector<std::string>> cols = {{"totally different"}};
  JaccardMatcher m(0.0);
  m.PrepareColumns(&cols);
  EXPECT_TRUE(m.MatchAny("no shared tokens", 0));
}

TEST(EditMatcherTest, SimilarityAndThreshold) {
  EXPECT_DOUBLE_EQ(EditMatcher::Similarity("abc", "abc"), 1.0);
  EXPECT_NEAR(EditMatcher::Similarity("kitten", "sitting"), 1.0 - 3.0 / 7.0,
              1e-12);
  EditMatcher m(0.8);
  EXPECT_TRUE(m.MatchRecords("nintendo", "nintndo"));
  EXPECT_FALSE(m.MatchRecords("nintendo", "sega"));
}

TEST(FuzzyMatcherTest, ToleratesTokenTyposAndReorder) {
  FuzzyMatcher m(0.75, 0.6);
  EXPECT_TRUE(m.MatchRecords("john smith", "smith john"));
  EXPECT_TRUE(m.MatchRecords("john smith", "jon smith"));
  EXPECT_FALSE(m.MatchRecords("john smith", "mary jones"));
}

TEST(FuzzyMatcherTest, SimilarityIsSymmetricEnough) {
  const double ab = FuzzyMatcher::Similarity("alpha beta", "alpha bets", 0.7);
  const double ba = FuzzyMatcher::Similarity("alpha bets", "alpha beta", 0.7);
  EXPECT_NEAR(ab, ba, 1e-12);
  EXPECT_GT(ab, 0.9);
}

TEST(TfIdfMatcherTest, RareTokensDominate) {
  // "zyx" is rare in the corpus; sharing it outweighs sharing "the".
  std::vector<std::vector<std::string>> cols = {
      {"the zyx", "the abc", "the def", "the ghi", "the jkl"}};
  TfIdfMatcher m(0.5);
  m.PrepareColumns(&cols);
  EXPECT_TRUE(m.MatchRecords("zyx report", "the zyx"));
  EXPECT_FALSE(m.MatchRecords("the report", "the abc"));
}

TEST(TfIdfMatcherTest, MatchAnyUsesPrecomputedVectors) {
  std::vector<std::vector<std::string>> cols = {
      {"mario party", "zelda breath"}, {"excel spreadsheet"}};
  TfIdfMatcher m(0.5);
  m.PrepareColumns(&cols);
  EXPECT_TRUE(m.MatchAny("mario party", 0));
  EXPECT_FALSE(m.MatchAny("mario party", 1));
}

TEST(TextJoinSearcherTest, FindsJoinableColumnsByThreshold) {
  std::vector<std::vector<std::string>> cols = {
      {"white", "black", "asian"},          // full overlap
      {"white", "red", "green"},            // 1/3 overlap
      {"cat", "dog", "bird"},               // none
  };
  EquiMatcher m;
  m.PrepareColumns(&cols);
  TextJoinSearcher searcher(&cols);
  std::vector<std::string> query = {"White", "Black", "Asian"};

  auto strict = searcher.Search(query, m, 0.9);
  ASSERT_EQ(strict.size(), 1u);
  EXPECT_EQ(strict[0].column, 0u);

  auto loose = searcher.Search(query, m, 0.3);
  ASSERT_EQ(loose.size(), 2u);
  EXPECT_EQ(loose[1].column, 1u);
}

TEST(TextJoinSearcherTest, EarlyTerminationDoesNotChangeResults) {
  // With T = 1 record, any column containing >= 1 query value is joinable.
  std::vector<std::vector<std::string>> cols = {{"a"}, {"b"}, {"zz"}};
  EquiMatcher m;
  m.PrepareColumns(&cols);
  TextJoinSearcher searcher(&cols);
  auto r = searcher.Search({"a", "b", "c"}, m, 0.01);
  EXPECT_EQ(r.size(), 2u);
}

TEST(TextJoinSearcherTest, MatchRatioCountsProbes) {
  std::vector<std::vector<std::string>> cols = {{"a", "b"}, {"c"}};
  EquiMatcher m;
  m.PrepareColumns(&cols);
  TextJoinSearcher searcher(&cols);
  const double ratio = searcher.MatchRatio({"a", "c"}, m, {0, 1});
  // probes: (a,0)=hit, (c,0)=miss, (a,1)=miss, (c,1)=hit -> 0.5
  EXPECT_DOUBLE_EQ(ratio, 0.5);
}

TEST(TextJoinSearcherTest, EmptyQueryYieldsNothing) {
  std::vector<std::vector<std::string>> cols = {{"a"}};
  EquiMatcher m;
  m.PrepareColumns(&cols);
  TextJoinSearcher searcher(&cols);
  EXPECT_TRUE(searcher.Search({}, m, 0.5).empty());
}

}  // namespace
}  // namespace pexeso
