#include <gtest/gtest.h>

#include <cmath>

#include "text/lexicon.h"
#include "text/ngram.h"
#include "text/segmenter.h"
#include "text/trie_matcher.h"
#include "text/utf8.h"

namespace cnpb::text {
namespace {

// ---- utf8 -------------------------------------------------------------------

TEST(Utf8Test, DecodeAsciiAndHan) {
  size_t pos = 0;
  EXPECT_EQ(DecodeCodepointAt("a", pos), U'a');
  EXPECT_EQ(pos, 1u);
  pos = 0;
  EXPECT_EQ(DecodeCodepointAt("中", pos), U'中');
  EXPECT_EQ(pos, 3u);
}

TEST(Utf8Test, RoundTripEncodeDecode) {
  for (char32_t cp : {U'a', U'中', U'文', char32_t(0x10000), char32_t(0x7FF)}) {
    const std::string encoded = EncodeCodepoint(cp);
    size_t pos = 0;
    EXPECT_EQ(DecodeCodepointAt(encoded, pos), cp);
    EXPECT_EQ(pos, encoded.size());
  }
}

TEST(Utf8Test, InvalidBytesBecomeReplacement) {
  std::string bad = "\xFF\xFE";
  size_t pos = 0;
  EXPECT_EQ(DecodeCodepointAt(bad, pos), kReplacementChar);
  EXPECT_EQ(pos, 1u);  // advanced one byte, no infinite loop
}

TEST(Utf8Test, TruncatedSequenceIsReplacement) {
  std::string truncated = "\xE4\xB8";  // 中 missing last byte
  size_t pos = 0;
  EXPECT_EQ(DecodeCodepointAt(truncated, pos), kReplacementChar);
  // The whole damaged sequence is consumed, not just its first byte.
  EXPECT_EQ(pos, 2u);
}

TEST(Utf8Test, TruncatedSequencesMidStringResync) {
  // One damaged character must yield exactly one U+FFFD and decoding must
  // resynchronise on the next character — regression for the cascade where
  // each leftover continuation byte became its own replacement.
  struct Case {
    std::string damaged;  // lead byte + partial continuation run
    const char* label;
  };
  const Case cases[] = {
      {"\xC3", "2-byte, missing 1"},          // Ã lead alone
      {"\xE4\xB8", "3-byte, missing 1"},      // 中 missing last byte
      {"\xE4", "3-byte, missing 2"},
      {"\xF0\x9F\x92", "4-byte, missing 1"},  // 💊 missing last byte
      {"\xF0\x9F", "4-byte, missing 2"},
      {"\xF0", "4-byte, missing 3"},
  };
  for (const Case& c : cases) {
    const std::string s = "a" + c.damaged + "中b";
    const std::vector<char32_t> decoded = DecodeString(s);
    ASSERT_EQ(decoded.size(), 4u) << c.label;
    EXPECT_EQ(decoded[0], U'a') << c.label;
    EXPECT_EQ(decoded[1], kReplacementChar) << c.label;
    EXPECT_EQ(decoded[2], U'中') << c.label;
    EXPECT_EQ(decoded[3], U'b') << c.label;
    EXPECT_EQ(NumCodepoints(s), 4u) << c.label;
  }
}

TEST(Utf8Test, CorruptedContinuationResyncsAtOffendingByte) {
  // 4-byte lead, two valid continuations, then an ASCII byte: the ASCII byte
  // must survive as itself, in sync.
  const std::string s = "\xF0\x9F\x92x中";
  const std::vector<char32_t> decoded = DecodeString(s);
  ASSERT_EQ(decoded.size(), 3u);
  EXPECT_EQ(decoded[0], kReplacementChar);
  EXPECT_EQ(decoded[1], U'x');
  EXPECT_EQ(decoded[2], U'中');
}

TEST(Utf8Test, StrayContinuationRunIsOneReplacement) {
  const std::string s = "ab\x80\x80\x80xy";
  const std::vector<char32_t> decoded = DecodeString(s);
  ASSERT_EQ(decoded.size(), 5u);
  EXPECT_EQ(decoded[0], U'a');
  EXPECT_EQ(decoded[1], U'b');
  EXPECT_EQ(decoded[2], kReplacementChar);
  EXPECT_EQ(decoded[3], U'x');
  EXPECT_EQ(decoded[4], U'y');
}

TEST(Utf8Test, OverlongEncodingRejected) {
  std::string overlong = "\xC0\x80";  // overlong NUL
  size_t pos = 0;
  EXPECT_EQ(DecodeCodepointAt(overlong, pos), kReplacementChar);
}

TEST(Utf8Test, CodepointStrings) {
  const auto cps = CodepointStrings("汉字ab");
  ASSERT_EQ(cps.size(), 4u);
  EXPECT_EQ(cps[0], "汉");
  EXPECT_EQ(cps[1], "字");
  EXPECT_EQ(cps[2], "a");
  EXPECT_EQ(cps[3], "b");
}

TEST(Utf8Test, NumCodepointsAndSubstr) {
  EXPECT_EQ(NumCodepoints("男演员"), 3u);
  EXPECT_EQ(SubstrByCodepoint("男演员", 1, 2), "演员");
  EXPECT_EQ(SubstrByCodepoint("男演员", 0, 1), "男");
  EXPECT_EQ(SubstrByCodepoint("男演员", 2, 99), "员");
  EXPECT_EQ(SubstrByCodepoint("男演员", 5, 1), "");
}

TEST(Utf8Test, HanDetection) {
  EXPECT_TRUE(IsAllHan("男演员"));
  EXPECT_FALSE(IsAllHan("abc"));
  EXPECT_FALSE(IsAllHan("男a"));
  EXPECT_FALSE(IsAllHan(""));
  EXPECT_TRUE(IsHanCodepoint(U'中'));
  EXPECT_FALSE(IsHanCodepoint(U'。'));
}

// ---- lexicon ------------------------------------------------------------------

TEST(LexiconTest, AddAndQuery) {
  Lexicon lex;
  lex.Add("演员", 100, Pos::kNoun);
  lex.Add("刘德华", 10, Pos::kProperNoun);
  lex.Add("演员", 50);  // accumulate
  EXPECT_TRUE(lex.Contains("演员"));
  EXPECT_EQ(lex.Freq("演员"), 150u);
  EXPECT_EQ(lex.PosOf("演员"), Pos::kNoun);
  EXPECT_EQ(lex.PosOf("刘德华"), Pos::kProperNoun);
  EXPECT_EQ(lex.PosOf("不存在"), Pos::kOther);
  EXPECT_EQ(lex.total_freq(), 160u);
  EXPECT_EQ(lex.max_word_codepoints(), 3u);
}

TEST(LexiconTest, ProbabilitySumsAndOrders) {
  Lexicon lex;
  lex.Add("高频", 1000);
  lex.Add("低频", 1);
  EXPECT_GT(lex.Probability("高频"), lex.Probability("低频"));
  EXPECT_GT(lex.Probability("未知"), 0.0);
}

TEST(LexiconTest, SaveLoadRoundTrip) {
  Lexicon lex;
  lex.Add("演员", 100, Pos::kNoun);
  lex.Add("北京", 50, Pos::kProperNoun);
  const std::string path = ::testing::TempDir() + "/lexicon_test.tsv";
  ASSERT_TRUE(lex.Save(path).ok());
  auto loaded = Lexicon::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->Freq("演员"), 100u);
  EXPECT_EQ(loaded->PosOf("北京"), Pos::kProperNoun);
  std::remove(path.c_str());
}

// ---- segmenter -----------------------------------------------------------------

class SegmenterTest : public ::testing::Test {
 protected:
  SegmenterTest() {
    lex_.Add("蚂蚁金服", 20, Pos::kProperNoun);
    lex_.Add("首席", 1000);
    lex_.Add("战略官", 800);
    lex_.Add("男演员", 200);
    lex_.Add("演员", 300);
    lex_.Add("中国", 500, Pos::kProperNoun);
    lex_.Add("香港", 400, Pos::kProperNoun);
    lex_.Add("中国香港", 250, Pos::kProperNoun);
    lex_.Add("出生", 600);
    lex_.Add("于", 2000);
  }
  Lexicon lex_;
};

TEST_F(SegmenterTest, PrefersLongWords) {
  Segmenter seg(&lex_);
  EXPECT_EQ(seg.Segment("蚂蚁金服首席战略官"),
            (std::vector<std::string>{"蚂蚁金服", "首席", "战略官"}));
}

TEST_F(SegmenterTest, CompoundConceptStaysWhole) {
  Segmenter seg(&lex_);
  EXPECT_EQ(seg.Segment("中国香港男演员"),
            (std::vector<std::string>{"中国香港", "男演员"}));
}

TEST_F(SegmenterTest, OovFallsApartIntoCodepoints) {
  Segmenter seg(&lex_);
  const auto words = seg.Segment("魑魅魍魉");
  EXPECT_EQ(words.size(), 4u);
}

TEST_F(SegmenterTest, MixedScriptTokens) {
  Segmenter seg(&lex_);
  const auto words = seg.Segment("1961年出生于中国");
  // "1961" one token, then 年 (OOV single), 出生, 于, 中国.
  ASSERT_GE(words.size(), 4u);
  EXPECT_EQ(words[0], "1961");
  EXPECT_EQ(words.back(), "中国");
}

TEST_F(SegmenterTest, WhitespaceDroppedPunctuationKept) {
  Segmenter seg(&lex_);
  const auto words = seg.Segment("出生 于。");
  EXPECT_EQ(words, (std::vector<std::string>{"出生", "于", "。"}));
}

TEST_F(SegmenterTest, EmptyInput) {
  Segmenter seg(&lex_);
  EXPECT_TRUE(seg.Segment("").empty());
}

TEST_F(SegmenterTest, ConcatenationRoundTrip) {
  Segmenter seg(&lex_);
  const std::string sentence = "蚂蚁金服首席战略官出生于中国香港";
  std::string rebuilt;
  for (const auto& w : seg.Segment(sentence)) rebuilt += w;
  EXPECT_EQ(rebuilt, sentence);
}

// ---- ngram / PMI -----------------------------------------------------------------

TEST(NgramTest, CountsAndPmi) {
  NgramCounter counter;
  // 首席+战略官 always adjacent; 中国 appears with varied neighbours.
  for (int i = 0; i < 50; ++i) {
    counter.AddSentence({"他", "担任", "首席", "战略官"});
  }
  for (int i = 0; i < 50; ++i) {
    counter.AddSentence({"中国", i % 2 == 0 ? "北京" : "上海"});
  }
  EXPECT_EQ(counter.UnigramCount("首席"), 50u);
  EXPECT_EQ(counter.BigramCount("首席", "战略官"), 50u);
  EXPECT_EQ(counter.BigramCount("战略官", "首席"), 0u);
  // Collocated pair binds tighter than a cross pair.
  EXPECT_GT(counter.Pmi("首席", "战略官"), counter.Pmi("担任", "战略官"));
  // Unseen pairs get strongly negative PMI but stay finite.
  const double unseen = counter.Pmi("北京", "战略官");
  EXPECT_LT(unseen, 0.0);
  EXPECT_TRUE(std::isfinite(unseen));
}

TEST(NgramTest, PmiSymmetryIsDirectional) {
  NgramCounter counter;
  counter.AddSentence({"a", "b"});
  EXPECT_GT(counter.Pmi("a", "b"), counter.Pmi("b", "a"));
}

// ---- trie matcher ----------------------------------------------------------------

TEST(TrieMatcherTest, ExactLookup) {
  TrieMatcher trie;
  trie.Add("刘德华", 7);
  trie.Add("刘德", 3);
  EXPECT_TRUE(trie.ContainsExact("刘德华"));
  EXPECT_TRUE(trie.ContainsExact("刘德"));
  EXPECT_FALSE(trie.ContainsExact("刘"));
  EXPECT_EQ(trie.PayloadOf("刘德华"), 7u);
  EXPECT_EQ(trie.size(), 2u);
}

TEST(TrieMatcherTest, LongestMatchWins) {
  TrieMatcher trie;
  trie.Add("演员", 1);
  trie.Add("男演员", 2);
  const auto matches = trie.FindAll("他是男演员。");
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].text, "男演员");
  EXPECT_EQ(matches[0].payload, 2u);
}

TEST(TrieMatcherTest, NonOverlappingLeftToRight) {
  TrieMatcher trie;
  trie.Add("北京", 1);
  trie.Add("大学", 2);
  const auto matches = trie.FindAll("北京大学在北京");
  ASSERT_EQ(matches.size(), 3u);
  EXPECT_EQ(matches[0].text, "北京");
  EXPECT_EQ(matches[1].text, "大学");
  EXPECT_EQ(matches[2].text, "北京");
}

TEST(TrieMatcherTest, NoMatchAdvancesByCodepoint) {
  TrieMatcher trie;
  trie.Add("演员", 1);
  const auto matches = trie.FindAll("没有匹配词");
  EXPECT_TRUE(matches.empty());
}

TEST(TrieMatcherTest, RepeatedAddLastPayloadWins) {
  TrieMatcher trie;
  trie.Add("演员", 1);
  trie.Add("演员", 9);
  EXPECT_EQ(trie.size(), 1u);
  EXPECT_EQ(trie.PayloadOf("演员"), 9u);
}

}  // namespace
}  // namespace cnpb::text
