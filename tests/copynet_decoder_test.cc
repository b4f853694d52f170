// CopyNetDecoder against the autograd tape: the frozen decoder's first step
// must equal CopyNet::Encode + DecodeStep bit for bit, and its chosen word
// must equal the string-keyed argmax the tape-era Generate took.
#include "nn/copynet_decoder.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "nn/adam.h"
#include "nn/copynet.h"
#include "util/rng.h"

namespace cnpb::nn {
namespace {

// The tape's first decode step for one source.
CopyNet::StepOutput TapeStep(const CopyNet& model,
                             const std::vector<int>& source_ids) {
  std::vector<Var> states;
  const Var enc_final = model.Encode(source_ids, &states);
  return model.DecodeStep(StackRows(states), enc_final, model.ZeroContext(),
                          Vocab::kPad);
}

// The tape-era Generate's first word: scores summed in a string-keyed map
// over the output vocabulary and the source words. Exact ties, which the map
// broke in iteration order, go to the documented order instead: lowest
// output-vocab id, then earliest source position.
std::string StringMapArgmax(const CopyNet::StepOutput& step,
                            const Vocab& output_vocab,
                            const std::vector<std::string>& source_words,
                            bool use_copy) {
  std::unordered_map<std::string, float> scores;
  const float p_gen = step.p_gen->value[0];
  for (int v = 0; v < output_vocab.size(); ++v) {
    const float p = p_gen * step.p_vocab->value[v];
    if (p > 0.0f) scores[output_vocab.Word(v)] += p;
  }
  if (use_copy) {
    for (size_t j = 0; j < source_words.size(); ++j) {
      scores[source_words[j]] +=
          (1.0f - p_gen) * step.attention->value[static_cast<int>(j)];
    }
  }
  auto rank = [&](const std::string& word) {
    const int id = output_vocab.Find(word);
    if (id >= 0) return static_cast<size_t>(id);
    size_t j = 0;
    while (source_words[j] != word) ++j;
    return output_vocab.size() + j;
  };
  const std::string* best = nullptr;
  float best_score = -1.0f;
  for (const auto& [word, score] : scores) {
    if (word == "<pad>" || word == "<unk>") continue;
    if (score > best_score || (best != nullptr && score == best_score &&
                               rank(word) < rank(*best))) {
      best_score = score;
      best = &word;
    }
  }
  return best == nullptr || *best == "<eos>" ? "" : *best;
}

void ExpectBitEqual(float tape, float decoder, const char* what, int index) {
  EXPECT_EQ(std::bit_cast<uint32_t>(tape), std::bit_cast<uint32_t>(decoder))
      << what << "[" << index << "]: tape " << tape << " decoder " << decoder;
}

// Compares one source end to end; returns the decoded word.
std::string ExpectMatchesTape(const CopyNet& model,
                              const CopyNetDecoder& decoder,
                              const Vocab& output_vocab,
                              const std::vector<int>& source_ids,
                              const std::vector<std::string>& source_words) {
  const CopyNet::StepOutput tape = TapeStep(model, source_ids);
  const CopyNetDecoder::Step step = decoder.Forward(source_ids);
  ExpectBitEqual(tape.p_gen->value[0], step.p_gen, "p_gen", 0);
  EXPECT_EQ(tape.p_vocab->value.size(), step.p_vocab.size());
  for (size_t v = 0; v < step.p_vocab.size(); ++v) {
    ExpectBitEqual(tape.p_vocab->value[v], step.p_vocab[v], "p_vocab",
                   static_cast<int>(v));
  }
  EXPECT_EQ(tape.attention->value.size(), step.attention.size());
  for (size_t j = 0; j < step.attention.size(); ++j) {
    ExpectBitEqual(tape.attention->value[j], step.attention[j], "attention",
                   static_cast<int>(j));
  }
  const std::string word = decoder.Decode(source_ids, source_words);
  EXPECT_EQ(word, StringMapArgmax(tape, output_vocab, source_words,
                                  model.config().use_copy));
  return word;
}

// nn_test's task: the target is the token after 是; some targets are in the
// output vocabulary, some reachable only by copying.
class CopyNetDecoderTest
    : public ::testing::TestWithParam<std::tuple<bool, int>> {
 protected:
  void SetUp() override {
    util::Rng rng(55);
    const std::vector<std::string> in_vocab_targets = {"演员", "歌手", "作家"};
    const std::vector<std::string> oov_only_targets = {"雕塑家", "飞行员"};
    for (const char* w : {"他", "她", "是", "著名", "的"}) input_vocab_.Add(w);
    for (const std::string& w : in_vocab_targets) {
      input_vocab_.Add(w);
      output_vocab_.Add(w);
    }
    for (const std::string& w : oov_only_targets) input_vocab_.Add(w);
    for (int i = 0; i < 120; ++i) {
      const std::string& target =
          i % 3 == 0 ? oov_only_targets[rng.Uniform(oov_only_targets.size())]
                     : in_vocab_targets[rng.Uniform(in_vocab_targets.size())];
      CopyNet::Example example;
      example.source_words = {rng.Bernoulli(0.5) ? "他" : "她", "是", "著名",
                              "的", target};
      example.source_ids = input_vocab_.Encode(example.source_words);
      example.target_words = {target};
      examples_.push_back(std::move(example));
    }
  }

  CopyNet::Config ModelConfig() const {
    const auto [use_copy, hidden] = GetParam();
    CopyNet::Config config;
    config.embed_dim = hidden == 6 ? 5 : 12;
    config.hidden_dim = hidden;
    config.use_copy = use_copy;
    return config;
  }

  void Train(CopyNet* model) {
    Adam::Config adam_config;
    adam_config.lr = 0.02f;
    Adam adam(model->Params(), adam_config);
    for (int epoch = 0; epoch < 6; ++epoch) {
      std::vector<const CopyNet::Example*> batch;
      for (const auto& example : examples_) {
        batch.push_back(&example);
        if (batch.size() == 16) {
          model->AccumulateBatch(batch);
          adam.Step();
          batch.clear();
        }
      }
    }
  }

  Vocab input_vocab_;
  Vocab output_vocab_;
  std::vector<CopyNet::Example> examples_;
};

TEST_P(CopyNetDecoderTest, UntrainedModelMatchesTape) {
  CopyNet model(&input_vocab_, &output_vocab_, ModelConfig());
  const CopyNetDecoder decoder(model);
  for (const auto& example : examples_) {
    ExpectMatchesTape(model, decoder, output_vocab_, example.source_ids,
                      example.source_words);
  }
}

TEST_P(CopyNetDecoderTest, TrainedModelMatchesTape) {
  CopyNet model(&input_vocab_, &output_vocab_, ModelConfig());
  Train(&model);
  const CopyNetDecoder decoder(model);
  size_t correct = 0;
  for (const auto& example : examples_) {
    const std::string word =
        ExpectMatchesTape(model, decoder, output_vocab_, example.source_ids,
                          example.source_words);
    if (word == example.target_words[0]) ++correct;
  }
  // The comparison is over a model that learned the task, not noise.
  EXPECT_GT(correct, examples_.size() / 2);
}

TEST_P(CopyNetDecoderTest, EdgeCaseSourcesMatchTape) {
  CopyNet model(&input_vocab_, &output_vocab_, ModelConfig());
  Train(&model);
  const CopyNetDecoder decoder(model);
  EXPECT_EQ(decoder.Decode({}, {}), "");
  const std::vector<std::vector<std::string>> sources = {
      {"陌生", "词语", "罕见"},     // out of both vocabularies
      {"著名", "的", "雕塑家"},     // input-vocab words, none in the output
      {"未见"},
      {"他", "是", "<eos>"},
      {"他", "是", "<unk>"},
      {"他", "是", ""},
      {"<pad>", "", "<eos>", "<unk>", ""},
      {"她", "是", "演员", "演员", "飞行员", "飞行员"},
  };
  for (const auto& words : sources) {
    std::string joined;
    for (const std::string& w : words) joined += "[" + w + "]";
    SCOPED_TRACE(joined);
    ExpectMatchesTape(model, decoder, output_vocab_,
                      input_vocab_.Encode(words), words);
  }
  // A source made only of OOV ids still decodes.
  ExpectMatchesTape(model, decoder, output_vocab_,
                    {Vocab::kUnk, Vocab::kUnk, Vocab::kUnk},
                    {"甲", "乙", "丙"});
}

TEST_P(CopyNetDecoderTest, DecoderIsFrozenAtConstruction) {
  CopyNet model(&input_vocab_, &output_vocab_, ModelConfig());
  const CopyNetDecoder before(model);
  const CopyNetDecoder::Step first = before.Forward(examples_[0].source_ids);
  Train(&model);
  const CopyNetDecoder::Step again = before.Forward(examples_[0].source_ids);
  ExpectBitEqual(first.p_gen, again.p_gen, "p_gen", 0);
  ExpectMatchesTape(model, CopyNetDecoder(model), output_vocab_,
                    examples_[0].source_ids, examples_[0].source_words);
}

INSTANTIATE_TEST_SUITE_P(
    CopyAndHidden, CopyNetDecoderTest,
    ::testing::Combine(::testing::Bool(), ::testing::Values(6, 20)),
    [](const ::testing::TestParamInfo<std::tuple<bool, int>>& info) {
      return std::string(std::get<0>(info.param) ? "Copy" : "NoCopy") +
             "Hidden" + std::to_string(std::get<1>(info.param));
    });

// Exact ties, built by zeroing the attention, gate and output weights: the
// attention is uniform, p_gen is sigmoid(0) = 0.5 or sigmoid(-200) = 0, and
// the output logits are 0 for real words and -200 (exp underflows to 0) for
// the reserved ones.
class CopyNetTieTest : public ::testing::Test {
 protected:
  CopyNetTieTest() {
    for (const char* w : {"甲", "乙"}) output_vocab_.Add(w);
    CopyNet::Config config;
    config.embed_dim = 4;
    config.hidden_dim = 6;
    model_ = std::make_unique<CopyNet>(&input_vocab_, &output_vocab_, config);
    // Params() ends with attn, out and copy_gate, each weight then bias.
    const std::vector<Var> params = model_->Params();
    const size_t n = params.size();
    for (size_t i = n - 6; i < n; ++i) params[i]->value.Fill(0.0f);
    Tensor& out_bias = params[n - 3]->value;
    for (int id : {Vocab::kPad, Vocab::kUnk, Vocab::kEos}) {
      out_bias[id] = -200.0f;
    }
    gate_bias_ = &params[n - 1]->value;
  }

  std::string Decode(const std::vector<std::string>& words) {
    const CopyNetDecoder decoder(*model_);
    return ExpectMatchesTape(*model_, decoder, output_vocab_,
                             input_vocab_.Encode(words), words);
  }

  Vocab input_vocab_;
  Vocab output_vocab_;
  std::unique_ptr<CopyNet> model_;
  Tensor* gate_bias_ = nullptr;
};

TEST_F(CopyNetTieTest, LowestVocabIdWinsOverLaterIdsAndCopies) {
  const CopyNetDecoder decoder(*model_);
  const std::vector<std::string> words = {"丙", "丁"};
  const CopyNetDecoder::Step step = decoder.Forward(input_vocab_.Encode(words));
  // 甲, 乙, 丙 and 丁 all score exactly 0.25.
  ASSERT_EQ(step.p_gen, 0.5f);
  ASSERT_EQ(step.p_vocab[3], 0.5f);
  ASSERT_EQ(step.p_vocab[4], 0.5f);
  ASSERT_EQ(step.attention[0], 0.5f);
  ASSERT_EQ(step.attention[1], 0.5f);
  EXPECT_EQ(Decode(words), "甲");
}

TEST_F(CopyNetTieTest, EarliestSourcePositionWinsAmongCopies) {
  (*gate_bias_)[0] = -200.0f;  // p_gen = 0: only copies are live
  EXPECT_EQ(Decode({"丁", "丙"}), "丁");
  EXPECT_EQ(Decode({"丙", "丁"}), "丙");
  // A word repeated later still ranks by its first position.
  EXPECT_EQ(Decode({"丙", "丁", "丙", "丁"}), "丙");
}

}  // namespace
}  // namespace cnpb::nn
