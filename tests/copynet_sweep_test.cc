// Architecture sweep: CopyNet must train across embedding/hidden sizes and
// stay deterministic per seed.
#include <gtest/gtest.h>

#include <tuple>

#include "nn/adam.h"
#include "nn/copynet.h"
#include "nn/copynet_decoder.h"
#include "util/rng.h"

namespace cnpb::nn {
namespace {

class CopyNetSweepTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  void BuildData() {
    util::Rng rng(7);
    const std::vector<std::string> targets = {"演员", "歌手", "作家", "画家"};
    for (const char* w : {"他", "是", "的"}) input_vocab_.Add(w);
    for (const std::string& w : targets) {
      input_vocab_.Add(w);
      output_vocab_.Add(w);
    }
    for (int i = 0; i < 120; ++i) {
      CopyNet::Example example;
      const std::string& target = targets[rng.Uniform(targets.size())];
      example.source_words = {"他", "是", target};
      example.source_ids = input_vocab_.Encode(example.source_words);
      example.target_words = {target};
      examples_.push_back(std::move(example));
    }
  }

  float Train(CopyNet* model, int epochs = 8) {
    Adam::Config adam_config;
    adam_config.lr = 0.03f;
    Adam adam(model->Params(), adam_config);
    float last = 0;
    for (int e = 0; e < epochs; ++e) {
      std::vector<const CopyNet::Example*> batch;
      float loss = 0;
      int batches = 0;
      for (const auto& example : examples_) {
        batch.push_back(&example);
        if (batch.size() == 12) {
          loss += model->AccumulateBatch(batch);
          adam.Step();
          batch.clear();
          ++batches;
        }
      }
      last = loss / batches;
    }
    return last;
  }

  Vocab input_vocab_;
  Vocab output_vocab_;
  std::vector<CopyNet::Example> examples_;
};

TEST_P(CopyNetSweepTest, TrainsAtEveryScale) {
  const auto [embed, hidden] = GetParam();
  BuildData();
  CopyNet::Config config;
  config.embed_dim = embed;
  config.hidden_dim = hidden;
  CopyNet model(&input_vocab_, &output_vocab_, config);
  std::vector<const CopyNet::Example*> probe = {&examples_[0]};
  const float initial = model.AccumulateBatch(probe);
  const float trained = Train(&model);
  EXPECT_LT(trained, initial * 0.6f) << "embed=" << embed
                                     << " hidden=" << hidden;
  // Trained model solves the copy task.
  const CopyNetDecoder decoder(model);
  size_t correct = 0;
  for (const auto& example : examples_) {
    if (decoder.Decode(example.source_ids, example.source_words) ==
        example.target_words[0]) {
      ++correct;
    }
  }
  EXPECT_GT(static_cast<double>(correct) / examples_.size(), 0.9);
}

TEST_P(CopyNetSweepTest, DeterministicPerSeed) {
  const auto [embed, hidden] = GetParam();
  BuildData();
  CopyNet::Config config;
  config.embed_dim = embed;
  config.hidden_dim = hidden;
  CopyNet a(&input_vocab_, &output_vocab_, config);
  CopyNet b(&input_vocab_, &output_vocab_, config);
  std::vector<const CopyNet::Example*> batch;
  for (const auto& example : examples_) batch.push_back(&example);
  EXPECT_FLOAT_EQ(a.AccumulateBatch(batch), b.AccumulateBatch(batch));
}

INSTANTIATE_TEST_SUITE_P(
    Dims, CopyNetSweepTest,
    ::testing::Values(std::make_tuple(8, 12), std::make_tuple(16, 24),
                      std::make_tuple(32, 48)));

}  // namespace
}  // namespace cnpb::nn
