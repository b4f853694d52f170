// Golden training runs: CopyNet trained on fixed data must save exactly the
// same parameter bytes, run after run and change after change. Any change to
// the autograd tape, its kernels or the optimizer that moves a single
// trained bit fails here. The constants are CRC32s of the saved `.params`
// files, captured on x86-64 Linux with GCC 12 and glibc's libm (whose exp,
// log and tanh the tape calls); -ffp-contract=off keeps them free of FMA.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "generation/neural_generation.h"
#include "generation/separation.h"
#include "nn/adam.h"
#include "nn/copynet.h"
#include "nn/serialize.h"
#include "nn/vocab.h"
#include "synth/corpus_gen.h"
#include "synth/encyclopedia_gen.h"
#include "synth/world.h"
#include "text/ngram.h"
#include "text/segmenter.h"
#include "util/atomic_file.h"
#include "util/rng.h"

namespace cnpb {
namespace {

class CopyNetGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("cnpb_copynet_golden_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  // CRC32 of a whole file.
  static uint32_t FileCrc(const std::string& path) {
    auto content = util::ReadFileToString(path);
    EXPECT_TRUE(content.ok()) << path;
    return content.ok() ? util::Crc32(*content) : 0;
  }

  std::filesystem::path dir_;
};

// perfbench's set-up, up to the training: a 4000-entity world, the first 70%
// of its pages as the base, the bracket prior over them, and CopyNet with
// one epoch over at most 1000 samples, as cnprobase_serve configures it.
TEST_F(CopyNetGoldenTest, PerfbenchShapedTrainingSavesGoldenParams) {
  synth::WorldModel::Config wc;
  wc.num_entities = 4000;
  const synth::WorldModel world = synth::WorldModel::Generate(wc);
  const auto output = synth::EncyclopediaGenerator::Generate(world, {});
  text::Segmenter segmenter(&world.lexicon());
  const auto corpus = synth::CorpusGenerator::Generate(world, output.dump,
                                                       segmenter, {});
  text::NgramCounter ngrams;
  for (const auto& sentence : corpus.sentences) {
    std::vector<std::string> words;
    for (const auto& token : sentence) words.push_back(token.word);
    ngrams.AddSentence(words);
  }
  kb::EncyclopediaDump base;
  const size_t base_pages = static_cast<size_t>(output.dump.size() * 0.7);
  for (size_t i = 0; i < base_pages; ++i) {
    kb::EncyclopediaPage page = output.dump.page(i);
    page.page_id = 0;
    base.AddPage(std::move(page));
  }
  const generation::CandidateList prior =
      generation::BracketExtractor(&segmenter, &ngrams).Extract(base);

  generation::NeuralGeneration::Config config;
  config.epochs = 1;
  config.max_train_samples = 1000;
  generation::NeuralGeneration neural(config);
  neural.BuildDataset(base, prior, segmenter);
  const auto stats = neural.Train();
  EXPECT_EQ(stats.num_samples, 900u);
  EXPECT_EQ(stats.input_vocab_size, 803u);
  EXPECT_EQ(stats.output_vocab_size, 5u);

  const std::string prefix = (dir_ / "perfbench").string();
  ASSERT_TRUE(neural.Save(prefix).ok());
  EXPECT_EQ(FileCrc(prefix + ".params"), 0xe47eff30u);
}

// nn_test's CopyNetTest task (the target is the token after 是, a third of
// them reachable only by copying), trained for its 12 epochs of 16-example
// batches. Without copying, the OOV targets take the unreachable-target
// branch.
void TrainCopyNetTestTask(bool use_copy, const std::string& path) {
  util::Rng rng(55);
  nn::Vocab input_vocab, output_vocab;
  const std::vector<std::string> in_vocab_targets = {"演员", "歌手", "作家"};
  const std::vector<std::string> oov_only_targets = {"雕塑家", "飞行员"};
  for (const char* w : {"他", "她", "是", "著名", "的"}) input_vocab.Add(w);
  for (const std::string& w : in_vocab_targets) {
    input_vocab.Add(w);
    output_vocab.Add(w);
  }
  for (const std::string& w : oov_only_targets) input_vocab.Add(w);
  std::vector<nn::CopyNet::Example> examples;
  for (int i = 0; i < 240; ++i) {
    nn::CopyNet::Example example;
    const std::string target =
        i % 3 == 0 ? oov_only_targets[rng.Uniform(oov_only_targets.size())]
                   : in_vocab_targets[rng.Uniform(in_vocab_targets.size())];
    example.source_words = {rng.Bernoulli(0.5) ? "他" : "她", "是", "著名",
                            "的", target};
    example.source_ids = input_vocab.Encode(example.source_words);
    example.target_words = {target};
    examples.push_back(std::move(example));
  }

  nn::CopyNet::Config config;
  config.embed_dim = 12;
  config.hidden_dim = 20;
  config.use_copy = use_copy;
  nn::CopyNet model(&input_vocab, &output_vocab, config);
  nn::Adam::Config adam_config;
  adam_config.lr = 0.02f;
  nn::Adam adam(model.Params(), adam_config);
  for (int epoch = 0; epoch < 12; ++epoch) {
    std::vector<const nn::CopyNet::Example*> batch;
    for (const auto& example : examples) {
      batch.push_back(&example);
      if (batch.size() == 16) {
        model.AccumulateBatch(batch);
        adam.Step();
        batch.clear();
      }
    }
  }
  ASSERT_TRUE(nn::SaveParameters(model.Params(), path).ok());
}

TEST_F(CopyNetGoldenTest, CopyNetTestTaskSavesGoldenParams) {
  const std::string path = (dir_ / "copy.params").string();
  TrainCopyNetTestTask(/*use_copy=*/true, path);
  EXPECT_EQ(FileCrc(path), 0xaa50fc88u);
}

TEST_F(CopyNetGoldenTest, CopyNetTestTaskWithoutCopySavesGoldenParams) {
  const std::string path = (dir_ / "nocopy.params").string();
  TrainCopyNetTestTask(/*use_copy=*/false, path);
  EXPECT_EQ(FileCrc(path), 0x76a2f360u);
}

}  // namespace
}  // namespace cnpb
