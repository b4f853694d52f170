#ifndef CNPROBASE_GENERATION_NEURAL_GENERATION_H_
#define CNPROBASE_GENERATION_NEURAL_GENERATION_H_

#include <memory>
#include <string>
#include <vector>

#include "generation/candidate.h"
#include "kb/dump.h"
#include "nn/copynet.h"
#include "nn/copynet_decoder.h"
#include "nn/vocab.h"
#include "text/segmenter.h"

namespace cnpb::generation {

// Neural generation (paper §II): builds a distant-supervision dataset from
// the high-precision bracket isA relations (abstract of the hyponym ->
// hypernym), trains a CopyNet-style encoder-decoder on it, and generates a
// hypernym for every page with an abstract.
class NeuralGeneration {
 public:
  struct Config {
    nn::CopyNet::Config model;
    int epochs = 3;
    int batch_size = 8;
    size_t max_train_samples = 4000;
    size_t max_source_len = 30;   // abstract tokens fed to the encoder
    uint64_t min_input_freq = 2;  // rarer source words become <unk>
    // Targets seen at least this often enter the generate-mode vocabulary;
    // rarer hypernyms are reachable only by copying (the OOV case).
    size_t min_target_count = 20;
    float lr = 0.01f;
    uint64_t seed = 97;
  };

  struct TrainStats {
    std::vector<float> epoch_loss;
    size_t num_samples = 0;
    size_t num_oov_targets = 0;  // training targets outside the output vocab
    size_t input_vocab_size = 0;
    size_t output_vocab_size = 0;
  };

  explicit NeuralGeneration(const Config& config);

  // Builds the dataset: for every page with both a bracket-derived hypernym
  // in `prior` and a non-empty abstract, (segmented abstract -> hypernym).
  // Returns the number of samples.
  size_t BuildDataset(const kb::EncyclopediaDump& dump,
                      const CandidateList& prior,
                      const text::Segmenter& segmenter);

  // Trains the model; must be called after BuildDataset.
  TrainStats Train();

  // Held-out accuracy: fraction of the last `holdout` dataset samples whose
  // first generated token equals the gold hypernym. Split by `oov_only` to
  // measure the copy mechanism's contribution.
  double EvalAccuracy(size_t holdout, bool oov_only) const;

  // Generates abstract-source candidates for every page with an abstract.
  CandidateList ExtractAll(const kb::EncyclopediaDump& dump,
                           const text::Segmenter& segmenter) const;

  // Shard form: decodes only pages [begin, end), serially, in page order.
  // Inference is read-only on the trained model, so shards may run on
  // concurrent threads; concatenating shard outputs in shard order
  // reproduces ExtractAll exactly.
  CandidateList ExtractRange(const kb::EncyclopediaDump& dump,
                             const text::Segmenter& segmenter, size_t begin,
                             size_t end) const;

  size_t dataset_size() const { return examples_.size(); }
  const nn::Vocab& output_vocab() const { return output_vocab_; }

  // Checkpointing: writes <prefix>.params / <prefix>.in.vocab /
  // <prefix>.out.vocab. Load reconstructs the model with this instance's
  // Config (architecture dims must match the checkpoint) and is then ready
  // for ExtractAll without retraining.
  util::Status Save(const std::string& prefix) const;
  util::Status Load(const std::string& prefix);

 private:
  nn::CopyNet::Example MakeSource(const std::string& abstract,
                                  const text::Segmenter& segmenter) const;

  Config config_;
  nn::Vocab input_vocab_;
  nn::Vocab output_vocab_;
  std::vector<nn::CopyNet::Example> examples_;
  std::unique_ptr<nn::CopyNet> model_;
  // Inference runs on this frozen copy of model_, rebuilt by Train and Load.
  std::unique_ptr<nn::CopyNetDecoder> decoder_;
  size_t train_end_ = 0;  // examples_[0, train_end_) are used for training
};

}  // namespace cnpb::generation

#endif  // CNPROBASE_GENERATION_NEURAL_GENERATION_H_
