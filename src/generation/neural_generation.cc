#include "generation/neural_generation.h"

#include <algorithm>
#include <unordered_map>

#include "nn/adam.h"
#include "nn/serialize.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace cnpb::generation {

NeuralGeneration::NeuralGeneration(const Config& config) : config_(config) {}

nn::CopyNet::Example NeuralGeneration::MakeSource(
    const std::string& abstract, const text::Segmenter& segmenter) const {
  nn::CopyNet::Example example;
  example.source_words = segmenter.Segment(abstract);
  if (example.source_words.size() > config_.max_source_len) {
    example.source_words.resize(config_.max_source_len);
  }
  example.source_ids = input_vocab_.Encode(example.source_words);
  return example;
}

size_t NeuralGeneration::BuildDataset(const kb::EncyclopediaDump& dump,
                                      const CandidateList& prior,
                                      const text::Segmenter& segmenter) {
  // First bracket hypernym per page = the most specific one.
  std::unordered_map<std::string, const std::string*> target_of;
  for (const Candidate& candidate : prior) {
    target_of.emplace(candidate.hypo, &candidate.hyper);
  }

  // Pass 1: collect raw samples and count words.
  struct RawSample {
    const std::string* abstract;
    const std::string* target;
  };
  std::vector<RawSample> raw;
  std::unordered_map<std::string, size_t> source_freq;
  std::unordered_map<std::string, size_t> target_count;
  for (const kb::EncyclopediaPage& page : dump.pages()) {
    if (page.abstract.empty()) continue;
    auto it = target_of.find(page.name);
    if (it == target_of.end()) continue;
    raw.push_back({&page.abstract, it->second});
    ++target_count[*it->second];
    if (raw.size() >= config_.max_train_samples) break;
  }
  for (const RawSample& sample : raw) {
    for (const std::string& word : segmenter.Segment(*sample.abstract)) {
      ++source_freq[word];
    }
  }

  input_vocab_ = nn::Vocab();
  for (const auto& [word, freq] : source_freq) {
    if (freq >= config_.min_input_freq) input_vocab_.Add(word);
  }
  output_vocab_ = nn::Vocab();
  for (const auto& [word, count] : target_count) {
    if (count >= config_.min_target_count) output_vocab_.Add(word);
  }

  examples_.clear();
  examples_.reserve(raw.size());
  for (const RawSample& sample : raw) {
    nn::CopyNet::Example example = MakeSource(*sample.abstract, segmenter);
    example.target_words = {*sample.target};
    examples_.push_back(std::move(example));
  }
  // Hold out the tail 10% for EvalAccuracy.
  train_end_ = examples_.size() - examples_.size() / 10;
  return examples_.size();
}

NeuralGeneration::TrainStats NeuralGeneration::Train() {
  TrainStats stats;
  stats.num_samples = train_end_;
  stats.input_vocab_size = static_cast<size_t>(input_vocab_.size());
  stats.output_vocab_size = static_cast<size_t>(output_vocab_.size());
  for (size_t i = 0; i < train_end_; ++i) {
    for (const std::string& target : examples_[i].target_words) {
      if (!output_vocab_.Contains(target)) {
        ++stats.num_oov_targets;
        break;
      }
    }
  }

  model_ = std::make_unique<nn::CopyNet>(&input_vocab_, &output_vocab_,
                                         config_.model);
  nn::Adam::Config adam_config;
  adam_config.lr = config_.lr;
  nn::Adam optimizer(model_->Params(), adam_config);

  util::Rng rng(config_.seed);
  std::vector<size_t> order(train_end_);
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.Shuffle(order);
    double epoch_loss = 0.0;
    size_t batches = 0;
    std::vector<const nn::CopyNet::Example*> batch;
    for (size_t i = 0; i < order.size(); ++i) {
      batch.push_back(&examples_[order[i]]);
      if (batch.size() == static_cast<size_t>(config_.batch_size) ||
          i + 1 == order.size()) {
        epoch_loss += model_->AccumulateBatch(batch);
        optimizer.Step();
        ++batches;
        batch.clear();
      }
    }
    stats.epoch_loss.push_back(
        batches == 0 ? 0.0f : static_cast<float>(epoch_loss / batches));
  }
  nn::ReleaseBatchTapes();
  decoder_ = std::make_unique<nn::CopyNetDecoder>(*model_);
  return stats;
}

double NeuralGeneration::EvalAccuracy(size_t holdout, bool oov_only) const {
  CNPB_CHECK(decoder_ != nullptr) << "Train() before EvalAccuracy()";
  const size_t begin =
      holdout >= examples_.size() ? 0 : examples_.size() - holdout;
  size_t correct = 0;
  size_t total = 0;
  for (size_t i = std::max(begin, train_end_); i < examples_.size(); ++i) {
    const nn::CopyNet::Example& example = examples_[i];
    if (example.target_words.empty()) continue;
    const std::string& gold = example.target_words[0];
    if (oov_only && output_vocab_.Contains(gold)) continue;
    ++total;
    const std::string generated =
        decoder_->Decode(example.source_ids, example.source_words);
    if (!generated.empty() && generated == gold) ++correct;
  }
  return total == 0 ? 0.0 : static_cast<double>(correct) / total;
}

util::Status NeuralGeneration::Save(const std::string& prefix) const {
  if (model_ == nullptr) {
    return util::FailedPreconditionError("no trained model to save");
  }
  CNPB_RETURN_IF_ERROR(nn::SaveParameters(model_->Params(), prefix + ".params"));
  CNPB_RETURN_IF_ERROR(nn::SaveVocab(input_vocab_, prefix + ".in.vocab"));
  return nn::SaveVocab(output_vocab_, prefix + ".out.vocab");
}

util::Status NeuralGeneration::Load(const std::string& prefix) {
  auto in_vocab = nn::LoadVocab(prefix + ".in.vocab");
  if (!in_vocab.ok()) return in_vocab.status();
  auto out_vocab = nn::LoadVocab(prefix + ".out.vocab");
  if (!out_vocab.ok()) return out_vocab.status();
  input_vocab_ = std::move(*in_vocab);
  output_vocab_ = std::move(*out_vocab);
  model_ = std::make_unique<nn::CopyNet>(&input_vocab_, &output_vocab_,
                                         config_.model);
  decoder_.reset();
  CNPB_RETURN_IF_ERROR(
      nn::LoadParameters(model_->Params(), prefix + ".params"));
  decoder_ = std::make_unique<nn::CopyNetDecoder>(*model_);
  return util::Status::Ok();
}

CandidateList NeuralGeneration::ExtractRange(const kb::EncyclopediaDump& dump,
                                             const text::Segmenter& segmenter,
                                             size_t begin, size_t end) const {
  CNPB_CHECK(decoder_ != nullptr) << "Train() before ExtractRange()";
  CandidateList candidates;
  for (size_t i = begin; i < end; ++i) {
    const kb::EncyclopediaPage& page = dump.page(i);
    if (page.abstract.empty()) continue;
    const nn::CopyNet::Example source = MakeSource(page.abstract, segmenter);
    std::string hyper =
        decoder_->Decode(source.source_ids, source.source_words);
    if (hyper.empty() || hyper == page.mention) continue;
    // A hypernym must be a common noun; generated function words (是/一种)
    // and punctuation are decoder misfires, not classes.
    const text::Pos pos = segmenter.lexicon().PosOf(hyper);
    if (pos == text::Pos::kOther || pos == text::Pos::kParticle ||
        pos == text::Pos::kNumeral) {
      continue;
    }
    Candidate candidate;
    candidate.hypo = page.name;
    candidate.hyper = std::move(hyper);
    candidate.source = taxonomy::Source::kAbstract;
    candidates.push_back(std::move(candidate));
  }
  return candidates;
}

CandidateList NeuralGeneration::ExtractAll(
    const kb::EncyclopediaDump& dump, const text::Segmenter& segmenter) const {
  CNPB_CHECK(decoder_ != nullptr) << "Train() before ExtractAll()";
  return util::ShardedConcat(dump.size(), [&](size_t begin, size_t end) {
    return ExtractRange(dump, segmenter, begin, end);
  });
}

}  // namespace cnpb::generation
