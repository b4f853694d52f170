#include "verification/pipeline.h"

#include "obs/metrics.h"
#include "util/timer.h"

namespace cnpb::verification {

VerificationPipeline::VerificationPipeline(const kb::EncyclopediaDump* dump,
                                           const text::Lexicon* lexicon,
                                           const Config& config)
    : config_(config),
      syntax_(config.syntax),
      ner_(lexicon, config.ner),
      incompatible_(dump, config.incompatible) {
  for (const kb::EncyclopediaPage& page : dump->pages()) {
    mention_of_page_.emplace(page.name, page.mention);
  }
}

void VerificationPipeline::AddCorpusSentence(
    const std::vector<std::string>& words) {
  ner_.AddCorpusSentence(words);
}

void VerificationPipeline::AddPage(const kb::EncyclopediaPage& page) {
  mention_of_page_.emplace(page.name, page.mention);
  incompatible_.IngestPage(page);
}

generation::CandidateList VerificationPipeline::Verify(
    const generation::CandidateList& candidates, Report* report,
    std::vector<size_t>* kept) {
  // Strategies still run in sequence (rejections are attributed to the first
  // strategy that fires), but syntax and NER shard the candidate list and
  // mark their disjoint rejection slots in parallel. Incompatible concepts
  // compares candidates of the same entity against each other and must stay
  // serial — see DESIGN.md §6.
  std::vector<uint8_t> rejected(candidates.size(), 0);
  Report local;
  local.input = candidates.size();

  // Accept/reject outcomes accumulate in the registry across calls (full
  // builds and incremental batches alike); per-strategy wall times are
  // last-call gauges. Revocations are decided downstream by the incremental
  // updater against the previous taxonomy, but the counter is registered
  // here so every verification report carries the full outcome triple.
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.counter("verify.candidates.input")->Increment(candidates.size());
  metrics.counter("verify.candidates.revoked");
  util::WallTimer strategy_timer;

  if (config_.use_syntax) {
    local.rejected_syntax =
        syntax_.MarkRejections(candidates, mention_of_page_, &rejected);
    metrics.gauge("verify.stage.syntax_seconds")
        ->Set(strategy_timer.ElapsedSeconds());
  }
  strategy_timer.Restart();
  if (config_.use_ner) {
    ner_.Prepare(candidates, mention_of_page_);
    local.rejected_ner = ner_.MarkRejections(candidates, &rejected);
    metrics.gauge("verify.stage.ner_seconds")
        ->Set(strategy_timer.ElapsedSeconds());
  }
  strategy_timer.Restart();
  if (config_.use_incompatible) {
    local.rejected_incompatible =
        incompatible_.MarkRejections(candidates, &rejected);
    metrics.gauge("verify.stage.incompatible_seconds")
        ->Set(strategy_timer.ElapsedSeconds());
  }

  generation::CandidateList verified;
  verified.reserve(candidates.size());
  if (kept != nullptr) kept->clear();
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (rejected[i]) continue;
    verified.push_back(candidates[i]);
    if (kept != nullptr) kept->push_back(i);
  }
  local.output = verified.size();
  metrics.counter("verify.candidates.accepted")->Increment(verified.size());
  metrics.counter("verify.rejected.syntax")->Increment(local.rejected_syntax);
  metrics.counter("verify.rejected.ner")->Increment(local.rejected_ner);
  metrics.counter("verify.rejected.incompatible")
      ->Increment(local.rejected_incompatible);
  if (report != nullptr) *report = local;
  return verified;
}

}  // namespace cnpb::verification
