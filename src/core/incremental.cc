#include "core/incremental.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "generation/direct_extraction.h"
#include "generation/predicate_discovery.h"
#include "generation/separation.h"
#include "obs/metrics.h"
#include "taxonomy/api_service.h"
#include "taxonomy/serialize.h"
#include "taxonomy/snapshot.h"
#include "util/retry.h"
#include "util/timer.h"

namespace cnpb::core {

namespace {

std::string PairKey(const std::string& hypo, const std::string& hyper) {
  std::string key = hypo;
  key.push_back('\x01');
  key.append(hyper);
  return key;
}

// Copies pages [first_page, source.size()) preserving their page ids (ids of
// zero are auto-assigned by AddPage).
kb::EncyclopediaDump CopyPages(const kb::EncyclopediaDump& source,
                               size_t first_page) {
  kb::EncyclopediaDump out;
  for (size_t i = first_page; i < source.size(); ++i) {
    out.AddPage(source.page(i));
  }
  return out;
}

}  // namespace

IncrementalUpdater::IncrementalUpdater(
    const kb::EncyclopediaDump& base, const text::Lexicon* lexicon,
    const std::vector<std::vector<std::string>>& corpus,
    const CnProbaseBuilder::Config& config)
    : config_(config),
      lexicon_(lexicon),
      dump_(CopyPages(base, 0)),
      segmenter_(lexicon),
      neural_(config.neural) {
  util::WallTimer base_timer;
  // Batch pages get fresh ids continuing after the base dump's maximum, so
  // ids stay unique across the union.
  for (const kb::EncyclopediaPage& page : dump_.pages()) {
    next_page_id_ = std::max(next_page_id_, page.page_id + 1);
  }
  for (const auto& sentence : corpus) ngrams_.AddSentence(sentence);

  // One-time expensive preparation on the base dump: bracket prior, CopyNet
  // training, predicate selection.
  generation::BracketExtractor extractor(&segmenter_, &ngrams_);
  const generation::CandidateList prior = extractor.Extract(dump_);
  neural_.BuildDataset(dump_, prior, segmenter_);
  base_report_.neural_stats = neural_.Train();
  generation::PredicateDiscovery discovery(config_.predicates);
  base_report_.discovery = discovery.Discover(dump_, prior);
  selected_predicates_ = base_report_.discovery.selected;

  // Base build (reuses what was just prepared).
  generation::CandidateList abstract_candidates =
      neural_.ExtractAll(dump_, segmenter_);
  generation::CandidateList infobox_candidates =
      generation::PredicateDiscovery::Extract(dump_, selected_predicates_);
  generation::CandidateList tag_candidates =
      generation::ExtractFromTags(dump_);
  generation::CandidateList bracket = prior;
  for (auto& c : bracket) c.score = config_.bracket_prior;
  for (auto& c : infobox_candidates) c.score = config_.infobox_prior;
  for (auto& c : tag_candidates) c.score = config_.tag_prior;
  for (auto& c : abstract_candidates) c.score = config_.abstract_prior;
  base_report_.bracket_candidates = bracket.size();
  base_report_.abstract_candidates = abstract_candidates.size();
  base_report_.infobox_candidates = infobox_candidates.size();
  base_report_.tag_candidates = tag_candidates.size();

  generation::CandidateList merged = generation::MergeCandidates(
      {&bracket, &infobox_candidates, &tag_candidates, &abstract_candidates});
  base_report_.merged_candidates = merged.size();

  generation::CandidateList verified;
  if (config_.enable_verification) {
    // Constructed once, over the base dump; batches fold their deltas in via
    // AddPage/AddCorpusSentence instead of rebuilding from scratch.
    pipeline_ = std::make_unique<verification::VerificationPipeline>(
        &dump_, lexicon_, config_.verification);
    for (const auto& sentence : corpus) pipeline_->AddCorpusSentence(sentence);
    verified = pipeline_->Verify(merged, &base_report_.verification);
  } else {
    verified = std::move(merged);
  }
  taxonomy_ =
      taxonomy::Taxonomy::Freeze(CnProbaseBuilder::Materialise(verified));
  generation_ = 1;
  obs::MetricsRegistry::Global()
      .gauge("incremental.base_build_seconds")
      ->Set(base_timer.ElapsedSeconds());
}

generation::CandidateList IncrementalUpdater::ExtractFrom(size_t first_page) {
  const kb::EncyclopediaDump delta = CopyPages(dump_, first_page);
  generation::BracketExtractor extractor(&segmenter_, &ngrams_);
  generation::CandidateList bracket = extractor.Extract(delta);
  generation::CandidateList abstract_candidates =
      neural_.ExtractAll(delta, segmenter_);
  generation::CandidateList infobox_candidates =
      generation::PredicateDiscovery::Extract(delta, selected_predicates_);
  generation::CandidateList tag_candidates =
      generation::ExtractFromTags(delta);
  for (auto& c : bracket) c.score = config_.bracket_prior;
  for (auto& c : infobox_candidates) c.score = config_.infobox_prior;
  for (auto& c : tag_candidates) c.score = config_.tag_prior;
  for (auto& c : abstract_candidates) c.score = config_.abstract_prior;
  return generation::MergeCandidates(
      {&bracket, &infobox_candidates, &tag_candidates, &abstract_candidates});
}

IncrementalUpdater::BatchReport IncrementalUpdater::ApplyBatch(
    const std::vector<kb::EncyclopediaPage>& pages,
    const std::vector<std::vector<std::string>>& new_corpus) {
  BatchReport report;
  util::WallTimer timer;

  const size_t first_new = dump_.size();
  for (const kb::EncyclopediaPage& page : pages) {
    if (dump_.FindByName(page.name) != nullptr) continue;  // already known
    kb::EncyclopediaPage copy = page;
    copy.page_id = next_page_id_++;
    dump_.AddPage(std::move(copy));
    if (pipeline_ != nullptr) pipeline_->AddPage(dump_.page(dump_.size() - 1));
    ++report.pages_added;
  }
  for (const auto& sentence : new_corpus) {
    ngrams_.AddSentence(sentence);
    if (pipeline_ != nullptr) pipeline_->AddCorpusSentence(sentence);
  }
  if (report.pages_added == 0) {
    report.seconds = timer.ElapsedSeconds();
    return report;
  }

  const generation::CandidateList fresh = ExtractFrom(first_new);
  report.candidates = fresh.size();

  // Existing relations join the pool so the verification statistics (NER s2,
  // concept hyponym sets, attribute distributions) see the whole taxonomy —
  // and so accumulating evidence can also revoke old relations.
  generation::CandidateList pool;
  pool.reserve(taxonomy_->num_edges() + fresh.size());
  std::unordered_set<std::string> existing;
  existing.reserve(taxonomy_->num_edges());
  taxonomy_->ForEachEdge([&](const taxonomy::IsaEdge& edge) {
    generation::Candidate candidate;
    candidate.hypo = taxonomy_->Name(edge.hypo);
    candidate.hyper = taxonomy_->Name(edge.hyper);
    candidate.source = edge.source;
    candidate.score = edge.score;
    existing.insert(PairKey(candidate.hypo, candidate.hyper));
    pool.push_back(std::move(candidate));
  });
  // Fresh pairs not already in the taxonomy: the batch's genuinely new
  // proposals, tracked so acceptance can be read off the final edge set.
  std::unordered_set<std::string> proposed;
  proposed.reserve(fresh.size());
  for (const auto& candidate : fresh) {
    std::string key = PairKey(candidate.hypo, candidate.hyper);
    if (existing.count(key) > 0) continue;
    if (proposed.insert(std::move(key)).second) pool.push_back(candidate);
  }

  generation::CandidateList verified;
  if (pipeline_ != nullptr) {
    verified = pipeline_->Verify(pool, nullptr);
  } else {
    verified = std::move(pool);
  }
  // Materialise the next version off to the side, then swap the frozen
  // snapshot; readers holding the old snapshot() are unaffected.
  taxonomy::Taxonomy next = CnProbaseBuilder::Materialise(verified);
  std::unordered_set<std::string> after;
  after.reserve(next.num_edges());
  next.ForEachEdge([&](const taxonomy::IsaEdge& edge) {
    after.insert(PairKey(next.Name(edge.hypo), next.Name(edge.hyper)));
  });
  // Accounting from the actual edge sets: a proposed pair either made it in
  // (accepted) or was vetoed (rejected); an existing pair that vanished was
  // revoked — the three are distinct outcomes, not one clamped difference.
  for (const std::string& key : proposed) {
    if (after.count(key) > 0) {
      ++report.accepted;
    } else {
      ++report.rejected;
    }
  }
  for (const std::string& key : existing) {
    if (after.count(key) == 0) ++report.revoked;
  }
  taxonomy_ = taxonomy::Taxonomy::Freeze(std::move(next));
  ++generation_;
  report.seconds = timer.ElapsedSeconds();

  // Batch accounting: counters accumulate over the updater's lifetime;
  // revocations feed the verification outcome triple (verify.candidates.*)
  // because the revoke decision is made here, against the previous taxonomy.
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.counter("incremental.batches")->Increment();
  metrics.counter("incremental.pages_added")->Increment(report.pages_added);
  metrics.counter("incremental.candidates")->Increment(report.candidates);
  metrics.counter("incremental.accepted")->Increment(report.accepted);
  metrics.counter("incremental.rejected")->Increment(report.rejected);
  metrics.counter("incremental.revoked")->Increment(report.revoked);
  metrics.counter("verify.candidates.revoked")->Increment(report.revoked);
  metrics.gauge("incremental.last_batch_seconds")->Set(report.seconds);
  metrics.histogram("incremental.batch_seconds")->Observe(report.seconds);
  return report;
}

uint64_t IncrementalUpdater::Publish(taxonomy::ApiService* service) const {
  return service->Publish(
      taxonomy_, CnProbaseBuilder::BuildMentionIndex(dump_, *taxonomy_));
}

util::Status IncrementalUpdater::SaveSnapshot(
    const std::string& path, uint64_t* persisted_generation) const {
  // Capture which generation these bytes are before any IO: a caller that
  // records the save in a durable cursor must attribute the file to the
  // snapshot actually written, not to a later generation() read.
  const uint64_t generation = generation_;
  // The snapshot save sits on the update path of a long-running system, so a
  // transient IO hiccup (or injected taxonomy.save.* fault) should not lose
  // the generation — retry with backoff; the atomic write guarantees the
  // previous file survives every failed attempt.
  const util::RetryResult result = util::RetryWithBackoff(
      util::RetryOptions{},
      [&] { return taxonomy::SaveTaxonomyDurable(*taxonomy_, path); });
  if (result.attempts > 1) {
    obs::MetricsRegistry::Global()
        .counter("incremental.snapshot_retries")
        ->Increment(result.attempts - 1);
  }
  if (result.status.ok() && persisted_generation != nullptr) {
    *persisted_generation = generation;
  }
  return result.status;
}

util::Status IncrementalUpdater::SaveBinarySnapshot(
    const std::string& path, uint64_t* persisted_generation) const {
  const uint64_t generation = generation_;
  const auto view = taxonomy::ServingView::Encode(
      *taxonomy_, CnProbaseBuilder::BuildMentionIndex(dump_, *taxonomy_));
  const util::RetryResult result =
      util::RetryWithBackoff(util::RetryOptions{}, [&] {
        return taxonomy::WriteSnapshot(*view, path);
      });
  if (result.attempts > 1) {
    obs::MetricsRegistry::Global()
        .counter("incremental.snapshot_retries")
        ->Increment(result.attempts - 1);
  }
  if (result.status.ok() && persisted_generation != nullptr) {
    *persisted_generation = generation;
  }
  return result.status;
}

}  // namespace cnpb::core
