#include "core/incremental.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "taxonomy/api_service.h"
#include "taxonomy/view.h"
#include "util/timer.h"

namespace cnpb::core {

IncrementalUpdater::IncrementalUpdater(
    const kb::EncyclopediaDump& base, const text::Lexicon* lexicon,
    const std::vector<std::vector<std::string>>& corpus,
    const CnProbaseBuilder::Config& config)
    : dump_(base),
      generator_(dump_, *lexicon, corpus, config, &base_report_) {
  util::WallTimer base_timer;
  // Batch pages get fresh ids continuing after the base dump's maximum, so
  // ids stay unique across the union.
  for (const kb::EncyclopediaPage& page : dump_.pages()) {
    next_page_id_ = std::max(next_page_id_, page.page_id + 1);
  }

  generation::CandidateList merged =
      generator_.Extract(dump_, 0, &base_report_);

  generation::CandidateList verified;
  if (config.enable_verification) {
    // Constructed once, over the base dump; batches fold their deltas in via
    // AddPage/AddCorpusSentence instead of rebuilding from scratch.
    pipeline_ = std::make_unique<verification::VerificationPipeline>(
        &dump_, lexicon, config.verification);
    for (const auto& sentence : corpus) pipeline_->AddCorpusSentence(sentence);
    verified = pipeline_->Verify(merged, &base_report_.verification);
  } else {
    verified = std::move(merged);
  }
  taxonomy_ = CnProbaseBuilder::Materialise(verified);
  mentions_ = CnProbaseBuilder::BuildMentionIndex(dump_, taxonomy_);
  generation_ = 1;
  // Registered up front so a run without a single rebuild exports 0.
  obs::MetricsRegistry::Global().counter("incremental.rebuilds");
  obs::MetricsRegistry::Global()
      .gauge("incremental.base_build_seconds")
      ->Set(generator_.seconds().prepare + base_timer.ElapsedSeconds());
}

bool IncrementalUpdater::HasEdge(
    const generation::Candidate& candidate) const {
  const taxonomy::NodeId hypo = taxonomy_.Find(candidate.hypo);
  if (hypo == taxonomy::kInvalidNode) return false;
  const taxonomy::NodeId hyper = taxonomy_.Find(candidate.hyper);
  return hyper != taxonomy::kInvalidNode && taxonomy_.HasIsa(hypo, hyper);
}

bool IncrementalUpdater::Append(const generation::Candidate& candidate) {
  if (candidate.hypo == candidate.hyper) return false;
  taxonomy::NodeId hyper = taxonomy_.Find(candidate.hyper);
  if (hyper == taxonomy::kInvalidNode) {
    hyper = taxonomy_.AddNode(candidate.hyper, taxonomy::NodeKind::kConcept);
  } else {
    taxonomy_.PromoteToConcept(hyper);
  }
  // A new hyponym starts as an entity; it is promoted if a later candidate
  // names it as a hypernym, which is the kind Materialise would give it.
  const taxonomy::NodeId hypo =
      taxonomy_.AddNode(candidate.hypo, taxonomy::NodeKind::kEntity);
  const bool added =
      taxonomy_.AddIsa(hypo, hyper, candidate.source, candidate.score);
  // Base rows the next layered publish must patch; appended nodes are
  // layered whole.
  if (base_ != nullptr) {
    const taxonomy::NodeId base_nodes =
        static_cast<taxonomy::NodeId>(base_->num_nodes());
    if (hyper < base_nodes) changed_nodes_.insert(hyper);
    if (added && hypo < base_nodes) changed_nodes_.insert(hypo);
  }
  return added;
}

bool IncrementalUpdater::VerifyAndApply(const generation::CandidateList& fresh,
                                        BatchReport* report) {
  // Existing relations join the pool so the verification statistics (NER s2,
  // concept hyponym sets, attribute distributions) see the whole taxonomy —
  // and so accumulating evidence can also revoke old relations.
  generation::CandidateList pool;
  pool.reserve(taxonomy_.num_edges() + fresh.size());
  taxonomy_.ForEachEdge([&](const taxonomy::IsaEdge& edge) {
    generation::Candidate candidate;
    candidate.hypo = taxonomy_.Name(edge.hypo);
    candidate.hyper = taxonomy_.Name(edge.hyper);
    candidate.source = edge.source;
    candidate.score = edge.score;
    pool.push_back(std::move(candidate));
  });
  const size_t num_existing = pool.size();
  for (const generation::Candidate& candidate : fresh) {
    if (!HasEdge(candidate)) pool.push_back(candidate);
  }
  const size_t proposed = pool.size() - num_existing;

  std::vector<size_t> kept;
  generation::CandidateList verified = pipeline_->Verify(pool, nullptr, &kept);
  const auto first_fresh =
      std::lower_bound(kept.begin(), kept.end(), num_existing);
  report->revoked =
      num_existing - static_cast<size_t>(first_fresh - kept.begin());
  if (report->revoked == 0) {
    for (auto it = first_fresh; it != kept.end(); ++it) {
      if (Append(pool[*it])) ++report->accepted;
    }
  } else {
    // A revoked edge may have been the only support of a node or of its
    // concept kind: rebuild both structures the way the base build does.
    // Every kept fresh pair but a self-loop becomes an edge.
    for (auto it = first_fresh; it != kept.end(); ++it) {
      if (pool[*it].hypo != pool[*it].hyper) ++report->accepted;
    }
    taxonomy_ = CnProbaseBuilder::Materialise(verified);
    mentions_ = CnProbaseBuilder::BuildMentionIndex(dump_, taxonomy_);
    // Ids moved and the index was replaced: the next publish folds.
    base_.reset();
    changed_nodes_.clear();
    changed_mentions_.clear();
    ++rebuilds_;
    obs::MetricsRegistry::Global().counter("incremental.rebuilds")->Increment();
  }
  report->rejected = proposed - report->accepted;
  return report->revoked > 0;
}

void IncrementalUpdater::AddMention(const std::string& mention,
                                    size_t page_index, taxonomy::NodeId id) {
  taxonomy::MentionIndex::value_type& entry =
      *mentions_.try_emplace(mention).first;
  std::vector<taxonomy::NodeId>& ids = entry.second;
  if (std::find(ids.begin(), ids.end(), id) != ids.end()) return;
  // Map entries keep their addresses until the index is replaced.
  if (base_ != nullptr) changed_mentions_.insert(&entry);
  // Candidates stay in page order, as BuildMentionIndex lists them: the new
  // one goes after every candidate whose page comes first.
  const kb::EncyclopediaPage* const pages = dump_.pages().data();
  auto pos = ids.end();
  while (pos != ids.begin() &&
         static_cast<size_t>(dump_.FindByName(taxonomy_.Name(*(pos - 1))) -
                             pages) > page_index) {
    --pos;
  }
  ids.insert(pos, id);
}

void IncrementalUpdater::IndexNewMentions(size_t first_page,
                                          taxonomy::NodeId first_node) {
  // (page index, node) pairs the index lacks: older pages whose names just
  // became nodes, then the batch's own pages that name a node.
  std::vector<std::pair<size_t, taxonomy::NodeId>> additions;
  const kb::EncyclopediaPage* const pages = dump_.pages().data();
  for (taxonomy::NodeId id = first_node; id < taxonomy_.num_nodes(); ++id) {
    const kb::EncyclopediaPage* page = dump_.FindByName(taxonomy_.Name(id));
    if (page != nullptr && static_cast<size_t>(page - pages) < first_page) {
      additions.emplace_back(page - pages, id);
    }
  }
  std::sort(additions.begin(), additions.end());
  for (size_t i = first_page; i < dump_.size(); ++i) {
    const taxonomy::NodeId id = taxonomy_.Find(dump_.page(i).name);
    if (id != taxonomy::kInvalidNode) additions.emplace_back(i, id);
  }
  for (const auto& [page_index, id] : additions) {
    const kb::EncyclopediaPage& page = dump_.page(page_index);
    AddMention(page.mention, page_index, id);
    for (const std::string& alias : page.aliases) {
      AddMention(alias, page_index, id);
    }
  }
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
    generator_.AddCorpusSentence(sentence);
    if (pipeline_ != nullptr) pipeline_->AddCorpusSentence(sentence);
  }
  if (report.pages_added == 0) {
    report.seconds = timer.ElapsedSeconds();
    return report;
  }

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  generation::CandidateList fresh;
  {
    obs::ScopedTimer stage(
        metrics.histogram("incremental.stage.extract_seconds"));
    fresh = generator_.Extract(dump_, first_new);
  }
  report.candidates = fresh.size();

  {
    // Readers holding an earlier snapshot() keep their own copy.
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_.reset();
  }
  const taxonomy::NodeId first_node =
      static_cast<taxonomy::NodeId>(taxonomy_.num_nodes());
  bool rebuilt = false;
  {
    obs::ScopedTimer stage(metrics.histogram("incremental.stage.apply_seconds"));
    if (pipeline_ != nullptr) {
      rebuilt = VerifyAndApply(fresh, &report);
    } else {
      // No verification: a fresh pair is new unless the taxonomy already
      // has it; a self-loop is the only new pair AddIsa refuses.
      for (const generation::Candidate& candidate : fresh) {
        if (HasEdge(candidate)) continue;
        if (Append(candidate)) {
          ++report.accepted;
        } else {
          ++report.rejected;
        }
      }
    }
  }
  if (!rebuilt) {
    obs::ScopedTimer stage(
        metrics.histogram("incremental.publish.index_seconds"));
    IndexNewMentions(first_new, first_node);
  }
  ++generation_;
  report.seconds = timer.ElapsedSeconds();

  // Batch accounting: counters accumulate over the updater's lifetime;
  // revocations feed the verification outcome triple (verify.candidates.*)
  // because the revoke decision is made here, against the previous taxonomy.
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

std::shared_ptr<const taxonomy::Taxonomy> IncrementalUpdater::snapshot()
    const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  if (snapshot_ == nullptr) {
    snapshot_ = taxonomy::Taxonomy::Freeze(taxonomy_.Clone());
  }
  return snapshot_;
}

taxonomy::LayerChanges IncrementalUpdater::PendingChanges() const {
  taxonomy::LayerChanges changes;
  changes.nodes.assign(changed_nodes_.begin(), changed_nodes_.end());
  changes.mentions.assign(changed_mentions_.begin(), changed_mentions_.end());
  return changes;
}

uint64_t IncrementalUpdater::Publish(taxonomy::ApiService* service) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  std::shared_ptr<const taxonomy::ServingView> view;
  size_t laid_out = 0;
  {
    obs::ScopedTimer stage(
        metrics.histogram("incremental.publish.encode_seconds"));
    if (base_ != nullptr) {
      util::WallTimer layer_timer;
      const size_t base_bytes = base_->bytes().size();
      view = taxonomy::ServingView::EncodeLayered(
          base_, taxonomy_, mentions_, PendingChanges(),
          static_cast<size_t>(base_bytes * kFoldFraction));
      if (view != nullptr) {
        metrics.histogram("incremental.publish.layer_seconds")
            ->Observe(layer_timer.ElapsedSeconds());
        laid_out = view->delta_bytes().size();
        max_layer_share_ = std::max(
            max_layer_share_, static_cast<double>(laid_out) / base_bytes);
      }
    }
    if (view == nullptr) {
      view = taxonomy::ServingView::Encode(taxonomy_, mentions_);
      laid_out = view->bytes().size();
      base_ = view;
      changed_nodes_.clear();
      changed_mentions_.clear();
      ++folds_;
      metrics.counter("incremental.publish.folds")->Increment();
    }
  }
  // In megabytes: the histogram layout tops out at 256.
  metrics.histogram("incremental.publish.megabytes")->Observe(laid_out / 1e6);
  return service->Publish(std::move(view));
}

}  // namespace cnpb::core
