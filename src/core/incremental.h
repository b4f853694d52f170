#ifndef CNPROBASE_CORE_INCREMENTAL_H_
#define CNPROBASE_CORE_INCREMENTAL_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/builder.h"
#include "kb/dump.h"
#include "taxonomy/taxonomy.h"
#include "taxonomy/view.h"
#include "text/lexicon.h"
#include "verification/pipeline.h"

namespace cnpb::core {

// Incremental taxonomy maintenance. CN-Probase is deployed on top of
// CN-DBpedia, a never-ending extraction system (Xu et al. 2017): new pages
// arrive continuously, and rebuilding 15M entities per batch is not an
// option. The updater prepares the batch builder's GenerationModule once on
// the base dump (CopyNet, predicate selection, as the Config's generation
// toggles enable them), builds the base taxonomy exactly as
// CnProbaseBuilder::Build does, and then runs the same module over each
// batch's new pages only, while verification statistics (NER supports,
// concept attribute distributions) are maintained incrementally over the
// union — the verification pipeline is constructed once and fed just the
// per-batch deltas, so batch cost does not grow with the accumulated
// corpus.
//
// Write path: the updater owns one mutable taxonomy and one mention index
// and applies each batch to both in place. A batch appends its new nodes
// and edges in fresh-candidate order; node ids, once assigned, never change
// (so getEntity's id order is stable across batches), except when
// verification revokes an existing edge: that batch rebuilds both
// structures from the verified pool, exactly as the base build does, and
// counts one `incremental.rebuilds`. With verification off a batch costs
// O(delta), publish included; with it on, the verification pool still
// carries every edge, because its statistics cover the whole taxonomy.
//
// Serving: Publish() turns the working taxonomy and mention index into one
// immutable ServingView and installs it in a live ApiService in one atomic
// swap, so queries keep flowing — against a coherent version — while
// batches apply. A publish either folds, encoding the whole pair into a new
// shared base view, or layers: it lays out only what changed since the last
// fold (appended nodes and edges, promoted kinds, added or changed mention
// rows) as a small delta over that base, in O(delta). Append and AddMention
// record those changes as they make them. snapshot() hands out a frozen
// deep copy for callers that want a Taxonomy object.
class IncrementalUpdater {
 public:
  struct BatchReport {
    size_t pages_added = 0;
    // Fresh candidates extracted from the batch delta.
    size_t candidates = 0;
    // Of the fresh (hypo, hyper) pairs not already in the taxonomy:
    // `accepted` survived verification into the new taxonomy, `rejected`
    // were vetoed. Fresh pairs duplicating existing edges count as neither.
    size_t accepted = 0;
    size_t rejected = 0;
    // Pre-existing edges withdrawn because the accumulated evidence now
    // votes against them (revocation, not rejection).
    size_t revoked = 0;
    double seconds = 0.0;
  };

  // Builds the base taxonomy from `base` and prepares the reusable
  // components. `lexicon` must outlive the updater; the corpus seeds the
  // PMI table and NER supports.
  IncrementalUpdater(const kb::EncyclopediaDump& base,
                     const text::Lexicon* lexicon,
                     const std::vector<std::vector<std::string>>& corpus,
                     const CnProbaseBuilder::Config& config);

  // Applies one batch of new pages (and optional new corpus sentences);
  // returns what happened. Pages whose names already exist are skipped; new
  // pages get fresh unique page ids continuing after the base dump's.
  BatchReport ApplyBatch(
      const std::vector<kb::EncyclopediaPage>& pages,
      const std::vector<std::vector<std::string>>& new_corpus = {});

  // Publishes the current taxonomy and mention index to `service` as a new
  // immutable version: a ServingView is made off to the side, then
  // ApiService::Publish swaps it in. Queries in flight are never blocked
  // and never observe a half-applied update. Returns the service's new
  // version number.
  //
  // The view folds — one full ServingView::Encode, which becomes the base
  // later publishes layer over — on the first publish, on the first after
  // a rebuilding batch, and when the delta since the last fold would lay
  // out more than kFoldFraction of the base's bytes. Otherwise it is the
  // base plus a delta laid out in O(delta). Either way it answers exactly
  // as ServingView::Encode(taxonomy(), mentions) would. Like ApplyBatch,
  // not to be called concurrently with another ApplyBatch or Publish.
  uint64_t Publish(taxonomy::ApiService* service);

  // A layered publish lays out at most this share of its base's bytes.
  static constexpr double kFoldFraction = 1.0 / 8;

  // The working taxonomy. Valid until the next ApplyBatch, which mutates it
  // in place: do not hold it across batches or read it from another thread
  // while one applies.
  const taxonomy::Taxonomy& taxonomy() const { return taxonomy_; }
  // A frozen deep copy of the working taxonomy, safe to hold across batches
  // and to serve from concurrently. Made on the first call after a batch
  // and shared by every later call until the next ApplyBatch.
  std::shared_ptr<const taxonomy::Taxonomy> snapshot() const;
  // Number of taxonomy generations so far (base build = 1, +1 per non-empty
  // batch).
  uint64_t generation() const { return generation_; }
  // Batches that revoked an existing edge and so rebuilt the taxonomy and
  // mention index from scratch (always 0 with verification off).
  uint64_t rebuilds() const { return rebuilds_; }
  // Publishes that folded.
  uint64_t folds() const { return folds_; }
  // The largest share of its base's bytes that a layered publish laid out
  // (0 before the first); at most kFoldFraction.
  double max_layer_share() const { return max_layer_share_; }
  const kb::EncyclopediaDump& dump() const { return dump_; }
  const CnProbaseBuilder::Report& base_report() const { return base_report_; }

 private:
  friend class IncrementalUpdaterTestPeer;

  // True when `candidate`'s edge is already in the working taxonomy.
  bool HasEdge(const generation::Candidate& candidate) const;
  // Appends `candidate`'s edge to the working taxonomy, interning missing
  // endpoints and promoting an entity hypernym to concept, and records the
  // base rows it touched. Self-loops are refused before anything is
  // interned. Returns whether an edge was added.
  bool Append(const generation::Candidate& candidate);
  // Runs verification over every existing edge plus `fresh`, then appends
  // the accepted fresh edges, or rebuilds from the verified pool when an
  // existing edge was revoked. Returns whether it rebuilt.
  bool VerifyAndApply(const generation::CandidateList& fresh,
                      BatchReport* report);
  // Brings mentions_ up to date after an in-place batch: pages from
  // `first_page` on whose names are nodes, plus older pages whose names
  // became nodes at or after `first_node`, each at its page-order position.
  void IndexNewMentions(size_t first_page, taxonomy::NodeId first_node);
  void AddMention(const std::string& mention, size_t page_index,
                  taxonomy::NodeId id);
  // What changed since the last fold, for a layered publish.
  taxonomy::LayerChanges PendingChanges() const;

  kb::EncyclopediaDump dump_;  // union of base + applied batches
  // Filled in part by generator_'s constructor, so declared before it.
  CnProbaseBuilder::Report base_report_;
  // Prepared on the base dump; extracts the base build and every batch.
  GenerationModule generator_;
  // Persistent across batches; fed only the deltas (see AddPage /
  // AddCorpusSentence). Null when verification is disabled.
  std::unique_ptr<verification::VerificationPipeline> pipeline_;
  taxonomy::Taxonomy taxonomy_;
  // Always equal, mention by mention and in candidate order, to
  // CnProbaseBuilder::BuildMentionIndex(dump_, taxonomy_).
  taxonomy::MentionIndex mentions_;
  // snapshot()'s cached frozen copy; ApplyBatch drops it.
  mutable std::mutex snapshot_mu_;
  mutable std::shared_ptr<const taxonomy::Taxonomy> snapshot_;
  // The last fold (null before the first publish and after a rebuild) and
  // what changed since it: base nodes that were promoted or whose rows
  // gained edges, and mentions whose rows were added or changed.
  std::shared_ptr<const taxonomy::ServingView> base_;
  std::unordered_set<taxonomy::NodeId> changed_nodes_;
  std::unordered_set<const taxonomy::MentionIndex::value_type*>
      changed_mentions_;
  uint64_t folds_ = 0;
  double max_layer_share_ = 0.0;
  uint64_t generation_ = 0;
  uint64_t rebuilds_ = 0;
  uint64_t next_page_id_ = 1;  // first id past the base dump's maximum
};

}  // namespace cnpb::core

#endif  // CNPROBASE_CORE_INCREMENTAL_H_
