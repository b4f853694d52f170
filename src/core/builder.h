#ifndef CNPROBASE_CORE_BUILDER_H_
#define CNPROBASE_CORE_BUILDER_H_

#include <string>
#include <vector>

#include "generation/candidate.h"
#include "generation/neural_generation.h"
#include "generation/predicate_discovery.h"
#include "kb/dump.h"
#include "taxonomy/api_service.h"
#include "taxonomy/taxonomy.h"
#include "text/lexicon.h"
#include "text/ngram.h"
#include "text/segmenter.h"
#include "verification/pipeline.h"

namespace cnpb::core {

// The CN-Probase construction pipeline (paper Figure 2): four generation
// extractors over the encyclopedia dump, candidate merging, and the
// three-strategy verification module, producing the final taxonomy. The
// generation half is GenerationModule below, which IncrementalUpdater
// shares.
class CnProbaseBuilder {
 public:
  struct Config {
    // Generation toggles (ablations / single-source baselines).
    bool enable_bracket = true;
    bool enable_abstract = true;
    bool enable_infobox = true;
    bool enable_tag = true;
    bool enable_verification = true;

    generation::NeuralGeneration::Config neural;
    generation::PredicateDiscovery::Config predicates;
    verification::VerificationPipeline::Config verification;

    // Per-source confidence priors, recorded as edge scores. Set from each
    // source's measured precision; ApiService ranks hypernyms by them.
    float bracket_prior = 0.96f;
    float infobox_prior = 0.92f;
    float tag_prior = 0.90f;
    float abstract_prior = 0.85f;
  };

  struct Report {
    size_t bracket_candidates = 0;
    size_t abstract_candidates = 0;
    size_t infobox_candidates = 0;
    size_t tag_candidates = 0;
    size_t merged_candidates = 0;
    generation::PredicateDiscovery::Discovery discovery;
    generation::NeuralGeneration::TrainStats neural_stats;
    verification::VerificationPipeline::Report verification;
    double seconds_generation = 0.0;
    double seconds_verification = 0.0;
  };

  // `corpus` is the segmented text corpus backing PMI and NER supports.
  // All inputs must outlive the call.
  static taxonomy::Taxonomy Build(
      const kb::EncyclopediaDump& dump, const text::Lexicon& lexicon,
      const std::vector<std::vector<std::string>>& corpus,
      const Config& config, Report* report);

  // Builds the verified candidate list without materialising the taxonomy
  // (used by evaluation to score individual sources).
  static generation::CandidateList BuildCandidates(
      const kb::EncyclopediaDump& dump, const text::Lexicon& lexicon,
      const std::vector<std::vector<std::string>>& corpus,
      const Config& config, Report* report);

  // Materialises a taxonomy from verified candidates: every hypernym string
  // becomes a concept node; hyponyms that never appear as hypernyms become
  // entity nodes. Self-loop candidates (hypo == hyper) are skipped whole, so
  // every node has at least one edge.
  static taxonomy::Taxonomy Materialise(
      const generation::CandidateList& candidates);

  // Builds the mention index (surface mention + aliases -> entity node) for
  // `taxonomy` from the dump's pages, for publishing alongside it as one
  // immutable version (ApiService::Publish).
  static taxonomy::ApiService::MentionIndex BuildMentionIndex(
      const kb::EncyclopediaDump& dump, const taxonomy::Taxonomy& taxonomy);
};

// The generation half of the pipeline (paper §II), shared by the batch
// build and IncrementalUpdater: the one place the four extractors run.
// Construction prepares it once over a base dump; Extract then runs the
// enabled extractors over any page range against that frozen state. It
// records no metric, so an updater's batches never count as builds.
class GenerationModule {
 public:
  // Builds the segmenter and n-gram table and, as the enabled extractors
  // need them, the bracket prior, CopyNet (abstract) and the selected
  // predicates (infobox). `report` (non-null) receives the training
  // statistics and the discovery. `lexicon` must outlive the module.
  GenerationModule(const kb::EncyclopediaDump& base,
                   const text::Lexicon& lexicon,
                   const std::vector<std::vector<std::string>>& corpus,
                   const CnProbaseBuilder::Config& config,
                   CnProbaseBuilder::Report* report);

  // Merged candidates from pages [first_page, dump.size()): one fork-join
  // on the global thread pool runs the enabled extractors per few-page
  // shard, and each source is concatenated in page order, so the result is
  // the same for every thread count. `report`, when non-null, receives the
  // per-source and merged candidate counts.
  generation::CandidateList Extract(
      const kb::EncyclopediaDump& dump, size_t first_page,
      CnProbaseBuilder::Report* report = nullptr) const;

  // Grows the n-gram table the bracket separation scores with.
  void AddCorpusSentence(const std::vector<std::string>& sentence) {
    ngrams_.AddSentence(sentence);
  }

  // Construction's wall seconds: in all, and in CopyNet training and
  // predicate discovery (0 when skipped).
  struct Seconds {
    double prepare = 0.0, train = 0.0, discovery = 0.0;
  };
  const Seconds& seconds() const { return seconds_; }

 private:
  CnProbaseBuilder::Config config_;
  text::Segmenter segmenter_;
  text::NgramCounter ngrams_;
  generation::NeuralGeneration neural_;
  std::vector<std::string> selected_predicates_;
  Seconds seconds_;
};

}  // namespace cnpb::core

#endif  // CNPROBASE_CORE_BUILDER_H_
