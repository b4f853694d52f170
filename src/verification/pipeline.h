#ifndef CNPROBASE_VERIFICATION_PIPELINE_H_
#define CNPROBASE_VERIFICATION_PIPELINE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "generation/candidate.h"
#include "kb/dump.h"
#include "text/lexicon.h"
#include "verification/incompatible.h"
#include "verification/ner_filter.h"
#include "verification/syntax_rules.h"

namespace cnpb::verification {

// The verification module (paper §III): a candidate isA relation is dropped
// if ANY of the three heuristic strategies judges it wrong. Strategies run
// cheap-first (syntax, NER, then incompatible concepts) and each rejection
// is attributed, powering the ablation bench.
class VerificationPipeline {
 public:
  struct Config {
    bool use_syntax = true;
    bool use_ner = true;
    bool use_incompatible = true;
    SyntaxRules::Config syntax;
    NerFilter::Config ner;
    IncompatibleConcepts::Config incompatible;
  };

  struct Report {
    size_t input = 0;
    size_t output = 0;
    size_t rejected_syntax = 0;
    size_t rejected_ner = 0;
    size_t rejected_incompatible = 0;
    size_t rejected_total() const {
      return rejected_syntax + rejected_ner + rejected_incompatible;
    }
  };

  // `dump` and `lexicon` must outlive the pipeline. Corpus sentences feed
  // the NER supports and are provided via AddCorpusSentence before Verify.
  VerificationPipeline(const kb::EncyclopediaDump* dump,
                       const text::Lexicon* lexicon, const Config& config);

  void AddCorpusSentence(const std::vector<std::string>& words);

  // Folds one newly-arrived page into the pipeline's corpus statistics (the
  // page-name -> mention table and the attribute distributions backing the
  // incompatible-concepts strategy). The incremental updater calls this per
  // batch page instead of reconstructing the pipeline — which would re-scan
  // the entire accumulated dump — so per-batch verification cost stays
  // proportional to the delta, not the union.
  void AddPage(const kb::EncyclopediaPage& page);

  // Filters the candidate list; fills `report` if non-null, and `kept` if
  // non-null with the ascending indices of the surviving candidates.
  generation::CandidateList Verify(const generation::CandidateList& candidates,
                                   Report* report,
                                   std::vector<size_t>* kept = nullptr);

  const std::unordered_map<std::string, std::string>& mention_of_page() const {
    return mention_of_page_;
  }

 private:
  Config config_;
  SyntaxRules syntax_;
  NerFilter ner_;
  IncompatibleConcepts incompatible_;
  std::unordered_map<std::string, std::string> mention_of_page_;
};

}  // namespace cnpb::verification

#endif  // CNPROBASE_VERIFICATION_PIPELINE_H_
