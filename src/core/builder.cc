#include "core/builder.h"

#include <algorithm>
#include <unordered_set>

#include "generation/direct_extraction.h"
#include "generation/separation.h"
#include "obs/metrics.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace cnpb::core {

namespace {

// Pages per extraction shard. One CopyNet decode costs ~100 us, so a
// 4-page shard is a task of about half a millisecond: a 32-page ingest
// batch becomes 8 shards that every lane can take a share of, where the
// default 128-item grain would run the whole batch inline on the calling
// thread.
constexpr size_t kExtractGrain = 4;

}  // namespace

GenerationModule::GenerationModule(
    const kb::EncyclopediaDump& base, const text::Lexicon& lexicon,
    const std::vector<std::vector<std::string>>& corpus,
    const CnProbaseBuilder::Config& config, CnProbaseBuilder::Report* report)
    : config_(config), segmenter_(&lexicon), neural_(config.neural) {
  util::WallTimer timer;
  for (const auto& sentence : corpus) ngrams_.AddSentence(sentence);

  // CopyNet's distant supervision and predicate discovery both align
  // against the base dump's bracket candidates. They consume the whole
  // prior at once (corpus-level statistics), so they run serially: sharding
  // them would change results.
  if (config_.enable_abstract || config_.enable_infobox) {
    const generation::CandidateList prior =
        generation::BracketExtractor(&segmenter_, &ngrams_).Extract(base);
    util::WallTimer stage_timer;
    if (config_.enable_abstract) {
      neural_.BuildDataset(base, prior, segmenter_);
      report->neural_stats = neural_.Train();
      seconds_.train = stage_timer.ElapsedSeconds();
    }
    if (config_.enable_infobox) {
      stage_timer.Restart();
      report->discovery = generation::PredicateDiscovery(config_.predicates)
                              .Discover(base, prior);
      selected_predicates_ = report->discovery.selected;
      seconds_.discovery = stage_timer.ElapsedSeconds();
    }
  }
  seconds_.prepare = timer.ElapsedSeconds();
}

generation::CandidateList GenerationModule::Extract(
    const kb::EncyclopediaDump& dump, size_t first_page,
    CnProbaseBuilder::Report* report) const {
  // Each shard runs the enabled extractors over its own pages; each
  // source's shard outputs are then concatenated in page order, so the
  // merge sees exactly the lists a serial pass over the range would give.
  struct ShardOutput {
    generation::CandidateList bracket;
    generation::CandidateList infobox;
    generation::CandidateList tags;
    generation::CandidateList abstracts;
  };
  const generation::BracketExtractor extractor(&segmenter_, &ngrams_);
  const std::vector<util::IndexRange> shards =
      util::MakeShards(dump.size() - first_page, kExtractGrain);
  std::vector<ShardOutput> outputs(shards.size());
  util::ParallelFor(shards.size(), [&](size_t s) {
    const size_t begin = first_page + shards[s].first;
    const size_t end = first_page + shards[s].second;
    ShardOutput& out = outputs[s];
    if (config_.enable_bracket) {
      out.bracket = extractor.ExtractRange(dump, begin, end);
    }
    if (config_.enable_infobox) {
      out.infobox = generation::PredicateDiscovery::Extract(
          dump, selected_predicates_, begin, end);
    }
    if (config_.enable_tag) {
      out.tags = generation::ExtractFromTags(dump, begin, end);
    }
    if (config_.enable_abstract) {
      out.abstracts = neural_.ExtractRange(dump, segmenter_, begin, end);
    }
  });

  // One source's candidates, in page order, scored with its prior.
  auto collect = [&outputs](generation::CandidateList ShardOutput::*source,
                            float prior) {
    std::vector<generation::CandidateList> parts;
    parts.reserve(outputs.size());
    for (ShardOutput& out : outputs) parts.push_back(std::move(out.*source));
    generation::CandidateList list = util::ConcatInOrder(parts);
    for (generation::Candidate& c : list) c.score = prior;
    return list;
  };
  const generation::CandidateList bracket =
      collect(&ShardOutput::bracket, config_.bracket_prior);
  const generation::CandidateList infobox =
      collect(&ShardOutput::infobox, config_.infobox_prior);
  const generation::CandidateList tags =
      collect(&ShardOutput::tags, config_.tag_prior);
  const generation::CandidateList abstracts =
      collect(&ShardOutput::abstracts, config_.abstract_prior);
  // Merge in decreasing-precision order so provenance reflects the most
  // trustworthy source of each pair.
  generation::CandidateList merged =
      generation::MergeCandidates({&bracket, &infobox, &tags, &abstracts});
  if (report != nullptr) {
    report->bracket_candidates = bracket.size();
    report->abstract_candidates = abstracts.size();
    report->infobox_candidates = infobox.size();
    report->tag_candidates = tags.size();
    report->merged_candidates = merged.size();
  }
  return merged;
}

generation::CandidateList CnProbaseBuilder::BuildCandidates(
    const kb::EncyclopediaDump& dump, const text::Lexicon& lexicon,
    const std::vector<std::vector<std::string>>& corpus, const Config& config,
    Report* report) {
  Report local;
  util::WallTimer timer;

  // --- generation module ---------------------------------------------------
  const GenerationModule module(dump, lexicon, corpus, config, &local);
  util::WallTimer extract_timer;
  generation::CandidateList merged = module.Extract(dump, 0, &local);
  local.seconds_generation = timer.ElapsedSeconds();

  // Build-stage gauges (last build wins) and counters (accumulated).
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.gauge("build.stage.neural_train_seconds")
      ->Set(module.seconds().train);
  metrics.gauge("build.stage.predicate_discovery_seconds")
      ->Set(module.seconds().discovery);
  metrics.gauge("build.stage.extract_seconds")
      ->Set(extract_timer.ElapsedSeconds());
  metrics.counter("build.shards_processed")
      ->Increment(util::MakeShards(dump.size(), kExtractGrain).size());
  metrics.counter("build.pages_processed")->Increment(dump.size());
  metrics.counter("build.candidates.bracket")
      ->Increment(local.bracket_candidates);
  metrics.counter("build.candidates.abstract")
      ->Increment(local.abstract_candidates);
  metrics.counter("build.candidates.infobox")
      ->Increment(local.infobox_candidates);
  metrics.counter("build.candidates.tag")->Increment(local.tag_candidates);
  metrics.counter("build.candidates.merged")
      ->Increment(local.merged_candidates);

  // --- verification module -------------------------------------------------
  timer.Restart();
  generation::CandidateList verified;
  if (config.enable_verification) {
    verification::VerificationPipeline pipeline(&dump, &lexicon,
                                                config.verification);
    for (const auto& sentence : corpus) pipeline.AddCorpusSentence(sentence);
    verified = pipeline.Verify(merged, &local.verification);
  } else {
    verified = std::move(merged);
    local.verification.input = local.merged_candidates;
    local.verification.output = verified.size();
  }
  local.seconds_verification = timer.ElapsedSeconds();
  metrics.gauge("build.stage.generation_seconds")->Set(local.seconds_generation);
  metrics.gauge("build.stage.verification_seconds")
      ->Set(local.seconds_verification);
  metrics.counter("build.runs")->Increment();

  if (report != nullptr) *report = std::move(local);
  return verified;
}

taxonomy::Taxonomy CnProbaseBuilder::Materialise(
    const generation::CandidateList& candidates) {
  taxonomy::Taxonomy taxonomy;
  // Self-loops are skipped before anything is interned: AddIsa would reject
  // the edge anyway, and interning its endpoint would leave an isolated node
  // that the next rebuild from this taxonomy's edges drops again.
  const auto self_loop = [](const generation::Candidate& candidate) {
    return candidate.hypo == candidate.hyper;
  };
  // Concepts first so a term that is both a page and a hypernym gets the
  // concept kind (subconcept relations).
  std::unordered_set<std::string_view> concepts;
  for (const generation::Candidate& candidate : candidates) {
    if (!self_loop(candidate)) concepts.insert(candidate.hyper);
  }
  for (const generation::Candidate& candidate : candidates) {
    if (!self_loop(candidate)) {
      taxonomy.AddNode(candidate.hyper, taxonomy::NodeKind::kConcept);
    }
  }
  for (const generation::Candidate& candidate : candidates) {
    if (self_loop(candidate)) continue;
    const taxonomy::NodeKind kind = concepts.count(candidate.hypo) > 0
                                        ? taxonomy::NodeKind::kConcept
                                        : taxonomy::NodeKind::kEntity;
    taxonomy.AddIsa(candidate.hypo, candidate.hyper, candidate.source,
                    candidate.score, kind);
  }
  return taxonomy;
}

taxonomy::Taxonomy CnProbaseBuilder::Build(
    const kb::EncyclopediaDump& dump, const text::Lexicon& lexicon,
    const std::vector<std::vector<std::string>>& corpus, const Config& config,
    Report* report) {
  return Materialise(BuildCandidates(dump, lexicon, corpus, config, report));
}

taxonomy::ApiService::MentionIndex CnProbaseBuilder::BuildMentionIndex(
    const kb::EncyclopediaDump& dump, const taxonomy::Taxonomy& taxonomy) {
  taxonomy::ApiService::MentionIndex index;
  auto add = [&index](const std::string& mention, taxonomy::NodeId id) {
    std::vector<taxonomy::NodeId>& candidates = index[mention];
    if (std::find(candidates.begin(), candidates.end(), id) ==
        candidates.end()) {
      candidates.push_back(id);
    }
  };
  for (const kb::EncyclopediaPage& page : dump.pages()) {
    const taxonomy::NodeId id = taxonomy.Find(page.name);
    if (id != taxonomy::kInvalidNode) {
      add(page.mention, id);
      for (const std::string& alias : page.aliases) add(alias, id);
    }
  }
  return index;
}

}  // namespace cnpb::core
