#include "core/builder.h"

#include <algorithm>
#include <unordered_set>

#include "generation/direct_extraction.h"
#include "generation/separation.h"
#include "obs/metrics.h"
#include "text/ngram.h"
#include "text/segmenter.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace cnpb::core {

generation::CandidateList CnProbaseBuilder::BuildCandidates(
    const kb::EncyclopediaDump& dump, const text::Lexicon& lexicon,
    const std::vector<std::vector<std::string>>& corpus, const Config& config,
    Report* report) {
  Report local;
  util::WallTimer timer;

  // Build-stage instruments. Stage wall times are gauges (last build wins);
  // shard-level timings go to histograms so tail shards stay visible, and the
  // shard/page counters make pipeline progress observable from outside.
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  obs::Counter* shards_processed = metrics.counter("build.shards_processed");
  obs::Counter* pages_processed = metrics.counter("build.pages_processed");
  obs::BucketHistogram* bracket_shard_seconds =
      metrics.histogram("build.shard.bracket_seconds");
  obs::BucketHistogram* abstract_shard_seconds =
      metrics.histogram("build.shard.abstract_seconds");
  obs::BucketHistogram* infobox_shard_seconds =
      metrics.histogram("build.shard.infobox_seconds");
  obs::BucketHistogram* tag_shard_seconds =
      metrics.histogram("build.shard.tag_seconds");
  util::WallTimer stage_timer;

  text::Segmenter segmenter(&lexicon);
  text::NgramCounter ngrams;
  for (const auto& sentence : corpus) ngrams.AddSentence(sentence);

  // Deterministic shard plan over dump pages: a pure function of the page
  // count, never of the thread count. Both generation passes below fan out
  // over these shards and concatenate the per-shard outputs in shard order.
  const std::vector<util::IndexRange> shards = util::MakeShards(dump.size());

  // --- generation module ---------------------------------------------------
  // Pass 1 (sharded): bracket extraction. It runs first and alone because
  // its output is also the distant-supervision prior for the abstract and
  // infobox extractors.
  generation::CandidateList bracket;
  stage_timer.Restart();
  if (config.enable_bracket || config.enable_abstract ||
      config.enable_infobox) {
    generation::BracketExtractor extractor(&segmenter, &ngrams);
    std::vector<generation::CandidateList> parts =
        util::ParallelMap(shards.size(), [&](size_t s) {
          obs::ScopedTimer shard_timer(bracket_shard_seconds);
          shards_processed->Increment();
          pages_processed->Increment(shards[s].second - shards[s].first);
          return extractor.ExtractRange(dump, shards[s].first,
                                        shards[s].second);
        });
    bracket = util::ConcatInOrder(parts);
  }
  metrics.gauge("build.stage.bracket_seconds")
      ->Set(stage_timer.ElapsedSeconds());

  // Global stages: neural training and predicate discovery consume the whole
  // bracket prior / dump at once (corpus-level statistics), so they cannot
  // be sharded without changing results.
  generation::NeuralGeneration neural(config.neural);
  stage_timer.Restart();
  if (config.enable_abstract) {
    neural.BuildDataset(dump, bracket, segmenter);
    local.neural_stats = neural.Train();
  }
  metrics.gauge("build.stage.neural_train_seconds")
      ->Set(stage_timer.ElapsedSeconds());
  generation::PredicateDiscovery discovery(config.predicates);
  stage_timer.Restart();
  if (config.enable_infobox) {
    local.discovery = discovery.Discover(dump, bracket);
  }
  metrics.gauge("build.stage.predicate_discovery_seconds")
      ->Set(stage_timer.ElapsedSeconds());

  // Pass 2 (sharded): the three remaining extractors run per shard on the
  // frozen model / selected predicates, writing per-shard slots.
  struct ShardOutput {
    generation::CandidateList abstracts;
    generation::CandidateList infobox;
    generation::CandidateList tags;
  };
  std::vector<ShardOutput> shard_outputs(shards.size());
  stage_timer.Restart();
  util::ParallelFor(shards.size(), [&](size_t s) {
    const auto [begin, end] = shards[s];
    ShardOutput& out = shard_outputs[s];
    if (config.enable_abstract) {
      obs::ScopedTimer shard_timer(abstract_shard_seconds);
      out.abstracts = neural.ExtractRange(dump, segmenter, begin, end);
    }
    if (config.enable_infobox) {
      obs::ScopedTimer shard_timer(infobox_shard_seconds);
      out.infobox = generation::PredicateDiscovery::Extract(
          dump, local.discovery.selected, begin, end);
    }
    if (config.enable_tag) {
      obs::ScopedTimer shard_timer(tag_shard_seconds);
      out.tags = generation::ExtractFromTags(dump, begin, end);
    }
    shards_processed->Increment();
    pages_processed->Increment(end - begin);
  });
  metrics.gauge("build.stage.extract_pass2_seconds")
      ->Set(stage_timer.ElapsedSeconds());

  generation::CandidateList abstract_candidates;
  generation::CandidateList infobox_candidates;
  generation::CandidateList tag_candidates;
  {
    std::vector<generation::CandidateList> abstracts, infoboxes, tags;
    abstracts.reserve(shards.size());
    infoboxes.reserve(shards.size());
    tags.reserve(shards.size());
    for (ShardOutput& out : shard_outputs) {
      abstracts.push_back(std::move(out.abstracts));
      infoboxes.push_back(std::move(out.infobox));
      tags.push_back(std::move(out.tags));
    }
    abstract_candidates = util::ConcatInOrder(abstracts);
    infobox_candidates = util::ConcatInOrder(infoboxes);
    tag_candidates = util::ConcatInOrder(tags);
  }

  if (!config.enable_bracket) bracket.clear();
  for (auto& candidate : bracket) candidate.score = config.bracket_prior;
  for (auto& candidate : infobox_candidates) {
    candidate.score = config.infobox_prior;
  }
  for (auto& candidate : tag_candidates) candidate.score = config.tag_prior;
  for (auto& candidate : abstract_candidates) {
    candidate.score = config.abstract_prior;
  }
  local.bracket_candidates = bracket.size();
  local.abstract_candidates = abstract_candidates.size();
  local.infobox_candidates = infobox_candidates.size();
  local.tag_candidates = tag_candidates.size();

  // Merge in decreasing-precision order so provenance reflects the most
  // trustworthy source of each pair.
  stage_timer.Restart();
  generation::CandidateList merged = generation::MergeCandidates(
      {&bracket, &infobox_candidates, &tag_candidates, &abstract_candidates});
  metrics.gauge("build.stage.merge_seconds")
      ->Set(stage_timer.ElapsedSeconds());
  local.merged_candidates = merged.size();
  local.seconds_generation = timer.ElapsedSeconds();
  metrics.counter("build.candidates.bracket")->Increment(bracket.size());
  metrics.counter("build.candidates.abstract")
      ->Increment(abstract_candidates.size());
  metrics.counter("build.candidates.infobox")
      ->Increment(infobox_candidates.size());
  metrics.counter("build.candidates.tag")->Increment(tag_candidates.size());
  metrics.counter("build.candidates.merged")->Increment(merged.size());

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
