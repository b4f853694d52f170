// Micro-benchmarks (M1) for the substrates every experiment rests on:
// segmenter, PMI lookups, separation parses, trie matching, taxonomy
// queries and the API service. google-benchmark binary.
#include <benchmark/benchmark.h>

#include <memory>

#include "bench/bench_common.h"
#include "generation/separation.h"
#include "taxonomy/api_service.h"
#include "text/ngram.h"
#include "text/trie_matcher.h"

namespace cnpb {
namespace {

// Small shared fixture, built once per process.
struct MicroState {
  std::unique_ptr<bench::BenchWorld> world;
  std::unique_ptr<text::NgramCounter> ngrams;
  std::unique_ptr<taxonomy::Taxonomy> taxonomy;
  std::unique_ptr<taxonomy::ApiService> api;
  std::vector<std::string> abstracts;
  std::vector<std::string> brackets;
  std::vector<std::string> mentions;
  std::vector<std::string> concepts;
};

MicroState& State() {
  static MicroState* state = [] {
    auto* s = new MicroState();
    s->world = bench::MakeBenchWorld(4000);
    s->ngrams = std::make_unique<text::NgramCounter>();
    for (const auto& sentence : s->world->corpus_words) {
      s->ngrams->AddSentence(sentence);
    }
    auto config = bench::DefaultBuilderConfig();
    config.neural.epochs = 1;
    config.neural.max_train_samples = 500;
    core::CnProbaseBuilder::Report report;
    s->taxonomy = std::make_unique<taxonomy::Taxonomy>(
        core::CnProbaseBuilder::Build(s->world->output->dump,
                                      s->world->world->lexicon(),
                                      s->world->corpus_words, config, &report));
    s->api = std::make_unique<taxonomy::ApiService>(
        util::UnownedSnapshot(s->taxonomy.get()),
        core::CnProbaseBuilder::BuildMentionIndex(s->world->output->dump,
                                                  *s->taxonomy));
    for (const auto& page : s->world->output->dump.pages()) {
      if (!page.abstract.empty()) s->abstracts.push_back(page.abstract);
      if (!page.bracket.empty()) s->brackets.push_back(page.bracket);
      s->mentions.push_back(page.mention);
    }
    for (taxonomy::NodeId id = 0; id < s->taxonomy->num_nodes(); ++id) {
      if (s->taxonomy->Kind(id) == taxonomy::NodeKind::kConcept) {
        s->concepts.push_back(s->taxonomy->Name(id));
      }
    }
    return s;
  }();
  return *state;
}

void BM_SegmenterAbstract(benchmark::State& bm) {
  MicroState& s = State();
  size_t i = 0, bytes = 0;
  for (auto _ : bm) {
    const std::string& abstract = s.abstracts[i++ % s.abstracts.size()];
    benchmark::DoNotOptimize(s.world->segmenter->Segment(abstract));
    bytes += abstract.size();
  }
  bm.SetBytesProcessed(static_cast<int64_t>(bytes));
}
BENCHMARK(BM_SegmenterAbstract);

void BM_PmiLookup(benchmark::State& bm) {
  MicroState& s = State();
  for (auto _ : bm) {
    benchmark::DoNotOptimize(s.ngrams->Pmi("首席", "战略官"));
  }
}
BENCHMARK(BM_PmiLookup);

void BM_SeparationParse(benchmark::State& bm) {
  MicroState& s = State();
  generation::SeparationAlgorithm separation(s.ngrams.get());
  size_t i = 0;
  for (auto _ : bm) {
    const std::string& bracket = s.brackets[i++ % s.brackets.size()];
    benchmark::DoNotOptimize(
        separation.ParseCompound(bracket, *s.world->segmenter));
  }
}
BENCHMARK(BM_SeparationParse);

void BM_TrieMatchQuestion(benchmark::State& bm) {
  MicroState& s = State();
  text::TrieMatcher matcher;
  for (size_t i = 0; i < s.mentions.size(); ++i) {
    matcher.Add(s.mentions[i], i + 1);
  }
  const std::string question = "请问" + s.mentions[7] + "的代表作品有哪些？";
  for (auto _ : bm) {
    benchmark::DoNotOptimize(matcher.FindAll(question));
  }
}
BENCHMARK(BM_TrieMatchQuestion);

// Both time the served view — the structure every API query reads — not
// the builder's Taxonomy.
void BM_TaxonomyFind(benchmark::State& bm) {
  MicroState& s = State();
  const auto view = s.api->CurrentView();
  size_t i = 0;
  for (auto _ : bm) {
    benchmark::DoNotOptimize(view->Find(s.concepts[i++ % s.concepts.size()]));
  }
}
BENCHMARK(BM_TaxonomyFind);

void BM_TransitiveHypernyms(benchmark::State& bm) {
  MicroState& s = State();
  const auto view = s.api->CurrentView();
  const taxonomy::NodeId node = view->Find("男演员");
  for (auto _ : bm) {
    benchmark::DoNotOptimize(view->TransitiveHypernyms(node));
  }
}
BENCHMARK(BM_TransitiveHypernyms);

void BM_ApiMen2Ent(benchmark::State& bm) {
  MicroState& s = State();
  size_t i = 0;
  for (auto _ : bm) {
    benchmark::DoNotOptimize(
        s.api->TryMen2EntResolved(s.mentions[i++ % s.mentions.size()]));
  }
}
BENCHMARK(BM_ApiMen2Ent);

void BM_ApiGetEntity(benchmark::State& bm) {
  MicroState& s = State();
  size_t i = 0;
  for (auto _ : bm) {
    benchmark::DoNotOptimize(
        s.api->TryGetEntityResolved(s.concepts[i++ % s.concepts.size()]));
  }
}
BENCHMARK(BM_ApiGetEntity);

}  // namespace
}  // namespace cnpb

BENCHMARK_MAIN();
