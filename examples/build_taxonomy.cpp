// Full pipeline walkthrough (the paper's Figure 2 dataflow): generation from
// four sources, candidate merging, three-strategy verification, and
// persistence of the result. Prints per-stage statistics and evaluates the
// final taxonomy against the generator's ground truth.
//
//   ./build_taxonomy [num_entities] [output_dir]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/builder.h"
#include "eval/precision.h"
#include "synth/corpus_gen.h"
#include "synth/encyclopedia_gen.h"
#include "synth/world.h"
#include "taxonomy/snapshot.h"
#include "taxonomy/stats.h"
#include "text/segmenter.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace cnpb;
  const size_t num_entities = argc > 1 ? std::atol(argv[1]) : 8000;
  const std::string out_dir = argc > 2 ? argv[2] : "/tmp";

  util::WallTimer total;
  std::printf("== input: Chinese encyclopedia (synthetic, %zu entities) ==\n",
              num_entities);
  synth::WorldModel::Config wc;
  wc.num_entities = num_entities;
  const synth::WorldModel world = synth::WorldModel::Generate(wc);
  const auto output = synth::EncyclopediaGenerator::Generate(world, {});
  const kb::DumpStats stats = output.dump.Stats();
  std::printf("  pages %zu | abstracts %zu | SPO triples %zu | tags %zu | "
              "brackets %zu\n\n",
              stats.num_pages, stats.num_abstracts, stats.num_triples,
              stats.num_tags, stats.num_brackets);

  text::Segmenter segmenter(&world.lexicon());
  const auto corpus =
      synth::CorpusGenerator::Generate(world, output.dump, segmenter, {});
  std::vector<std::vector<std::string>> corpus_words;
  for (const auto& sentence : corpus.sentences) {
    std::vector<std::string> words;
    for (const auto& token : sentence) words.push_back(token.word);
    corpus_words.push_back(std::move(words));
  }
  std::printf("== text corpus: %zu sentences, %zu tokens ==\n\n",
              corpus.sentences.size(), corpus.NumTokens());

  core::CnProbaseBuilder::Config config;
  for (const char* word : synth::ThematicWords()) {
    config.verification.syntax.thematic_lexicon.emplace_back(word);
  }
  config.neural.epochs = 2;
  config.neural.max_train_samples = 2000;
  core::CnProbaseBuilder::Report report;
  const auto candidates = core::CnProbaseBuilder::BuildCandidates(
      output.dump, world.lexicon(), corpus_words, config, &report);

  std::printf("== generation module (%.1fs) ==\n", report.seconds_generation);
  std::printf("  separation algorithm (bracket): %zu candidates\n",
              report.bracket_candidates);
  std::printf("  neural generation (abstract):   %zu candidates "
              "(%zu training samples)\n",
              report.abstract_candidates, report.neural_stats.num_samples);
  std::printf("  predicate discovery (infobox):  %zu candidates "
              "(%zu predicates selected of %zu discovered)\n",
              report.infobox_candidates, report.discovery.selected.size(),
              report.discovery.candidates.size());
  std::printf("  direct extraction (tag):        %zu candidates\n",
              report.tag_candidates);
  std::printf("  merged:                         %zu candidate isA\n\n",
              report.merged_candidates);

  std::printf("== verification module (%.1fs) ==\n",
              report.seconds_verification);
  std::printf("  syntax rules:          -%zu\n",
              report.verification.rejected_syntax);
  std::printf("  named-entity filter:   -%zu\n",
              report.verification.rejected_ner);
  std::printf("  incompatible concepts: -%zu\n",
              report.verification.rejected_incompatible);
  std::printf("  verified:              %zu isA\n\n",
              report.verification.output);

  const auto taxonomy = core::CnProbaseBuilder::Materialise(candidates);
  const eval::Oracle oracle = [&](const std::string& hypo,
                                  const std::string& hyper) {
    return output.gold.IsCorrect(hypo, hyper);
  };
  const auto precision = eval::SampledPrecision(taxonomy, oracle, 2000);
  std::printf("== taxonomy ==\n");
  std::printf("  %zu entities, %zu concepts, %zu entity-concept + %zu "
              "subconcept-concept relations\n",
              taxonomy.NumEntities(), taxonomy.NumConcepts(),
              taxonomy.NumEntityConceptEdges(), taxonomy.NumSubconceptEdges());
  std::printf("  precision (2000-sample protocol): %.1f%%\n",
              100.0 * precision.precision());
  std::printf("  acyclic: %s\n", taxonomy.IsAcyclic() ? "yes" : "no");
  std::printf("\n== structure ==\n%s",
              taxonomy::FormatStats(taxonomy::ComputeStats(taxonomy)).c_str());

  const std::string taxonomy_path = out_dir + "/cnprobase_taxonomy.snap";
  const std::string dump_path = out_dir + "/cnprobase_dump.tsv";
  CNPB_CHECK_OK(taxonomy::WriteSnapshot(
      *taxonomy::ServingView::Encode(
          taxonomy,
          core::CnProbaseBuilder::BuildMentionIndex(output.dump, taxonomy)),
      taxonomy_path));
  CNPB_CHECK_OK(output.dump.Save(dump_path));
  std::printf("  saved taxonomy -> %s\n  saved dump     -> %s\n",
              taxonomy_path.c_str(), dump_path.c_str());
  std::printf("\ntotal %.1fs\n", total.ElapsedSeconds());
  return 0;
}
