// Quickstart: generate a small synthetic encyclopedia, show one page with
// the five regions of the paper's Figure 1, build CN-Probase over it, and
// query the three public APIs.
//
//   ./quickstart [num_entities]
#include <cstdio>
#include <cstdlib>

#include "core/builder.h"
#include "synth/corpus_gen.h"
#include "synth/encyclopedia_gen.h"
#include "synth/world.h"
#include "taxonomy/api_service.h"
#include "text/segmenter.h"

int main(int argc, char** argv) {
  using namespace cnpb;
  const size_t num_entities = argc > 1 ? std::atol(argv[1]) : 2000;

  // 1. A synthetic world + its CN-DBpedia-style dump.
  synth::WorldModel::Config wc;
  wc.num_entities = num_entities;
  const synth::WorldModel world = synth::WorldModel::Generate(wc);
  const auto output =
      synth::EncyclopediaGenerator::Generate(world, {});
  std::printf("generated %zu encyclopedia pages\n\n", output.dump.size());

  // 2. One page, Figure-1 style.
  for (const kb::EncyclopediaPage& page : output.dump.pages()) {
    if (page.bracket.empty() || page.abstract.empty() || page.tags.empty() ||
        page.infobox.size() < 4) {
      continue;
    }
    std::printf("(a) entity with bracket: %s\n", page.name.c_str());
    std::printf("(b) abstract:            %s\n", page.abstract.c_str());
    std::printf("(c) infobox:\n");
    for (const kb::SpoTriple& t : page.infobox) {
      std::printf("      %s = %s\n", t.predicate.c_str(), t.object.c_str());
    }
    std::printf("(d) tags:                ");
    for (const std::string& tag : page.tags) std::printf("%s ", tag.c_str());
    std::printf("\n\n");
    break;
  }

  // 3. Build the taxonomy (generation + verification).
  text::Segmenter segmenter(&world.lexicon());
  const auto corpus =
      synth::CorpusGenerator::Generate(world, output.dump, segmenter, {});
  std::vector<std::vector<std::string>> corpus_words;
  for (const auto& sentence : corpus.sentences) {
    std::vector<std::string> words;
    for (const auto& token : sentence) words.push_back(token.word);
    corpus_words.push_back(std::move(words));
  }
  core::CnProbaseBuilder::Config config;
  config.neural.epochs = 2;
  config.neural.max_train_samples = 800;
  for (const char* word : synth::ThematicWords()) {
    config.verification.syntax.thematic_lexicon.emplace_back(word);
  }
  core::CnProbaseBuilder::Report report;
  const auto taxonomy = core::CnProbaseBuilder::Build(
      output.dump, world.lexicon(), corpus_words, config, &report);
  std::printf("built taxonomy: %zu entities, %zu concepts, %zu isA "
              "(%zu rejected by verification)\n\n",
              taxonomy.NumEntities(), taxonomy.NumConcepts(),
              taxonomy.num_edges(), report.verification.rejected_total());

  // 4. The three public APIs.
  taxonomy::ApiService api(
      util::UnownedSnapshot(&taxonomy),
      core::CnProbaseBuilder::BuildMentionIndex(output.dump, taxonomy));
  for (const kb::EncyclopediaPage& page : output.dump.pages()) {
    const auto entities = api.TryMen2EntResolved(page.mention);
    if (!entities.ok() || entities->entities.empty()) continue;
    const std::string& name = entities->entities[0].name;
    const auto concepts = api.TryGetConceptResolved(name);
    if (!concepts.ok() || concepts->names.size() < 2) continue;
    std::printf("men2ent(\"%s\")    -> %s\n", page.mention.c_str(),
                name.c_str());
    std::printf("getConcept(\"%s\") -> ", name.c_str());
    for (const auto& c : concepts->names) std::printf("%s ", c.c_str());
    std::printf("\n");
    const auto hyponyms = api.TryGetEntityResolved(concepts->names[0], 5);
    std::printf("getEntity(\"%s\", 5) -> ", concepts->names[0].c_str());
    if (hyponyms.ok()) {
      for (const auto& h : hyponyms->names) std::printf("%s ", h.c_str());
    }
    std::printf("\n");
    break;
  }
  return 0;
}
