// Short-text conceptualization — the application the paper motivates
// (short-text classification, information extraction): detect taxonomy
// mentions in a sentence and lift them to concepts via getConcept, exactly
// what a text-understanding client does against the deployed APIs.
//
//   ./conceptualization [num_entities]
#include <cstdio>
#include <cstdlib>

#include "core/builder.h"
#include "synth/corpus_gen.h"
#include "synth/encyclopedia_gen.h"
#include "synth/qa_gen.h"
#include "synth/world.h"
#include "taxonomy/api_service.h"
#include "text/trie_matcher.h"
#include "text/segmenter.h"

int main(int argc, char** argv) {
  using namespace cnpb;
  const size_t num_entities = argc > 1 ? std::atol(argv[1]) : 4000;

  synth::WorldModel::Config wc;
  wc.num_entities = num_entities;
  const synth::WorldModel world = synth::WorldModel::Generate(wc);
  const auto output = synth::EncyclopediaGenerator::Generate(world, {});
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
  config.neural.max_train_samples = 1000;
  for (const char* word : synth::ThematicWords()) {
    config.verification.syntax.thematic_lexicon.emplace_back(word);
  }
  core::CnProbaseBuilder::Report report;
  const auto taxonomy = core::CnProbaseBuilder::Build(
      output.dump, world.lexicon(), corpus_words, config, &report);
  taxonomy::ApiService api(
      util::UnownedSnapshot(&taxonomy),
      core::CnProbaseBuilder::BuildMentionIndex(output.dump, taxonomy));

  // Mention detector over the taxonomy's surface forms.
  text::TrieMatcher matcher;
  for (const auto& page : output.dump.pages()) {
    if (taxonomy.Find(page.name) != taxonomy::kInvalidNode) {
      matcher.Add(page.mention, 1);
    }
  }

  // Conceptualize a batch of questions.
  synth::QaGenerator::Config qc;
  qc.num_questions = 200;
  const auto questions = synth::QaGenerator::Generate(world, qc);
  int shown = 0;
  for (const auto& question : questions) {
    const auto matches = matcher.FindAll(question.text);
    if (matches.empty()) continue;
    std::printf("text:      %s\n", question.text.c_str());
    for (const auto& match : matches) {
      const std::string mention(match.text);
      const auto entities = api.TryMen2EntResolved(mention);
      if (!entities.ok() || entities->entities.empty()) continue;
      std::printf("  mention \"%s\"", mention.c_str());
      if (entities->entities.size() > 1) {
        std::printf(" (ambiguous: %zu readings, top by popularity)",
                    entities->entities.size());
      }
      std::printf("\n");
      const std::string& top = entities->entities[0].name;
      const auto concepts = api.TryGetConceptResolved(top);
      std::printf("    -> %s isA { ", top.c_str());
      if (concepts.ok()) {
        for (const auto& concept_name : concepts->names) {
          std::printf("%s ", concept_name.c_str());
        }
      }
      std::printf("}\n");
    }
    std::printf("\n");
    if (++shown >= 8) break;
  }
  std::printf("API usage so far: men2ent=%llu getConcept=%llu getEntity=%llu\n",
              (unsigned long long)api.usage().men2ent_calls,
              (unsigned long long)api.usage().get_concept_calls,
              (unsigned long long)api.usage().get_entity_calls);
  return 0;
}
