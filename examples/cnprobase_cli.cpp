// Command-line front end over the library's persistence APIs:
//
//   cnprobase_cli generate <dir> [entities]   synthesise dump+corpus+lexicon
//   cnprobase_cli build    <dir>              build <dir>/taxonomy.snap
//   cnprobase_cli stats    <dir>              structural report
//   cnprobase_cli query    <dir> <term>...    hypernyms/hyponyms of terms
//
// `generate` then `build` then `query` reproduces the whole pipeline from
// files on disk, the way a deployment would run it stage by stage.
//
// Any command accepts `--metrics-out <base>`: on exit the process metrics
// registry is exported to <base>.prom (Prometheus text) and <base>.json.
// With `build` this covers per-stage wall times and verification outcome
// counters; `build` additionally serves a short deterministic ApiService
// workload over the fresh taxonomy (two published versions) so the export
// also carries query latency buckets and per-version QPS.
//
// Robustness flags (DESIGN.md §8):
//   --max-load-errors <n>   `build` tolerates up to n malformed dump rows,
//                           quarantining them instead of failing the load
//   --quarantine <path>     sidecar TSV receiving the quarantined rows with
//                           reason codes (implies row quarantining)
//
// The taxonomy store is one CNPBSNP snapshot (DESIGN.md §10), mention index
// included. `build` keeps the file it replaces as taxonomy.snap.bak, and
// `stats`/`query` fall back to that copy when taxonomy.snap is corrupt.
//
// Fault injection for chaos testing is configured via the CNPB_FAULTS /
// CNPB_FAULT_SEED environment variables (see util/fault_injection.h).
//
// Every failed load/save/build exits nonzero with the util::Status on
// stderr — no aborts on bad input.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/builder.h"
#include "kb/dump.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "synth/corpus_gen.h"
#include "synth/encyclopedia_gen.h"
#include "synth/world.h"
#include "taxonomy/api_service.h"
#include "taxonomy/snapshot.h"
#include "taxonomy/stats.h"
#include "taxonomy/view.h"
#include "text/segmenter.h"
#include "util/strings.h"
#include "util/tsv.h"

namespace {

using namespace cnpb;

std::string DumpPath(const std::string& dir) { return dir + "/dump.tsv"; }
std::string CorpusPath(const std::string& dir) { return dir + "/corpus.tsv"; }
std::string LexiconPath(const std::string& dir) { return dir + "/lexicon.tsv"; }
std::string TaxonomyPath(const std::string& dir) {
  return dir + "/taxonomy.snap";
}

// Prints a failed Status with context and converts it to a nonzero exit
// code; bad input or a failed write is an error report, not an abort.
int Fail(const char* what, const util::Status& status) {
  std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
  return 1;
}

// Strict parse of a numeric argument: garbage is a usage error (exit 2)
// naming the argument, never a silent 0.
size_t ParseCount(const char* what, const char* text) {
  uint64_t value = 0;
  if (!util::ParseUint64(text, &value)) {
    std::fprintf(stderr, "%s: invalid value '%s' (want a count)\n", what,
                 text);
    std::exit(2);
  }
  return static_cast<size_t>(value);
}

int Generate(const std::string& dir, size_t entities) {
  synth::WorldModel::Config wc;
  wc.num_entities = entities;
  const synth::WorldModel world = synth::WorldModel::Generate(wc);
  const auto output = synth::EncyclopediaGenerator::Generate(world, {});
  text::Segmenter segmenter(&world.lexicon());
  const auto corpus =
      synth::CorpusGenerator::Generate(world, output.dump, segmenter, {});

  if (util::Status s = output.dump.Save(DumpPath(dir)); !s.ok()) {
    return Fail("save dump", s);
  }
  if (util::Status s = world.lexicon().Save(LexiconPath(dir)); !s.ok()) {
    return Fail("save lexicon", s);
  }
  util::TsvWriter writer(CorpusPath(dir));
  for (const auto& sentence : corpus.sentences) {
    std::vector<std::string> words;
    for (const auto& token : sentence) words.push_back(token.word);
    writer.WriteRow(words);
  }
  if (util::Status s = writer.Close(); !s.ok()) {
    return Fail("save corpus", s);
  }
  std::printf("wrote %zu pages, %zu corpus sentences, %zu lexicon words to %s\n",
              output.dump.size(), corpus.sentences.size(),
              world.lexicon().size(), dir.c_str());
  return 0;
}

// Serves a deterministic query workload over the freshly built taxonomy so
// a --metrics-out export carries serving-side metrics (latency buckets,
// per-version QPS) and not just build-side ones. The taxonomy is published
// twice — the republish is a realistic no-op update — so the per-version
// attribution has more than one version to split across.
void ServeMetricsWorkload(const kb::EncyclopediaDump& dump,
                          taxonomy::Taxonomy taxonomy) {
  auto frozen = taxonomy::Taxonomy::Freeze(std::move(taxonomy));
  taxonomy::ApiService api(frozen,
                           core::CnProbaseBuilder::BuildMentionIndex(
                               dump, *frozen));
  // Enough passes over the dump that the 1-in-256 latency sampling in
  // ApiService still collects a few hundred observations per API.
  const size_t passes =
      std::max<size_t>(1, 100000 / std::max<size_t>(1, dump.size()));
  const auto run_queries = [&]() {
    for (size_t pass = 0; pass < passes; ++pass) {
      size_t i = 0;
      for (const kb::EncyclopediaPage& page : dump.pages()) {
        (void)api.TryMen2EntResolved(page.mention);
        if (i % 2 == 0) (void)api.TryGetConceptResolved(page.name);
        if (i % 4 == 0) (void)api.TryGetEntityResolved(page.name, 20);
        ++i;
      }
    }
  };
  run_queries();
  api.Publish(frozen, core::CnProbaseBuilder::BuildMentionIndex(dump, *frozen));
  run_queries();
  api.ExportMetrics(&obs::MetricsRegistry::Global());
  const auto usage = api.usage();
  std::printf(
      "metrics workload: %llu API calls across %llu published versions\n",
      static_cast<unsigned long long>(usage.total()),
      static_cast<unsigned long long>(api.version()));
}

int Build(const std::string& dir, const std::string& metrics_out,
          const kb::DumpLoadOptions& load_options) {
  kb::DumpLoadReport load_report;
  auto dump = kb::EncyclopediaDump::Load(DumpPath(dir), load_options,
                                         &load_report);
  if (!dump.ok()) return Fail("load dump", dump.status());
  if (load_report.rows_quarantined > 0) {
    std::fprintf(stderr, "quarantined %zu of %zu dump rows",
                 load_report.rows_quarantined, load_report.rows_total);
    if (!load_options.quarantine_path.empty()) {
      std::fprintf(stderr, " -> %s", load_options.quarantine_path.c_str());
    }
    std::fprintf(stderr, "\n");
    for (const auto& [reason, count] : load_report.quarantined_by_reason) {
      std::fprintf(stderr, "  %-16s %zu\n", reason.c_str(), count);
    }
  }
  auto lexicon = text::Lexicon::Load(LexiconPath(dir));
  if (!lexicon.ok()) {
    std::fprintf(stderr, "load lexicon: %s\n",
                 lexicon.status().ToString().c_str());
    return 1;
  }
  auto corpus_rows = util::ReadTsvFile(CorpusPath(dir));
  if (!corpus_rows.ok()) {
    std::fprintf(stderr, "load corpus: %s\n",
                 corpus_rows.status().ToString().c_str());
    return 1;
  }

  core::CnProbaseBuilder::Config config;
  for (const char* word : synth::ThematicWords()) {
    config.verification.syntax.thematic_lexicon.emplace_back(word);
  }
  core::CnProbaseBuilder::Report report;
  auto taxonomy = core::CnProbaseBuilder::Build(
      *dump, *lexicon, *corpus_rows, config, &report);
  if (util::Status s = taxonomy::WriteSnapshotWithBackup(
          *taxonomy::ServingView::Encode(
              taxonomy,
              core::CnProbaseBuilder::BuildMentionIndex(*dump, taxonomy)),
          TaxonomyPath(dir));
      !s.ok()) {
    return Fail("save taxonomy", s);
  }
  std::printf(
      "built %s isA relations (%zu rejected by verification) -> %s\n",
      util::CommaSeparated(taxonomy.num_edges()).c_str(),
      report.verification.rejected_total(), TaxonomyPath(dir).c_str());
  if (!metrics_out.empty()) {
    ServeMetricsWorkload(*dump, std::move(taxonomy));
  }
  return 0;
}

int Stats(const std::string& dir) {
  auto view = taxonomy::LoadSnapshotWithFallback(TaxonomyPath(dir));
  if (!view.ok()) return Fail("load taxonomy", view.status());
  // The stats pass walks the full mutable structure.
  auto taxonomy = taxonomy::MaterializeTaxonomy(**view);
  if (!taxonomy.ok()) return Fail("materialize taxonomy", taxonomy.status());
  std::printf("%s", taxonomy::FormatStats(taxonomy::ComputeStats(*taxonomy))
                        .c_str());
  return 0;
}

int Query(const std::string& dir, int argc, char** argv, int first) {
  auto loaded = taxonomy::LoadSnapshotWithFallback(TaxonomyPath(dir));
  if (!loaded.ok()) return Fail("load taxonomy", loaded.status());
  const std::shared_ptr<const taxonomy::ServingView> view = *std::move(loaded);
  for (int i = first; i < argc; ++i) {
    const taxonomy::NodeId id = view->Find(argv[i]);
    if (id == taxonomy::kInvalidNode) {
      std::printf("%s: not found\n", argv[i]);
      continue;
    }
    std::printf("%s:\n  hypernyms:", argv[i]);
    view->VisitHypernyms(id, [&](const taxonomy::HalfEdge& edge) {
      std::printf(" %s", std::string(view->Name(edge.node)).c_str());
      return true;
    });
    std::printf("\n  hyponyms (%zu):", view->NumHyponyms(id));
    size_t shown = 0;
    view->VisitHyponyms(id, [&](const taxonomy::HalfEdge& edge) {
      std::printf(" %s", std::string(view->Name(edge.node)).c_str());
      return ++shown < 6;
    });
    std::printf("\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip `--flag <value>` options wherever they appear; the remaining
  // positional arguments keep their usual meaning.
  std::string metrics_out;
  kb::DumpLoadOptions load_options;
  std::vector<char*> args;
  args.reserve(argc);
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--metrics-out" && i + 1 < argc) {
      metrics_out = argv[++i];
      continue;
    }
    if (arg == "--max-load-errors" && i + 1 < argc) {
      load_options.max_errors = ParseCount("--max-load-errors", argv[++i]);
      continue;
    }
    if (arg == "--quarantine" && i + 1 < argc) {
      load_options.quarantine_path = argv[++i];
      // A quarantine sink implies tolerating at least some bad rows.
      if (load_options.max_errors == 0) {
        load_options.max_errors = static_cast<size_t>(-1);
      }
      continue;
    }
    args.push_back(argv[i]);
  }
  const int nargs = static_cast<int>(args.size());
  if (nargs < 3) {
    std::fprintf(stderr,
                 "usage: %s generate|build|stats|query <dir> [args] "
                 "[--metrics-out <base>] [--max-load-errors <n>] "
                 "[--quarantine <path>]\n",
                 argv[0]);
    return 2;
  }
  const std::string command = args[1];
  const std::string dir = args[2];
  int rc = 2;
  if (command == "generate") {
    rc = Generate(dir, nargs > 3 ? ParseCount("entities", args[3]) : 8000);
  } else if (command == "build") {
    rc = Build(dir, metrics_out, load_options);
  } else if (command == "stats") {
    rc = Stats(dir);
  } else if (command == "query") {
    rc = Query(dir, nargs, args.data(), 3);
  } else {
    std::fprintf(stderr, "unknown command: %s\n", command.c_str());
    return 2;
  }
  if (!metrics_out.empty()) {
    const cnpb::util::Status status = cnpb::obs::WriteMetricsFiles(
        cnpb::obs::MetricsRegistry::Global(), metrics_out);
    if (!status.ok()) {
      std::fprintf(stderr, "metrics export failed: %s\n",
                   status.ToString().c_str());
      return rc == 0 ? 1 : rc;
    }
    std::printf("metrics written to %s.prom and %s.json\n",
                metrics_out.c_str(), metrics_out.c_str());
  }
  return rc;
}
