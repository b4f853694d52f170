// Multi-collection serving front end (DESIGN.md §14): splits the synthetic
// world into overlapping per-site dumps (the CN-DBpedia setting — no site
// alone has everything), builds one taxonomy per site, and hosts both as
// independent collections in a single process:
//
//   cnprobase_collections --root DIR [--port P] [--host H] [--threads N]
//                         [--entities E] [--publish-min-pages N]
//                         [--publish-max-delay-ms T] [--drain-ms MS]
//                         [--cache-mb MB] [--metrics-out BASE]
//
//   site_a  read-only, snapshot-persisted under --root (also the default
//           collection: bare /v1/... paths serve it byte-compatibly)
//   site_b  ingest-enabled: WAL under ROOT/site_b/wal, POST
//           /v1/c/site_b/ingest is a durable ack, the daemon applies and
//           publishes into site_b only
//
//   GET /v1/collections              both registrations + versions
//   GET /v1/c/<site>/isa|lca|similar|expand     reasoning queries
//   GET /v1/c/<site>/men2ent|getConcept|getEntity ...  the read API
//
// The point the CI smoke script drives: publishing into site_b never
// perturbs site_a's version stamps — isolation falls out of per-collection
// ApiService ownership, not an after-the-fact check.
//
// --port 0 (default) binds an ephemeral port, printed as "listening on
// http://HOST:PORT". One "sample<TAB>collection<TAB>entity<TAB>concept<TAB>
// ancestor<TAB>sibling" line per collection gives curl non-empty reasoning
// targets. SIGTERM/SIGINT: stop accepting, drain every ingest daemon, exit 0.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "collections/manager.h"
#include "core/builder.h"
#include "core/incremental.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "server/server.h"
#include "synth/corpus_gen.h"
#include "synth/encyclopedia_gen.h"
#include "synth/site_split.h"
#include "synth/world.h"
#include "taxonomy/api_service.h"
#include "taxonomy/view.h"
#include "text/segmenter.h"
#include "util/net.h"

namespace {

using namespace cnpb;

std::atomic<int> g_signal{0};

void HandleSignal(int signum) { g_signal.store(signum); }

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --root DIR [--port P] [--host H] [--threads N]"
               " [--entities E] [--publish-min-pages N]"
               " [--publish-max-delay-ms T] [--drain-ms MS] [--cache-mb MB]"
               " [--metrics-out BASE]\n",
               argv0);
  return 2;
}

// One entity with a parent (and, when the graph is deep enough, a
// grandparent and a sibling) — enough for the smoke script to issue isa,
// lca, similar and expand queries that resolve non-trivially.
void PrintSample(const std::string& name, const taxonomy::ServingView& view) {
  for (taxonomy::NodeId id = 0; id < view.num_nodes(); ++id) {
    if (view.Kind(id) != taxonomy::NodeKind::kEntity) continue;
    if (view.NumHypernyms(id) == 0) continue;
    taxonomy::NodeId parent = taxonomy::kInvalidNode;
    view.VisitHypernyms(id, [&](const taxonomy::HalfEdge& edge) {
      parent = edge.node;
      return false;
    });
    taxonomy::NodeId grandparent = parent;
    view.VisitHypernyms(parent, [&](const taxonomy::HalfEdge& edge) {
      grandparent = edge.node;
      return false;
    });
    taxonomy::NodeId sibling = id;
    view.VisitHyponyms(parent, [&](const taxonomy::HalfEdge& edge) {
      if (edge.node == id) return true;
      sibling = edge.node;
      return false;
    });
    std::printf("sample\t%s\t%.*s\t%.*s\t%.*s\t%.*s\n", name.c_str(),
                static_cast<int>(view.Name(id).size()), view.Name(id).data(),
                static_cast<int>(view.Name(parent).size()),
                view.Name(parent).data(),
                static_cast<int>(view.Name(grandparent).size()),
                view.Name(grandparent).data(),
                static_cast<int>(view.Name(sibling).size()),
                view.Name(sibling).data());
    return;
  }
  std::printf("sample\t%s\t-\t-\t-\t-\n", name.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  util::IgnoreSigpipe();

  server::HttpServer::Config config;
  collections::CollectionManager::Options options;
  options.default_collection = "site_a";
  ingest::IngestDaemon::Options daemon_options;
  daemon_options.publish_min_pages = 4;
  size_t entities = 800;
  size_t cache_mb = 0;
  std::string metrics_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--root") {
      options.root_dir = next("--root");
    } else if (arg == "--port") {
      config.port = static_cast<uint16_t>(std::atoi(next("--port")));
    } else if (arg == "--host") {
      config.host = next("--host");
    } else if (arg == "--threads") {
      config.num_threads = std::max(1, std::atoi(next("--threads")));
    } else if (arg == "--entities") {
      entities = static_cast<size_t>(std::atol(next("--entities")));
    } else if (arg == "--publish-min-pages") {
      daemon_options.publish_min_pages =
          static_cast<size_t>(std::atol(next("--publish-min-pages")));
    } else if (arg == "--publish-max-delay-ms") {
      daemon_options.publish_max_delay = std::chrono::milliseconds(
          std::atol(next("--publish-max-delay-ms")));
    } else if (arg == "--drain-ms") {
      config.drain_deadline =
          std::chrono::milliseconds(std::atol(next("--drain-ms")));
    } else if (arg == "--cache-mb") {
      cache_mb = static_cast<size_t>(std::atol(next("--cache-mb")));
    } else if (arg == "--metrics-out") {
      metrics_out = next("--metrics-out");
    } else {
      return Usage(argv[0]);
    }
  }
  if (options.root_dir.empty()) return Usage(argv[0]);
  if (cache_mb > 0) {
    options.enable_cache = true;
    options.cache_config.max_bytes = cache_mb << 20;
  }

  // One deterministic world, split into overlapping sites: the same page
  // may exist on both sites with different content regions retained.
  std::printf("building site taxonomies (%zu entities)...\n", entities);
  std::fflush(stdout);
  synth::WorldModel::Config wc;
  wc.num_entities = entities;
  const synth::WorldModel world = synth::WorldModel::Generate(wc);
  const auto master = synth::EncyclopediaGenerator::Generate(world, {});
  synth::SiteSplitConfig split_config;
  split_config.num_sites = 2;
  const auto sites = synth::SplitIntoSites(master.dump, split_config);

  collections::CollectionManager manager(options);

  // site_a: the classic batch build, served read-only and persisted so a
  // restart could mmap it back via CollectionManager::Open().
  text::Segmenter segmenter(&world.lexicon());
  const auto corpus =
      synth::CorpusGenerator::Generate(world, sites[0], segmenter, {});
  std::vector<std::vector<std::string>> corpus_words;
  corpus_words.reserve(corpus.sentences.size());
  for (const auto& sentence : corpus.sentences) {
    std::vector<std::string> words;
    for (const auto& token : sentence) words.push_back(token.word);
    corpus_words.push_back(std::move(words));
  }
  core::CnProbaseBuilder::Config builder_config;
  builder_config.neural.epochs = 1;
  builder_config.neural.max_train_samples = 1000;
  taxonomy::Taxonomy taxonomy_a = core::CnProbaseBuilder::Build(
      sites[0], world.lexicon(), corpus_words, builder_config, nullptr);
  auto view_a = taxonomy::ServingView::Encode(
      taxonomy_a,
      core::CnProbaseBuilder::BuildMentionIndex(sites[0], taxonomy_a));
  if (const util::Status status = manager.AddCollection("site_a", view_a);
      !status.ok()) {
    std::fprintf(stderr, "add site_a failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }

  // site_b: ingest-enabled — incremental base from its own site dump, WAL
  // recovery inside AddIngestCollection, live upserts over HTTP after.
  core::CnProbaseBuilder::Config stream_config;
  stream_config.neural.epochs = 1;
  stream_config.neural.max_train_samples = 1000;
  // Streamed pages carry explicit relations; the statistical verifier has
  // no corpus evidence for live traffic (same trade cnprobase_ingestd makes).
  stream_config.enable_verification = false;
  core::IncrementalUpdater updater(sites[1], &world.lexicon(), {},
                                   stream_config);
  if (const util::Status status =
          manager.AddIngestCollection("site_b", &updater, daemon_options);
      !status.ok()) {
    std::fprintf(stderr, "add site_b failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }

  server::HttpServer httpd(config, manager.AsHandler());
  if (const util::Status status = httpd.Start(); !status.ok()) {
    std::fprintf(stderr, "start failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf(
      "listening on http://%s:%u (threads=%d, root=%s, site_a v%llu, "
      "site_b v%llu)\n",
      config.host.c_str(), unsigned{httpd.port()}, config.num_threads,
      options.root_dir.c_str(),
      static_cast<unsigned long long>(manager.service("site_a")->version()),
      static_cast<unsigned long long>(manager.service("site_b")->version()));
  PrintSample("site_a", *manager.service("site_a")->CurrentView());
  PrintSample("site_b", *manager.service("site_b")->CurrentView());
  std::fflush(stdout);

  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);
  while (g_signal.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::printf("signal %d: draining...\n", g_signal.load());
  std::fflush(stdout);

  httpd.Stop();
  httpd.Wait();
  const util::Status drained = manager.StopAll();
  std::printf("drained: site_a v%llu, site_b v%llu\n",
              static_cast<unsigned long long>(
                  manager.service("site_a")->version()),
              static_cast<unsigned long long>(
                  manager.service("site_b")->version()));
  if (!drained.ok()) {
    std::fprintf(stderr, "drain failed: %s\n", drained.ToString().c_str());
    return 1;
  }
  if (!metrics_out.empty()) {
    manager.service("site_a")->ExportMetrics(&obs::MetricsRegistry::Global());
    manager.service("site_b")->ExportMetrics(&obs::MetricsRegistry::Global());
    manager.daemon("site_b")->ExportMetrics(&obs::MetricsRegistry::Global());
    if (const util::Status status = obs::WriteMetricsFiles(
            obs::MetricsRegistry::Global(), metrics_out);
        !status.ok()) {
      std::fprintf(stderr, "metrics export failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::printf("metrics written to %s.prom / %s.json\n", metrics_out.c_str(),
                metrics_out.c_str());
  }
  return 0;
}
