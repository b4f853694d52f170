// Network front end for the three public APIs (Table II): builds a
// taxonomy from the synthetic world at --entities scale, registers its
// mention index, and serves it over HTTP/1.1 until SIGTERM/SIGINT:
//
//   cnprobase_serve [--port P] [--host H] [--threads N] [--entities E]
//                   [--max-in-flight M] [--deadline-us D]
//                   [--drain-ms MS] [--metrics-out BASE]
//                   [--snapshot-in PATH] [--snapshot-out PATH]
//                   [--cache-mb MB] [--poller auto|epoll|poll]
//                   [--write-stall-ms MS]
//
// --snapshot-in mmap-loads a binary snapshot (DESIGN.md §10) and serves it
// zero-copy, skipping the build entirely — the production cold-start path.
// --snapshot-out writes the served view as a binary snapshot after startup,
// so a build-and-serve run leaves behind a file the next run can mmap.
//
// --cache-mb > 0 fronts the single-shot endpoints with the version-keyed
// result cache (DESIGN.md §11); its hit/miss tally is printed at exit.
// --poller forces the event backend (epoll fails on non-Linux builds);
// --write-stall-ms tunes how long a connection may hold unflushed output
// without the peer reading before its fd is reclaimed.
//
//   GET /v1/men2ent?mention=M        GET/POST /v1/men2ent_batch
//   GET /v1/getConcept?entity=E      GET/POST /v1/getConcept_batch
//   GET /v1/getEntity?concept=C      GET/POST /v1/getEntity_batch
//   GET /healthz                     GET /metrics
//
// --port 0 (the default) binds an ephemeral port; the actual endpoint is
// printed as "listening on http://HOST:PORT" once serving (the CI smoke
// script scrapes that line). Sample query terms that exist in the built
// taxonomy are printed too, so curl has something non-empty to ask for.
//
// SIGTERM/SIGINT trigger a graceful drain (stop accepting, finish
// in-flight requests within --drain-ms, then close) and the process exits
// 0. --max-in-flight / --deadline-us arm the ApiService overload policy:
// shed calls surface as HTTP 429 with Retry-After, blown deadlines as 504
// (DESIGN.md §9).
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "core/builder.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "server/server.h"
#include "server/service.h"
#include "synth/corpus_gen.h"
#include "synth/encyclopedia_gen.h"
#include "synth/world.h"
#include "taxonomy/api_service.h"
#include "taxonomy/snapshot.h"
#include "taxonomy/view.h"
#include "text/segmenter.h"
#include "util/net.h"
#include "util/strings.h"

namespace {

using namespace cnpb;

std::atomic<int> g_signal{0};

void HandleSignal(int signum) { g_signal.store(signum); }

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port P] [--host H] [--threads N] [--entities E]"
               " [--max-in-flight M] [--deadline-us D] [--drain-ms MS]"
               " [--metrics-out BASE] [--snapshot-in PATH]"
               " [--snapshot-out PATH] [--cache-mb MB]"
               " [--poller auto|epoll|poll] [--write-stall-ms MS]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  util::IgnoreSigpipe();  // client disconnects must be EPIPE, not SIGPIPE

  server::HttpServer::Config config;
  size_t entities = 2000;
  size_t max_in_flight = 0;
  long deadline_us = 0;
  size_t cache_mb = 0;
  std::string metrics_out;
  std::string snapshot_in;
  std::string snapshot_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--port") {
      config.port = static_cast<uint16_t>(std::atoi(next("--port")));
    } else if (arg == "--host") {
      config.host = next("--host");
    } else if (arg == "--threads") {
      config.num_threads = std::max(1, std::atoi(next("--threads")));
    } else if (arg == "--entities") {
      entities = static_cast<size_t>(std::atol(next("--entities")));
    } else if (arg == "--max-in-flight") {
      max_in_flight =
          static_cast<size_t>(std::atol(next("--max-in-flight")));
    } else if (arg == "--deadline-us") {
      deadline_us = std::atol(next("--deadline-us"));
    } else if (arg == "--drain-ms") {
      config.drain_deadline =
          std::chrono::milliseconds(std::atol(next("--drain-ms")));
    } else if (arg == "--metrics-out") {
      metrics_out = next("--metrics-out");
    } else if (arg == "--snapshot-in") {
      snapshot_in = next("--snapshot-in");
    } else if (arg == "--snapshot-out") {
      snapshot_out = next("--snapshot-out");
    } else if (arg == "--cache-mb") {
      cache_mb = static_cast<size_t>(std::atol(next("--cache-mb")));
    } else if (arg == "--poller") {
      const std::string poller = next("--poller");
      if (poller == "auto") {
        config.poller = server::HttpServer::Poller::kAuto;
      } else if (poller == "epoll") {
        config.poller = server::HttpServer::Poller::kEpoll;
      } else if (poller == "poll") {
        config.poller = server::HttpServer::Poller::kPoll;
      } else {
        std::fprintf(stderr, "--poller must be auto, epoll, or poll\n");
        return 2;
      }
    } else if (arg == "--write-stall-ms") {
      config.write_stall_timeout =
          std::chrono::milliseconds(std::atol(next("--write-stall-ms")));
    } else {
      return Usage(argv[0]);
    }
  }

  // Resolve the served view: mmap a binary snapshot when one is given
  // (zero-copy cold start), otherwise build from the synthetic world — same
  // substrate as the benches; a deployment would load its build pipeline's
  // output either way.
  std::shared_ptr<const taxonomy::ServingView> view;
  if (!snapshot_in.empty()) {
    std::printf("loading snapshot %s...\n", snapshot_in.c_str());
    std::fflush(stdout);
    auto snap = taxonomy::ServingView::Load(snapshot_in);
    if (!snap.ok()) {
      std::fprintf(stderr, "load snapshot failed: %s\n",
                   snap.status().ToString().c_str());
      return 1;
    }
    std::printf("mmap-loaded %zu nodes, %zu edges, %zu mentions "
                "(%zu bytes)\n",
                (*snap)->num_nodes(), (*snap)->num_edges(),
                (*snap)->num_mentions(), (*snap)->bytes().size());
    view = *std::move(snap);
  } else {
    std::printf("building taxonomy (%zu entities)...\n", entities);
    std::fflush(stdout);
    synth::WorldModel::Config wc;
    wc.num_entities = entities;
    const synth::WorldModel world = synth::WorldModel::Generate(wc);
    const auto output = synth::EncyclopediaGenerator::Generate(world, {});
    text::Segmenter segmenter(&world.lexicon());
    const auto corpus =
        synth::CorpusGenerator::Generate(world, output.dump, segmenter, {});
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
    core::CnProbaseBuilder::Report report;
    taxonomy::Taxonomy taxonomy = core::CnProbaseBuilder::Build(
        output.dump, world.lexicon(), corpus_words, builder_config, &report);
    view = taxonomy::ServingView::Encode(
        taxonomy,
        core::CnProbaseBuilder::BuildMentionIndex(output.dump, taxonomy));
  }
  if (!snapshot_out.empty()) {
    if (const util::Status status =
            taxonomy::WriteSnapshot(*view, snapshot_out);
        !status.ok()) {
      std::fprintf(stderr, "write snapshot failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::printf("wrote binary snapshot -> %s\n", snapshot_out.c_str());
  }
  taxonomy::ApiService api(view);
  if (max_in_flight > 0 || deadline_us > 0) {
    taxonomy::ApiService::ServingLimits limits;
    limits.max_in_flight = max_in_flight;
    limits.deadline = std::chrono::microseconds(deadline_us);
    api.SetServingLimits(limits);
  }

  server::ResultCache::Config cache_config;
  cache_config.max_bytes = cache_mb << 20;
  auto endpoints =
      cache_mb > 0
          ? std::make_unique<server::ApiEndpoints>(&api, cache_config)
          : std::make_unique<server::ApiEndpoints>(&api);
  server::HttpServer httpd(config, endpoints->AsHandler());
  if (const util::Status status = httpd.Start(); !status.ok()) {
    std::fprintf(stderr, "start failed: %s\n", status.ToString().c_str());
    return 1;
  }

  // Sample terms that resolve non-empty, for interactive curl / smoke use.
  // Walks the served view's own mention index, so it works identically for
  // built and snapshot-backed runs.
  view->VisitMentions([&](std::string_view mention,
                          const taxonomy::NodeId* ids, size_t num_ids) {
    if (num_ids == 0) return true;
    const std::string entity(view->Name(ids[0]));
    const auto concepts = api.TryGetConceptResolved(entity);
    if (!concepts.ok() || concepts->names.empty()) return true;
    std::printf("sample_mention=%s\nsample_entity=%s\nsample_concept=%s\n",
                std::string(mention).c_str(), entity.c_str(),
                concepts->names.front().c_str());
    return false;
  });
  std::printf("listening on http://%s:%u (threads=%d, poller=%s, "
              "cache=%zuMB, version=%llu)\n",
              config.host.c_str(), unsigned{httpd.port()},
              config.num_threads, httpd.poller_name(), cache_mb,
              static_cast<unsigned long long>(api.version()));
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

  const server::HttpServer::Stats stats = httpd.stats();
  std::printf("served %llu requests over %llu connections "
              "(%llu parse errors, %llu io errors, %llu idle reclaims, "
              "%llu write-stall reclaims)\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.connections_accepted),
              static_cast<unsigned long long>(stats.parse_errors),
              static_cast<unsigned long long>(stats.io_errors),
              static_cast<unsigned long long>(stats.idle_timeouts),
              static_cast<unsigned long long>(stats.write_stall_timeouts));
  if (const server::ResultCache* cache = endpoints->cache()) {
    const server::ResultCache::Stats cs = cache->stats();
    std::printf("cache: %.1f%% hit ratio (%llu hits, %llu misses, "
                "%llu evictions, %zu entries, %zu bytes)\n",
                100.0 * cs.hit_ratio(),
                static_cast<unsigned long long>(cs.hits),
                static_cast<unsigned long long>(cs.misses),
                static_cast<unsigned long long>(cs.evictions), cs.entries,
                cs.bytes);
  }
  if (!metrics_out.empty()) {
    api.ExportMetrics(&obs::MetricsRegistry::Global());
    if (const util::Status status = obs::WriteMetricsFiles(
            obs::MetricsRegistry::Global(), metrics_out);
        !status.ok()) {
      std::fprintf(stderr, "metrics export failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::printf("metrics written to %s.prom / %s.json\n",
                metrics_out.c_str(), metrics_out.c_str());
  }
  return 0;
}
