// The CN-Probase server: the three public APIs of Table II, plus the
// reasoning, ingest and collection endpoints, over HTTP/1.1. Every serving
// role is one CollectionManager behind one HttpServer; --shards makes the
// process the shard router in front of a cluster of such servers.
//
//   cnprobase_serve [--port P] [--host H] [--threads N] [--drain-ms MS]
//                   [--entities E] [--snapshot-in PATH] [--snapshot-out PATH]
//                   [--cache-mb MB] [--max-in-flight M] [--deadline-us D]
//                   [--metrics-out BASE] [--root DIR]
//                   [--collection NAME]... [--ingest NAME]...
//                   [--publish-min-pages N] [--publish-max-delay-ms T]
//                   [--compact-every N]
//                   [--shards N [--replicas R] [--hedge-ms MS]]
//
// Collections (DESIGN.md §14): --collection adds a read-only collection,
// --ingest an ingest-enabled one whose WAL lives at ROOT/NAME/wal (§13: a
// 200 from /v1/c/NAME/ingest is durable, and a restart on the same --root
// recovers every acked page). The first declared is the default that bare
// /v1/... paths serve; with none there is one read-only `default`, which
// answers exactly like a single-tenant server. Collections are built from
// the synthetic world at --entities scale, split into one overlapping
// per-site dump each when there are several. --snapshot-in mmap-loads a
// binary snapshot (§10) as the one collection instead; --snapshot-out
// writes the default collection's view once it is serving.
//
// Router (DESIGN.md §12): --shards N builds once, writes the snapshot (to
// --snapshot-out, else a temp file removed at exit), and re-execs itself
// N x --replicas times as plain servers (`--snapshot-in PATH
// --announce-fd FD`; FD receives "PORT\n" once listening). Each backend's
// pid/shard/replica/port is printed so a driver can kill one and watch the
// router fail over. However the router exits, it reaps every backend.
//
// The endpoint is printed as "listening on http://HOST:PORT" ("router
// listening on" for the router; --port 0 binds an ephemeral port), after
// one "sample<TAB>collection<TAB>mention<TAB>entity<TAB>concept<TAB>
// ancestor<TAB>sibling" line per collection of terms that resolve
// non-empty. SIGTERM/SIGINT drain in-flight requests within --drain-ms and
// every ingest daemon, then exit 0. --max-in-flight / --deadline-us arm
// each collection's overload policy (429 + Retry-After / 504, §9). Integer
// flags take plain decimal digits within their type's range, else exit 2.
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "collections/manager.h"
#include "core/builder.h"
#include "core/incremental.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "router/router.h"
#include "router/shard_map.h"
#include "server/server.h"
#include "synth/corpus_gen.h"
#include "synth/encyclopedia_gen.h"
#include "synth/site_split.h"
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

int WaitForSignal() {
  while (g_signal.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return g_signal.load();
}

struct Flags {
  server::HttpServer::Config http;
  size_t entities = 2000;
  size_t cache_mb = 0;
  collections::CollectionManager::Quotas quotas;
  ingest::IngestDaemon::Options daemon;
  std::string root;
  std::string metrics_out;
  std::string snapshot_in;
  std::string snapshot_out;
  // Declared collections in order: {name, ingest-enabled}.
  std::vector<std::pair<std::string, bool>> collections;
  size_t shards = 0;  // > 0 selects the router role
  size_t replicas = 2;
  int64_t hedge_ms = 0;  // 0 = router default
  int announce_fd = -1;
};

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--port P] [--host H] [--threads N] [--drain-ms MS]"
      " [--entities E] [--snapshot-in PATH] [--snapshot-out PATH]"
      " [--cache-mb MB] [--max-in-flight M] [--deadline-us D]"
      " [--metrics-out BASE] [--root DIR] [--collection NAME]..."
      " [--ingest NAME]... [--publish-min-pages N]"
      " [--publish-max-delay-ms T] [--compact-every N]"
      " [--shards N [--replicas R] [--hedge-ms MS]]\n",
      argv0);
  return 2;
}

// Plain decimal digits within T's range; anything else exits 2.
template <typename T>
T ParseNumber(const char* flag, const char* text) {
  uint64_t value = 0;
  if (!util::ParseUint64(text, &value) ||
      value > static_cast<uint64_t>(std::numeric_limits<T>::max())) {
    std::fprintf(stderr, "%s: invalid value '%s' (want 0..%llu)\n", flag, text,
                 static_cast<unsigned long long>(
                     std::numeric_limits<T>::max()));
    std::exit(2);
  }
  return static_cast<T>(value);
}

Flags ParseFlags(int argc, char** argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    const char* flag = arg.c_str();
    if (arg == "--port") {
      f.http.port = ParseNumber<uint16_t>(flag, next());
    } else if (arg == "--host") {
      f.http.host = next();
    } else if (arg == "--threads") {
      f.http.num_threads = std::max(1, ParseNumber<int>(flag, next()));
    } else if (arg == "--drain-ms") {
      f.http.drain_deadline =
          std::chrono::milliseconds(ParseNumber<int64_t>(flag, next()));
    } else if (arg == "--entities") {
      f.entities = ParseNumber<size_t>(flag, next());
    } else if (arg == "--snapshot-in") {
      f.snapshot_in = next();
    } else if (arg == "--snapshot-out") {
      f.snapshot_out = next();
    } else if (arg == "--cache-mb") {
      f.cache_mb = ParseNumber<size_t>(flag, next());
    } else if (arg == "--max-in-flight") {
      f.quotas.max_in_flight = ParseNumber<size_t>(flag, next());
    } else if (arg == "--deadline-us") {
      f.quotas.deadline =
          std::chrono::microseconds(ParseNumber<int64_t>(flag, next()));
    } else if (arg == "--metrics-out") {
      f.metrics_out = next();
    } else if (arg == "--root") {
      f.root = next();
    } else if (arg == "--collection" || arg == "--ingest") {
      f.collections.emplace_back(next(), arg == "--ingest");
    } else if (arg == "--publish-min-pages") {
      f.daemon.publish_min_pages = ParseNumber<size_t>(flag, next());
    } else if (arg == "--publish-max-delay-ms") {
      f.daemon.publish_max_delay =
          std::chrono::milliseconds(ParseNumber<int64_t>(flag, next()));
    } else if (arg == "--compact-every") {
      f.daemon.compact_every_records = ParseNumber<uint64_t>(flag, next());
    } else if (arg == "--shards") {
      f.shards = ParseNumber<size_t>(flag, next());
    } else if (arg == "--replicas") {
      f.replicas = std::max<size_t>(1, ParseNumber<size_t>(flag, next()));
    } else if (arg == "--hedge-ms") {
      f.hedge_ms = ParseNumber<int64_t>(flag, next());
    } else if (arg == "--announce-fd") {
      f.announce_fd = ParseNumber<int>(flag, next());
    } else {
      std::exit(Usage(argv[0]));
    }
  }
  const bool any_ingest =
      std::any_of(f.collections.begin(), f.collections.end(),
                  [](const auto& c) { return c.second; });
  const auto refuse = [&](bool bad, const char* why) {
    if (!bad) return;
    std::fprintf(stderr, "%s\n", why);
    std::exit(Usage(argv[0]));
  };
  refuse(any_ingest && f.root.empty(), "--ingest needs --root");
  refuse(f.shards > 0 && (!f.collections.empty() || !f.root.empty()),
         "--shards routes to plain servers: no --collection/--ingest/--root");
  refuse(!f.snapshot_in.empty() && (f.collections.size() > 1 || any_ingest),
         "--snapshot-in serves one read-only collection");
  if (f.collections.empty()) f.collections.emplace_back("default", false);
  return f;
}

// The synthetic world every built collection comes from (the benches'
// substrate; a deployment would load its build pipeline's output): one
// dump, or one overlapping per-site dump per collection when several are
// declared — the same page may exist on two sites with different content.
struct World {
  World(size_t entities, size_t num_sites)
      : model(synth::WorldModel::Generate({.num_entities = entities})) {
    auto master = synth::EncyclopediaGenerator::Generate(model, {});
    if (num_sites > 1) {
      synth::SiteSplitConfig split;
      split.num_sites = static_cast<int>(num_sites);
      dumps = synth::SplitIntoSites(master.dump, split);
    } else {
      dumps.push_back(std::move(master.dump));
    }
  }

  std::vector<std::vector<std::string>> CorpusWords(size_t site) const {
    text::Segmenter segmenter(&model.lexicon());
    const auto corpus =
        synth::CorpusGenerator::Generate(model, dumps[site], segmenter, {});
    std::vector<std::vector<std::string>> words;
    words.reserve(corpus.sentences.size());
    for (const auto& sentence : corpus.sentences) {
      std::vector<std::string> sentence_words;
      for (const auto& token : sentence) sentence_words.push_back(token.word);
      words.push_back(std::move(sentence_words));
    }
    return words;
  }

  static core::CnProbaseBuilder::Config BuilderConfig(bool verify) {
    core::CnProbaseBuilder::Config config;
    config.neural.epochs = 1;
    config.neural.max_train_samples = 1000;
    config.enable_verification = verify;
    return config;
  }

  // A read-only collection: the batch build, frozen into a serving view.
  std::shared_ptr<const taxonomy::ServingView> BuildView(size_t site) const {
    const taxonomy::Taxonomy taxonomy = core::CnProbaseBuilder::Build(
        dumps[site], model.lexicon(), CorpusWords(site),
        BuilderConfig(/*verify=*/true), nullptr);
    return taxonomy::ServingView::Encode(
        taxonomy,
        core::CnProbaseBuilder::BuildMentionIndex(dumps[site], taxonomy));
  }

  // An ingest collection's base. Streamed pages carry explicit relations
  // (infobox/tags); the statistical verifier needs corpus evidence live
  // traffic does not ship, so ingest applies without it.
  std::unique_ptr<core::IncrementalUpdater> NewUpdater(size_t site) const {
    return std::make_unique<core::IncrementalUpdater>(
        dumps[site], &model.lexicon(), CorpusWords(site),
        BuilderConfig(/*verify=*/false));
  }

  const synth::WorldModel model;
  std::vector<kb::EncyclopediaDump> dumps;
};

std::shared_ptr<const taxonomy::ServingView> LoadView(const std::string& path) {
  std::printf("loading snapshot %s...\n", path.c_str());
  std::fflush(stdout);
  auto view = taxonomy::ServingView::Load(path);
  if (!view.ok()) {
    std::fprintf(stderr, "load snapshot failed: %s\n",
                 view.status().ToString().c_str());
    return nullptr;
  }
  std::printf("mmap-loaded %zu nodes, %zu edges, %zu mentions (%zu bytes)\n",
              (*view)->num_nodes(), (*view)->num_edges(),
              (*view)->num_mentions(), (*view)->bytes().size());
  return *std::move(view);
}

bool WriteView(const taxonomy::ServingView& view, const std::string& path) {
  if (const util::Status status = taxonomy::WriteSnapshot(view, path);
      !status.ok()) {
    std::fprintf(stderr, "write snapshot failed: %s\n",
                 status.ToString().c_str());
    return false;
  }
  std::printf("snapshot -> %s\n", path.c_str());
  return true;
}

// Query terms that resolve non-empty, for curl and the smoke scripts: the
// first mention whose entity has a hypernym, that hypernym and one above
// it, and a sibling under it.
void PrintSample(const std::string& name, const taxonomy::ServingView& view) {
  std::string_view mention = "-";
  taxonomy::NodeId id = taxonomy::kInvalidNode;
  view.VisitMentions([&](std::string_view m, const taxonomy::NodeId* ids,
                         size_t num_ids) {
    if (num_ids == 0 || view.Kind(ids[0]) != taxonomy::NodeKind::kEntity ||
        view.NumHypernyms(ids[0]) == 0) {
      return true;
    }
    mention = m;
    id = ids[0];
    return false;
  });
  if (id == taxonomy::kInvalidNode) {
    std::printf("sample\t%s\t-\t-\t-\t-\t-\n", name.c_str());
    return;
  }
  // The first hypernym (up) or hyponym of `from` other than `skip`; `from`
  // itself when there is none.
  const auto neighbour = [&](taxonomy::NodeId from, bool up,
                             taxonomy::NodeId skip) {
    taxonomy::NodeId found = from;
    const auto take = [&](const taxonomy::HalfEdge& edge) {
      if (edge.node == skip) return true;
      found = edge.node;
      return false;
    };
    up ? view.VisitHypernyms(from, take) : view.VisitHyponyms(from, take);
    return found;
  };
  const auto str = [&](taxonomy::NodeId n) {
    return std::string(view.Name(n));
  };
  const taxonomy::NodeId parent = neighbour(id, true, taxonomy::kInvalidNode);
  std::printf("sample\t%s\t%s\t%s\t%s\t%s\t%s\n", name.c_str(),
              std::string(mention).c_str(), str(id).c_str(),
              str(parent).c_str(),
              str(neighbour(parent, true, taxonomy::kInvalidNode)).c_str(),
              str(neighbour(parent, false, id)).c_str());
}

bool WriteMetrics(const std::string& base) {
  if (const util::Status status =
          obs::WriteMetricsFiles(obs::MetricsRegistry::Global(), base);
      !status.ok()) {
    std::fprintf(stderr, "metrics export failed: %s\n",
                 status.ToString().c_str());
    return false;
  }
  std::printf("metrics written to %s.prom / %s.json\n", base.c_str(),
              base.c_str());
  return true;
}

int RunServer(const Flags& f) {
  collections::CollectionManager::Options options;
  options.root_dir = f.root;
  options.default_collection = f.collections.front().first;
  options.cache_bytes = f.cache_mb << 20;
  // Updaters are borrowed by the manager's daemons: declared first, so
  // they outlive it.
  std::unique_ptr<World> world;
  std::vector<std::unique_ptr<core::IncrementalUpdater>> updaters;
  collections::CollectionManager manager(options);
  if (f.snapshot_in.empty()) {
    std::printf("building taxonomy (%zu entities)...\n", f.entities);
    std::fflush(stdout);
    world = std::make_unique<World>(f.entities, f.collections.size());
  }
  for (size_t i = 0; i < f.collections.size(); ++i) {
    const auto& [name, is_ingest] = f.collections[i];
    util::Status status;
    if (is_ingest) {
      updaters.push_back(world->NewUpdater(i));
      status = manager.AddIngestCollection(name, updaters.back().get(),
                                           f.daemon, f.quotas);
    } else {
      // A failed load leaves a null view, which AddCollection refuses.
      status = manager.AddCollection(
          name, world ? world->BuildView(i) : LoadView(f.snapshot_in),
          f.quotas);
    }
    if (!status.ok()) {
      std::fprintf(stderr, "add collection %s failed: %s\n", name.c_str(),
                   status.ToString().c_str());
      return 1;
    }
    if (is_ingest) {
      const ingest::WalReplayReport& r =
          manager.daemon(name)->recovery_report();
      std::printf("recovered wal (%s): %llu replayed, %llu skipped, "
                  "%zu/%zu segments scanned%s\n",
                  name.c_str(),
                  static_cast<unsigned long long>(r.records_delivered),
                  static_cast<unsigned long long>(r.records_skipped),
                  r.segments_scanned, r.segments_total,
                  r.torn_tail ? " (torn tail discarded)" : "");
    }
  }
  if (!f.snapshot_out.empty() &&
      !WriteView(*manager.service(options.default_collection)->CurrentView(),
                 f.snapshot_out)) {
    return 1;
  }

  server::HttpServer httpd(f.http, manager.AsHandler());
  if (const util::Status status = httpd.Start(); !status.ok()) {
    std::fprintf(stderr, "start failed: %s\n", status.ToString().c_str());
    return 1;
  }
  if (f.announce_fd >= 0) {
    const std::string line = std::to_string(httpd.port()) + "\n";
    const bool announced =
        ::write(f.announce_fd, line.data(), line.size()) ==
        static_cast<ssize_t>(line.size());
    ::close(f.announce_fd);
    if (!announced) {
      std::fprintf(stderr, "announce failed\n");
      return 1;
    }
  }
  // "name vN" for every collection, in declaration order.
  const auto versions = [&] {
    std::string out;
    for (const auto& [name, is_ingest] : f.collections) {
      out += (out.empty() ? "" : ", ") + name + " v" +
             std::to_string(manager.service(name)->version());
    }
    return out;
  };
  for (const auto& [name, is_ingest] : f.collections) {
    PrintSample(name, *manager.service(name)->CurrentView());
  }
  std::printf("listening on http://%s:%u (threads=%d, cache=%zuMB, %s)\n",
              f.http.host.c_str(), unsigned{httpd.port()},
              f.http.num_threads, f.cache_mb, versions().c_str());
  std::fflush(stdout);

  std::printf("signal %d: draining...\n", WaitForSignal());
  std::fflush(stdout);
  // Stop taking requests first, then drain the daemons: every ack the HTTP
  // layer handed out is applied, published and checkpointed before exit.
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
  const util::Status drained = manager.StopAll();
  std::printf("drained: %s\n", versions().c_str());
  for (const auto& [name, is_ingest] : f.collections) {
    if (!is_ingest) continue;
    const ingest::IngestDaemon::Stats d = manager.daemon(name)->stats();
    std::printf("  %s: %llu acked, %llu applied, %llu publishes, "
                "%llu compactions\n",
                name.c_str(), static_cast<unsigned long long>(d.acked),
                static_cast<unsigned long long>(d.applied),
                static_cast<unsigned long long>(d.publishes),
                static_cast<unsigned long long>(d.compactions));
  }
  if (!drained.ok()) {
    std::fprintf(stderr, "drain failed: %s\n", drained.ToString().c_str());
    return 1;
  }
  if (!f.metrics_out.empty()) {
    for (const auto& [name, is_ingest] : f.collections) {
      manager.service(name)->ExportMetrics(&obs::MetricsRegistry::Global());
      if (is_ingest) {
        manager.daemon(name)->ExportMetrics(&obs::MetricsRegistry::Global());
      }
    }
    if (!WriteMetrics(f.metrics_out)) return 1;
  }
  return 0;
}

int RunRouter(const Flags& f) {
  std::shared_ptr<const taxonomy::ServingView> view;
  std::string snapshot = f.snapshot_in;
  bool temp_snapshot = false;
  if (!snapshot.empty()) {
    if ((view = LoadView(snapshot)) == nullptr) return 1;
  } else {
    std::printf("building taxonomy (%zu entities)...\n", f.entities);
    std::fflush(stdout);
    view = World(f.entities, 1).BuildView(0);
    snapshot = f.snapshot_out;
    if (snapshot.empty()) {
      temp_snapshot = true;
      snapshot = "/tmp/cnprobase_router_" +
                 std::to_string(static_cast<long>(::getpid())) + ".snap";
    }
    if (!WriteView(*view, snapshot)) return 1;
  }

  // Every exit from here on stops and reaps the spawned backends and
  // removes a temp snapshot: a failing router must not leave its cluster
  // running. A backend a driver killed died by signal — that is the test,
  // not a failure of ours.
  std::vector<pid_t> pids;
  const auto stop_cluster = [&](int code) {
    for (const pid_t pid : pids) ::kill(pid, SIGTERM);
    for (const pid_t pid : pids) {
      int wstatus = 0;
      if (::waitpid(pid, &wstatus, 0) != pid) {
        std::fprintf(stderr, "waitpid(%ld) failed\n", static_cast<long>(pid));
        code = 1;
      } else if (!WIFSIGNALED(wstatus) &&
                 !(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0)) {
        std::fprintf(stderr, "backend pid=%ld exited %d\n",
                     static_cast<long>(pid), WEXITSTATUS(wstatus));
        code = 1;
      }
    }
    if (temp_snapshot) ::unlink(snapshot.c_str());
    return code;
  };

  // Spawn the backends: re-exec ourselves as plain servers over the
  // snapshot, one pipe each to learn the ephemeral port. Their stdout goes
  // to /dev/null so the router's log is the cluster's log. The argv is
  // built before fork(): the child only makes async-signal-safe calls.
  std::vector<std::vector<router::ShardMap::Endpoint>> topology(f.shards);
  for (size_t s = 0; s < f.shards; ++s) {
    for (size_t r = 0; r < f.replicas; ++r) {
      int fds[2];
      if (::pipe(fds) != 0) {
        std::perror("pipe");
        return stop_cluster(1);
      }
      std::vector<std::string> args = {
          "cnprobase_serve", "--snapshot-in", snapshot,
          "--announce-fd", std::to_string(fds[1]),
          "--host", f.http.host,
          "--threads", std::to_string(f.http.num_threads),
          "--drain-ms", std::to_string(f.http.drain_deadline.count()),
          "--cache-mb", std::to_string(f.cache_mb),
          "--max-in-flight", std::to_string(f.quotas.max_in_flight),
          "--deadline-us", std::to_string(f.quotas.deadline.count())};
      std::vector<char*> argv;
      for (std::string& arg : args) argv.push_back(arg.data());
      argv.push_back(nullptr);
      const pid_t pid = ::fork();
      if (pid == 0) {
        ::close(fds[0]);
        const int null_fd = ::open("/dev/null", O_WRONLY);
        if (null_fd >= 0) ::dup2(null_fd, STDOUT_FILENO);
        ::execv("/proc/self/exe", argv.data());
        std::perror("execv");  // only reached on failure
        ::_exit(127);
      }
      ::close(fds[1]);
      if (pid < 0) {
        std::perror("fork");
        ::close(fds[0]);
        return stop_cluster(1);
      }
      pids.push_back(pid);
      std::string announced;
      char c;
      while (::read(fds[0], &c, 1) == 1 && c != '\n') announced.push_back(c);
      ::close(fds[0]);
      uint64_t port = 0;
      if (!util::ParseUint64(announced, &port) || port == 0 || port > 65535) {
        std::fprintf(stderr, "backend (shard %zu replica %zu) never came up\n",
                     s, r);
        return stop_cluster(1);
      }
      topology[s].push_back({f.http.host, static_cast<uint16_t>(port)});
      std::printf("backend pid=%ld shard=%zu replica=%zu port=%llu\n",
                  static_cast<long>(pid), s, r,
                  static_cast<unsigned long long>(port));
    }
  }
  std::fflush(stdout);

  router::ShardMap::Options map_options;
  map_options.quarantine_period = std::chrono::milliseconds(500);
  router::ShardMap shard_map(std::move(topology), map_options);
  router::Router::Options options;
  options.server = f.http;
  if (f.hedge_ms > 0) {
    options.hedge_initial = std::chrono::milliseconds(f.hedge_ms);
  }
  router::Router router(&shard_map, options);
  if (const util::Status status = router.Start(); !status.ok()) {
    std::fprintf(stderr, "router start failed: %s\n",
                 status.ToString().c_str());
    return stop_cluster(1);
  }
  PrintSample("default", *view);
  std::printf("router listening on http://%s:%u "
              "(shards=%zu, replicas=%zu, hedge=%lldms)\n",
              f.http.host.c_str(), unsigned{router.port()}, f.shards,
              f.replicas, static_cast<long long>(router.hedge_delay().count()));
  std::fflush(stdout);

  std::printf("signal %d: draining router...\n", WaitForSignal());
  std::fflush(stdout);
  router.Stop();
  router.Wait();
  const router::Router::Stats stats = router.stats();
  std::printf("router: %llu forwarded, %llu batches, %llu failovers, "
              "%llu hedges (%llu wins), %llu coherence retries, "
              "%llu mixed-generation refusals, %llu no-backend\n",
              static_cast<unsigned long long>(stats.forwarded),
              static_cast<unsigned long long>(stats.batches),
              static_cast<unsigned long long>(stats.failovers),
              static_cast<unsigned long long>(stats.hedges),
              static_cast<unsigned long long>(stats.hedge_wins),
              static_cast<unsigned long long>(stats.coherence_retries),
              static_cast<unsigned long long>(stats.mixed_generation_refusals),
              static_cast<unsigned long long>(stats.no_backend));
  if (!f.metrics_out.empty() && !WriteMetrics(f.metrics_out)) {
    return stop_cluster(1);
  }
  if (stop_cluster(0) != 0) return 1;
  std::printf("router drained; %zu backends reaped\n", pids.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::IgnoreSigpipe();  // client disconnects must be EPIPE, not SIGPIPE
  const Flags flags = ParseFlags(argc, argv);
  // Installed before anything is built or spawned, so a signal during
  // startup still ends in an orderly drain (and, for the router, a reap).
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);
  return flags.shards > 0 ? RunRouter(flags) : RunServer(flags);
}
