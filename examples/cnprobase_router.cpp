// Replicated serving demo for the shard-router tier (DESIGN.md §12): one
// process plays the whole cluster. The parent builds a taxonomy from the
// synthetic world, writes a binary snapshot, then fork/execs itself
// --shards x --replicas times as backend processes — each mmap-loads the
// snapshot zero-copy and serves the three public APIs on an ephemeral
// port. The parent wires the reported ports into a ShardMap, starts a
// Router in front, and serves until SIGTERM/SIGINT:
//
//   cnprobase_router [--shards N] [--replicas R] [--port P] [--host H]
//                    [--threads T] [--entities E] [--hedge-ms MS]
//                    [--snapshot PATH]
//
// Every backend serves the full snapshot (the router partitions the
// keyspace; replicating the data keeps the demo self-contained — see the
// honesty note in DESIGN.md §12). Each backend's pid/shard/replica/port is
// printed, so a driver (ci/router_smoke.sh) can kill one mid-traffic and
// watch the router fail over. SIGTERM drains the router, SIGTERMs the
// backends, and reaps them; exit 0 means every process drained cleanly.
//
// Internal flags for the re-exec'd backend role (not for interactive use):
//   --backend-snapshot PATH   serve this snapshot instead of routing
//   --announce-fd FD          write "PORT\n" here once listening
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/builder.h"
#include "router/router.h"
#include "router/shard_map.h"
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

namespace {

using namespace cnpb;

std::atomic<int> g_signal{0};

void HandleSignal(int signum) { g_signal.store(signum); }

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--shards N] [--replicas R] [--port P] [--host H]"
               " [--threads T] [--entities E] [--hedge-ms MS]"
               " [--snapshot PATH]\n",
               argv0);
  return 2;
}

// The backend role: mmap the snapshot, serve it on an ephemeral port,
// announce the port, drain on SIGTERM. One per fork/exec.
int RunBackend(const std::string& snapshot_path, int announce_fd,
               const std::string& host) {
  auto snap = taxonomy::ServingView::Load(snapshot_path);
  if (!snap.ok()) {
    std::fprintf(stderr, "backend: load %s failed: %s\n",
                 snapshot_path.c_str(), snap.status().ToString().c_str());
    return 1;
  }
  taxonomy::ApiService api(*std::move(snap));
  server::ApiEndpoints endpoints(&api);
  server::HttpServer::Config config;
  config.host = host;
  config.num_threads = 2;
  config.drain_deadline = std::chrono::milliseconds(2000);
  server::HttpServer httpd(config, endpoints.AsHandler());
  if (const util::Status status = httpd.Start(); !status.ok()) {
    std::fprintf(stderr, "backend: start failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  if (announce_fd >= 0) {
    char line[16];
    const int n =
        std::snprintf(line, sizeof(line), "%u\n", unsigned{httpd.port()});
    if (::write(announce_fd, line, static_cast<size_t>(n)) != n) {
      std::fprintf(stderr, "backend: announce failed\n");
      return 1;
    }
    ::close(announce_fd);
  }
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);
  while (g_signal.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  httpd.Stop();
  httpd.Wait();
  return 0;
}

struct BackendProc {
  pid_t pid = -1;
  uint16_t port = 0;
  size_t shard = 0;
  size_t replica = 0;
};

}  // namespace

int main(int argc, char** argv) {
  util::IgnoreSigpipe();

  size_t shards = 2;
  size_t replicas = 2;
  size_t entities = 800;
  long hedge_ms = 0;  // 0 = router default
  std::string snapshot_path;
  std::string backend_snapshot;
  int announce_fd = -1;
  server::HttpServer::Config frontend;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--shards") {
      shards = std::max(1l, std::atol(next("--shards")));
    } else if (arg == "--replicas") {
      replicas = std::max(1l, std::atol(next("--replicas")));
    } else if (arg == "--port") {
      frontend.port = static_cast<uint16_t>(std::atoi(next("--port")));
    } else if (arg == "--host") {
      frontend.host = next("--host");
    } else if (arg == "--threads") {
      frontend.num_threads = std::max(1, std::atoi(next("--threads")));
    } else if (arg == "--entities") {
      entities = static_cast<size_t>(std::atol(next("--entities")));
    } else if (arg == "--hedge-ms") {
      hedge_ms = std::atol(next("--hedge-ms"));
    } else if (arg == "--snapshot") {
      snapshot_path = next("--snapshot");
    } else if (arg == "--backend-snapshot") {
      backend_snapshot = next("--backend-snapshot");
    } else if (arg == "--announce-fd") {
      announce_fd = std::atoi(next("--announce-fd"));
    } else {
      return Usage(argv[0]);
    }
  }
  if (!backend_snapshot.empty()) {
    return RunBackend(backend_snapshot, announce_fd, frontend.host);
  }

  // Build once, snapshot, and let every backend mmap the same file — the
  // same cold-start path a real deployment's build pipeline feeds.
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
  const std::shared_ptr<const taxonomy::ServingView> view =
      taxonomy::ServingView::Encode(
          taxonomy,
          core::CnProbaseBuilder::BuildMentionIndex(output.dump, taxonomy));

  const bool temp_snapshot = snapshot_path.empty();
  if (temp_snapshot) {
    snapshot_path = "/tmp/cnprobase_router_" +
                    std::to_string(static_cast<long>(::getpid())) + ".snap";
  }
  if (const util::Status status = taxonomy::WriteSnapshot(*view, snapshot_path);
      !status.ok()) {
    std::fprintf(stderr, "write snapshot failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  std::printf("snapshot -> %s\n", snapshot_path.c_str());

  // Spawn the backends: fork/exec ourselves in the backend role, one pipe
  // each to learn the ephemeral port.
  std::vector<BackendProc> procs;
  std::vector<std::vector<router::ShardMap::Endpoint>> topology(shards);
  for (size_t s = 0; s < shards; ++s) {
    for (size_t r = 0; r < replicas; ++r) {
      int fds[2];
      if (::pipe(fds) != 0) {
        std::perror("pipe");
        return 1;
      }
      const pid_t pid = ::fork();
      if (pid < 0) {
        std::perror("fork");
        return 1;
      }
      if (pid == 0) {
        ::close(fds[0]);
        const std::string fd_arg = std::to_string(fds[1]);
        ::execl("/proc/self/exe", argv[0], "--backend-snapshot",
                snapshot_path.c_str(), "--announce-fd", fd_arg.c_str(),
                "--host", frontend.host.c_str(), static_cast<char*>(nullptr));
        std::perror("execl");  // only reached on failure
        ::_exit(127);
      }
      ::close(fds[1]);
      std::string announced;
      char c;
      while (::read(fds[0], &c, 1) == 1 && c != '\n') announced.push_back(c);
      ::close(fds[0]);
      const int port = announced.empty() ? 0 : std::atoi(announced.c_str());
      if (port <= 0 || port > 65535) {
        std::fprintf(stderr, "backend (shard %zu replica %zu) never came up\n",
                     s, r);
        return 1;
      }
      BackendProc proc;
      proc.pid = pid;
      proc.port = static_cast<uint16_t>(port);
      proc.shard = s;
      proc.replica = r;
      procs.push_back(proc);
      topology[s].push_back({frontend.host, proc.port});
      std::printf("backend pid=%ld shard=%zu replica=%zu port=%u\n",
                  static_cast<long>(pid), s, r, unsigned{proc.port});
    }
  }
  std::fflush(stdout);

  router::ShardMap::Options map_options;
  map_options.quarantine_period = std::chrono::milliseconds(500);
  router::ShardMap shard_map(std::move(topology), map_options);
  router::Router::Options options;
  options.server = frontend;
  if (hedge_ms > 0) {
    options.hedge_initial = std::chrono::milliseconds(hedge_ms);
  }
  router::Router router(&shard_map, options);
  if (const util::Status status = router.Start(); !status.ok()) {
    std::fprintf(stderr, "router start failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }

  // Sample terms that resolve non-empty, for curl / the smoke script.
  {
    taxonomy::ApiService sampler(view);
    view->VisitMentions([&](std::string_view mention,
                            const taxonomy::NodeId* ids, size_t num_ids) {
      if (num_ids == 0) return true;
      const std::string entity(view->Name(ids[0]));
      const auto concepts = sampler.TryGetConceptResolved(entity);
      if (!concepts.ok() || concepts->names.empty()) return true;
      std::printf("sample_mention=%s\nsample_entity=%s\nsample_concept=%s\n",
                  std::string(mention).c_str(), entity.c_str(),
                  concepts->names.front().c_str());
      return false;
    });
  }
  std::printf("router listening on http://%s:%u "
              "(shards=%zu, replicas=%zu, hedge=%lldms)\n",
              frontend.host.c_str(), unsigned{router.port()}, shards, replicas,
              static_cast<long long>(router.hedge_delay().count()));
  std::fflush(stdout);

  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);
  while (g_signal.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::printf("signal %d: draining router...\n", g_signal.load());
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

  // Stop the cluster: SIGTERM every live backend (some may already have
  // been killed by a chaos driver — ESRCH is fine), then reap them all.
  int failures = 0;
  for (const BackendProc& proc : procs) {
    ::kill(proc.pid, SIGTERM);
  }
  for (const BackendProc& proc : procs) {
    int wstatus = 0;
    if (::waitpid(proc.pid, &wstatus, 0) != proc.pid) {
      std::fprintf(stderr, "waitpid(%ld) failed\n",
                   static_cast<long>(proc.pid));
      ++failures;
      continue;
    }
    const bool clean_exit = WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0;
    // A backend the driver killed mid-test died by signal; that is the
    // test, not a failure of ours.
    const bool killed = WIFSIGNALED(wstatus);
    if (!clean_exit && !killed) {
      std::fprintf(stderr, "backend pid=%ld exited %d\n",
                   static_cast<long>(proc.pid), WEXITSTATUS(wstatus));
      ++failures;
    }
  }
  if (temp_snapshot) ::unlink(snapshot_path.c_str());
  if (failures > 0) return 1;
  std::printf("router drained; %zu backends reaped\n", procs.size());
  return 0;
}
