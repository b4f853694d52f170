// The serving benchmark: one fixed synthetic world served three ways.
//
//   perfbench --workload table2_hot|inproc_cold|ingest_churn --seed N
//             --seconds S --trace 0|1 --work-dir DIR [--spans FILE]
//
// Every workload shares one set-up: a 4000-entity synthetic world, split
// into a base (70% of pages) built by core::IncrementalUpdater with the
// cnprobase_serve builder settings, served by one taxonomy::ApiService that
// an ingest::IngestDaemon publishes into, fronted by server::ApiEndpoints
// (16 MB result cache) behind server::IngestEndpoints. The remaining 30% of
// pages are the ingest stream. The seed drives only request sampling; the
// world is the same in every run.
//
//   table2_hot    loopback HTTP, 2 epoll loops, 2 closed-loop keep-alive
//                 connections, Table II mix with Zipf(1.0) keys, every
//                 distinct target requested once before timing.
//   inproc_cold   2 closed-loop threads calling the library directly, no
//                 HTTP and no cache, uniform keys: 3/4 ApiService
//                 Try*Resolved in the Table II shares, 1/4 ReasonService.
//   ingest_churn  the table2_hot readers beside one open-loop writer that
//                 POSTs 32 held-out pages to /v1/ingest every 100 ms.
//
// table2_hot and inproc_cold end each window with a short idle ingest probe
// (10 batches on the same schedule, no readers), so every workload reports
// the ingest metrics: the probe gives the unloaded floor that ingest_churn
// is read against.
//
// A run is kRounds rounds, each on a freshly set-up stack, so set-up time
// is a median and work moved into set-up shows. Rate and latency are
// medians over kSlice slices of every round's window, and so is CPU per
// request, which keeps a short burst of outside load from moving a run.
//
// Correctness: wire statuses are 200 (or 404 for an unknown mention),
// version stamps never go backwards on a connection, every distinct wire
// body equals an uncached in-process answer at the version it was stamped
// with, in-process results equal a reference pass computed before timing,
// and every acknowledged page resolves after the final flush. Any mismatch
// is counted as failed and the run exits 1.
//
// --trace 1 splits each window into an untraced half and a traced half,
// records client and handler spans (joined by an X-Bench-Id header) into
// --spans, and then replays each layer's public calls single-threaded on
// the workload's own requests, with exact allocation counts.
//
// The last stdout line is "PERFBENCH_RESULT {json}"; run.py turns it into
// the benchmark's result line.
#include <pthread.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "alloc_count.h"
#include "core/builder.h"
#include "core/incremental.h"
#include "ingest/daemon.h"
#include "reason/engine.h"
#include "reason/service.h"
#include "server/client.h"
#include "server/http.h"
#include "server/ingest_endpoints.h"
#include "server/result_cache.h"
#include "server/server.h"
#include "server/service.h"
#include "synth/corpus_gen.h"
#include "synth/encyclopedia_gen.h"
#include "synth/world.h"
#include "taxonomy/api_service.h"
#include "taxonomy/view.h"
#include "text/segmenter.h"
#include "util/json.h"
#include "util/net.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace cnpb;
using Clock = std::chrono::steady_clock;

// --- Fixed workload parameters ---------------------------------------------

constexpr size_t kEntities = 4000;
constexpr size_t kRounds = 5;
constexpr auto kSlice = std::chrono::milliseconds(250);
constexpr double kBaseShare = 0.7;
// Table II: 83.5M calls, men2ent 52.6%, getConcept 16.5%, getEntity 30.9%.
constexpr double kPMen2Ent = 43'896'044.0 / 83'504'492.0;
constexpr double kPGetConcept = 13'815'076.0 / 83'504'492.0;
constexpr double kZipfS = 1.0;
constexpr size_t kCacheBytes = size_t{16} << 20;
constexpr int kServerLoops = 2;
constexpr int kReaders = 2;
constexpr int kInprocThreads = 2;
constexpr double kReasonShare = 0.25;
constexpr size_t kIsaDepth = 4;
constexpr size_t kLcaDepth = 2 * kIsaDepth;
constexpr size_t kTopK = 10;
constexpr size_t kReasonPool = 4096;
constexpr size_t kIngestBatch = 32;
constexpr auto kIngestPeriod = std::chrono::milliseconds(100);
constexpr size_t kProbeBatches = 10;
constexpr size_t kApplyReplayBatches = 3;
constexpr size_t kReplayOps = 20000;
constexpr size_t kPublishReplays = 9;
constexpr auto kPollInterval = std::chrono::microseconds(500);
// Far above any lag seen (tens of ms), low enough that a stuck publish
// fails the run well inside its time limit.
constexpr auto kVisibilityTimeout = std::chrono::seconds(5);
constexpr char kHost[] = "127.0.0.1";

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double ClockSeconds(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0.0;
  return ts.tv_sec + 1e-9 * ts.tv_nsec;
}

// CPU time of a running thread, read from outside it.
double ThreadCpuSeconds(std::thread& thread) {
  clockid_t clock;
  if (pthread_getcpuclockid(thread.native_handle(), &clock) != 0) return 0.0;
  return ClockSeconds(clock);
}

// Percentile by nearest rank over a copy (p in [0, 100]).
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const size_t rank = std::min(
      values.size() - 1,
      static_cast<size_t>(std::ceil(p / 100.0 * values.size())) -
          (p > 0 ? 1 : 0));
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

double Median(std::vector<double> values) { return Percentile(values, 50); }

// --- Failure accounting -----------------------------------------------------

class Failures {
 public:
  void Add(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    if (count_ < 10) std::printf("FAIL: %s\n", what.c_str());
    ++count_;
  }
  uint64_t count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_;
  }

 private:
  mutable std::mutex mu_;
  uint64_t count_ = 0;
};

// --- Tracing ---------------------------------------------------------------

enum Layer : uint8_t {
  kClientSpan,
  kHandleSpan,
  kIngestClientSpan,
  kIngestHandleSpan,
  kMen2EntSpan,
  kGetConceptSpan,
  kGetEntitySpan,
  kIsaSpan,
  kLcaSpan,
  kSimilarSpan,
  kExpandSpan,
};
constexpr const char* kLayerNames[] = {
    "client",           "server.handle",  "ingest.client",
    "ingest.handle",    "taxonomy.men2ent", "taxonomy.get_concept",
    "taxonomy.get_entity", "reason.isa",  "reason.lca",
    "reason.similar",   "reason.expand",
};

struct Span {
  uint64_t id;
  int64_t start_ns;
  int64_t end_ns;
  Layer layer;
};

// Spans stay in per-thread memory while the run is timed and are written
// out once at the end. Spans of one request share its id; a handler span
// carries the id its client sent in the X-Bench-Id header.
class Tracer {
 public:
  bool on() const { return on_.load(std::memory_order_relaxed); }
  void set_on(bool on) { on_.store(on, std::memory_order_relaxed); }

  // Connection placement: while probing, a request carrying
  // "X-Bench-Conn: i" records which event-loop thread served connection i.
  bool probing() const { return probing_.load(std::memory_order_relaxed); }
  void set_probing(bool on) { probing_.store(on); }
  void RecordLoop(size_t conn) {
    if (conn < std::size(loops_)) {
      loops_[conn].store(std::hash<std::thread::id>{}(
          std::this_thread::get_id()));
    }
  }
  size_t Loop(size_t conn) const { return loops_[conn].load(); }

  void Record(uint64_t id, Layer layer, int64_t start_ns, int64_t end_ns) {
    thread_local std::vector<Span>* buffer = nullptr;
    if (buffer == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(std::make_unique<std::vector<Span>>());
      buffer = buffers_.back().get();
      buffer->reserve(size_t{1} << 18);
    }
    buffer->push_back({id, start_ns, end_ns, layer});
  }

  bool Write(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out, "id\tlayer\tstart_ns\tend_ns\n");
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& buffer : buffers_) {
      for (const Span& span : *buffer) {
        std::fprintf(out, "%" PRIu64 "\t%s\t%" PRId64 "\t%" PRId64 "\n",
                     span.id, kLayerNames[span.layer], span.start_ns,
                     span.end_ns);
      }
    }
    return std::fclose(out) == 0;
  }

 private:
  std::atomic<bool> on_{false};
  std::atomic<bool> probing_{false};
  std::atomic<size_t> loops_[8] = {};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

// --- World and set-up -------------------------------------------------------

// Heap-pinned: the updater keeps a pointer to the lexicon.
struct World {
  explicit World(const synth::WorldModel::Config& config)
      : model(synth::WorldModel::Generate(config)),
        output(synth::EncyclopediaGenerator::Generate(model, {})) {}

  synth::WorldModel model;
  synth::EncyclopediaGenerator::Output output;
  std::vector<std::vector<std::string>> corpus_words;
  kb::EncyclopediaDump base;
  // Held-out pages the writer ingests, in dump order. Only pages that can
  // yield a hypernym (bracket, abstract or tags) and that the ingest line
  // format carries unchanged, so each one must become visible once applied.
  std::vector<kb::EncyclopediaPage> stream;
};

bool Encodable(const kb::EncyclopediaPage& page) {
  const auto clean = [](std::string_view s, std::string_view banned) {
    return s.find_first_of(banned) == std::string_view::npos;
  };
  if (page.name.empty() || !clean(page.name, "\t\r\n") ||
      !clean(page.mention, "\t\r\n") || !clean(page.bracket, "\t\r\n") ||
      !clean(page.abstract, "\t\r\n")) {
    return false;
  }
  for (const auto& triple : page.infobox) {
    if (triple.predicate.empty() || !clean(triple.predicate, "\t\r\n;=") ||
        !clean(triple.object, "\t\r\n;")) {
      return false;
    }
  }
  for (const auto& tag : page.tags) {
    if (tag.empty() || !clean(tag, "\t\r\n;")) return false;
  }
  for (const auto& alias : page.aliases) {
    if (alias.empty() || !clean(alias, "\t\r\n;")) return false;
  }
  return true;
}

// One upsert line of the POST /v1/ingest body (see ingest_endpoints.h).
void AppendIngestLine(const kb::EncyclopediaPage& page, std::string* body) {
  const auto join = [body](const std::vector<std::string>& parts) {
    for (size_t i = 0; i < parts.size(); ++i) {
      if (i > 0) *body += ';';
      *body += parts[i];
    }
  };
  *body += "u\t" + page.name + "\t" + page.mention + "\t" + page.bracket +
           "\t" + page.abstract + "\t";
  for (size_t i = 0; i < page.infobox.size(); ++i) {
    if (i > 0) *body += ';';
    *body += page.infobox[i].predicate + "=" + page.infobox[i].object;
  }
  *body += '\t';
  join(page.tags);
  *body += '\t';
  join(page.aliases);
  *body += '\n';
}

struct SetupTimes {
  double synth_s = 0, build_s = 0, index_s = 0, start_s = 0;
  double total() const { return synth_s + build_s + index_s + start_s; }
};

// Members are destroyed in reverse order: server, front end, daemon,
// service, updater, world.
struct System {
  std::unique_ptr<World> world;
  std::unique_ptr<core::IncrementalUpdater> updater;
  std::unique_ptr<taxonomy::ApiService> api;
  std::unique_ptr<ingest::IngestDaemon> daemon;
  std::unique_ptr<server::ApiEndpoints> endpoints;
  std::unique_ptr<server::IngestEndpoints> ingest;
  std::unique_ptr<server::HttpServer> httpd;
  SetupTimes times;
};

// The handler the server runs: the composed ingest + query endpoints,
// timed in place when tracing is on.
server::HttpServer::Handler WrapHandler(server::IngestEndpoints* inner,
                                        Tracer* tracer) {
  return [inner, tracer](const server::HttpRequest& request) {
    if (tracer->probing() && !request.Header("X-Bench-Conn").empty()) {
      tracer->RecordLoop(std::strtoul(
          std::string(request.Header("X-Bench-Conn")).c_str(), nullptr, 10));
    }
    if (!tracer->on()) return inner->Handle(request);
    const int64_t start = NowNs();
    server::HttpResponse response = inner->Handle(request);
    const int64_t end = NowNs();
    const std::string id(request.Header("X-Bench-Id"));
    tracer->Record(std::strtoull(id.c_str(), nullptr, 10),
                   request.path == "/v1/ingest" ? kIngestHandleSpan
                                                : kHandleSpan,
                   start, end);
    return response;
  };
}

std::unique_ptr<System> SetUp(bool wire, const std::string& wal_dir,
                              Tracer* tracer) {
  auto sys = std::make_unique<System>();
  auto t0 = Clock::now();

  synth::WorldModel::Config wc;
  wc.num_entities = kEntities;
  sys->world = std::make_unique<World>(wc);
  World& w = *sys->world;
  text::Segmenter segmenter(&w.model.lexicon());
  const auto corpus = synth::CorpusGenerator::Generate(w.model, w.output.dump,
                                                       segmenter, {});
  w.corpus_words.reserve(corpus.sentences.size());
  for (const auto& sentence : corpus.sentences) {
    std::vector<std::string> words;
    words.reserve(sentence.size());
    for (const auto& token : sentence) words.push_back(token.word);
    w.corpus_words.push_back(std::move(words));
  }
  const size_t n = w.output.dump.size();
  const size_t base_pages = static_cast<size_t>(n * kBaseShare);
  for (size_t i = 0; i < n; ++i) {
    kb::EncyclopediaPage page = w.output.dump.page(i);
    page.page_id = 0;
    if (i < base_pages) {
      w.base.AddPage(std::move(page));
    } else if ((!page.bracket.empty() || !page.abstract.empty() ||
                !page.tags.empty()) &&
               Encodable(page)) {
      w.stream.push_back(std::move(page));
    }
  }
  auto t1 = Clock::now();
  sys->times.synth_s = Seconds(t1 - t0);

  // cnprobase_serve's builder settings; verification off as in
  // cnprobase_ingestd, because streamed pages ship no corpus evidence.
  core::CnProbaseBuilder::Config config;
  config.neural.epochs = 1;
  config.neural.max_train_samples = 1000;
  config.enable_verification = false;
  sys->updater = std::make_unique<core::IncrementalUpdater>(
      w.base, &w.model.lexicon(), w.corpus_words, config);
  auto t2 = Clock::now();
  sys->times.build_s = Seconds(t2 - t1);

  // Daemon start publishes the recovered (here: base) state, which builds
  // the mention index and installs the first served version.
  sys->api = std::make_unique<taxonomy::ApiService>(sys->updater->snapshot());
  ingest::IngestDaemon::Options options;
  options.wal_dir = wal_dir;
  sys->daemon = std::make_unique<ingest::IngestDaemon>(
      sys->updater.get(), sys->api.get(), options);
  if (const util::Status status = sys->daemon->Start(); !status.ok()) {
    std::fprintf(stderr, "ingest daemon start failed: %s\n",
                 status.ToString().c_str());
    return nullptr;
  }
  auto t3 = Clock::now();
  sys->times.index_s = Seconds(t3 - t2);

  server::ResultCache::Config cache_config;
  cache_config.max_bytes = kCacheBytes;
  sys->endpoints =
      std::make_unique<server::ApiEndpoints>(sys->api.get(), cache_config);
  sys->ingest = std::make_unique<server::IngestEndpoints>(
      sys->daemon.get(), sys->endpoints->AsHandler());
  if (wire) {
    server::HttpServer::Config server_config;
    server_config.host = kHost;
    server_config.num_threads = kServerLoops;
    server_config.poller = server::HttpServer::Poller::kEpoll;
    sys->httpd = std::make_unique<server::HttpServer>(
        server_config, WrapHandler(sys->ingest.get(), tracer));
    if (const util::Status status = sys->httpd->Start(); !status.ok()) {
      std::fprintf(stderr, "server start failed: %s\n",
                   status.ToString().c_str());
      return nullptr;
    }
  }
  sys->times.start_s = Seconds(Clock::now() - t3);
  return sys;
}

// --- Query universe and targets --------------------------------------------

enum Api : uint8_t { kMen2Ent, kGetConcept, kGetEntity };

// Every name the served version can answer, in a fixed order (mentions
// lexicographic, nodes by id); Zipf rank 1 is the first entry.
struct Universe {
  std::vector<std::string> mentions;
  std::vector<std::string> entities;
  std::vector<std::string> concepts;
};

Universe MakeUniverse(const taxonomy::ServingView& view) {
  Universe u;
  view.VisitMentions(
      [&](std::string_view mention, const taxonomy::NodeId*, size_t num_ids) {
        if (num_ids > 0) u.mentions.emplace_back(mention);
        return true;
      });
  for (taxonomy::NodeId id = 0; id < view.num_nodes(); ++id) {
    (view.Kind(id) == taxonomy::NodeKind::kConcept ? u.concepts : u.entities)
        .emplace_back(view.Name(id));
  }
  return u;
}

// One distinct wire request. Target indices run over mentions, then
// entities, then concepts.
struct Target {
  Api api;
  const std::string* arg;
  std::string request;  // the exact untraced GET bytes
};

std::string TargetPath(Api api, const std::string& arg) {
  static constexpr const char* kPrefix[] = {"/v1/men2ent?mention=",
                                            "/v1/getConcept?entity=",
                                            "/v1/getEntity?concept="};
  return kPrefix[api] + server::PercentEncode(arg);
}

std::string GetBytes(const std::string& path) {
  return "GET " + path + " HTTP/1.1\r\nHost: " + kHost + "\r\n\r\n";
}

// `request` with an X-Bench-Id header added, built into a reused buffer so
// tracing adds no allocation to the client.
void TracedBytes(const std::string& request, uint64_t id, std::string* out) {
  out->assign(request, 0, request.size() - 2);  // drop the blank line
  *out += "X-Bench-Id: ";
  *out += std::to_string(id);
  *out += "\r\n\r\n";
}

std::vector<Target> MakeTargets(const Universe& u) {
  std::vector<Target> targets;
  targets.reserve(u.mentions.size() + u.entities.size() + u.concepts.size());
  const auto add = [&](Api api, const std::vector<std::string>& names) {
    for (const std::string& name : names) {
      targets.push_back({api, &name, GetBytes(TargetPath(api, name))});
    }
  };
  add(kMen2Ent, u.mentions);
  add(kGetConcept, u.entities);
  add(kGetEntity, u.concepts);
  return targets;
}

// Draws Table II calls: the endpoint by the paper's shares, the key either
// Zipf(kZipfS) by universe rank or uniform.
class MixSampler {
 public:
  MixSampler(const Universe& u, bool zipf)
      : sizes_{u.mentions.size(), u.entities.size(), u.concepts.size()},
        offsets_{0, u.mentions.size(), u.mentions.size() + u.entities.size()} {
    if (zipf) {
      for (int api = 0; api < 3; ++api) {
        zipf_.emplace_back(sizes_[api], kZipfS);
      }
    }
  }

  Api NextApi(util::Rng& rng) const {
    const double x = rng.UniformDouble();
    return x < kPMen2Ent                  ? kMen2Ent
           : x < kPMen2Ent + kPGetConcept ? kGetConcept
                                          : kGetEntity;
  }
  size_t NextKey(Api api, util::Rng& rng) const {
    return zipf_.empty() ? rng.Uniform(sizes_[api]) : zipf_[api].Sample(rng);
  }
  size_t Next(util::Rng& rng) const {
    const Api api = NextApi(rng);
    return offsets_[api] + NextKey(api, rng);
  }

 private:
  size_t sizes_[3];
  size_t offsets_[3];
  std::vector<util::ZipfSampler> zipf_;
};

// --- Version pins -----------------------------------------------------------

// Keeps the view of every version seen, so wire bodies can be checked
// against an uncached in-process answer at the version they carry. The
// view and its version are read together inside ApiService::TryQuery.
class VersionPins {
 public:
  void Pin(const taxonomy::ApiService& api) {
    if (api.version() == last_.load(std::memory_order_relaxed)) return;
    std::shared_ptr<const taxonomy::ServingView> current = api.CurrentView();
    (void)api.TryQuery("perfbench.pin",
                       [&](const taxonomy::ServingView& view,
                           uint64_t version) {
                         if (&view == current.get()) {
                           std::lock_guard<std::mutex> lock(mu_);
                           views_.emplace(version, current);
                           last_.store(version, std::memory_order_relaxed);
                         }
                         return util::Status::Ok();
                       });
  }
  std::shared_ptr<const taxonomy::ServingView> Get(uint64_t version) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = views_.find(version);
    return it == views_.end() ? nullptr : it->second;
  }

 private:
  std::atomic<uint64_t> last_{0};
  mutable std::mutex mu_;
  std::map<uint64_t, std::shared_ptr<const taxonomy::ServingView>> views_;
};

// --- Wire readers -----------------------------------------------------------

struct SeenBody {
  uint64_t hash;
  int status;
};

struct WindowControl {
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  int64_t start_ns = 0;  // written before `go` is set
};

// One load thread's requests in the window: latencies split untraced /
// traced, and each untraced request's completion time relative to the
// window start, so the window can be cut into slices.
struct Samples {
  std::vector<double> latency_us[2];  // [traced]
  std::vector<int64_t> done_ns;       // parallel to latency_us[0]

  void Reserve(size_t n) {
    for (auto& l : latency_us) l.reserve(n);
    done_ns.reserve(n);
  }
  void Add(bool traced, int64_t start, int64_t end,
           const WindowControl& control) {
    latency_us[traced ? 1 : 0].push_back((end - start) / 1e3);
    if (!traced) done_ns.push_back(end - control.start_ns);
  }
};

struct ReaderResult {
  Samples samples;
  uint64_t requests = 0;
  uint64_t warm_requests = 0;
  // (target << 24 | version) -> body hash and status, for the body oracle.
  std::unordered_map<uint64_t, SeenBody> bodies;
};

uint64_t BodyKey(size_t target, uint64_t version) {
  return (static_cast<uint64_t>(target) << 24) | version;
}

// Sends one request and applies the per-response checks; returns false
// when the connection is unusable.
bool Exchange(server::HttpClient* client, const std::vector<Target>& targets,
              size_t target, const std::string& bytes, uint64_t* last_version,
              ReaderResult* result, Failures* failures) {
  if (!client->SendRaw(bytes).ok()) {
    failures->Add("send failed");
    return false;
  }
  auto response = client->ReadResponse();
  if (!response.ok()) {
    failures->Add("read failed: " + response.status().ToString());
    return false;
  }
  const int status = response->status;
  if (status != 200 && !(status == 404 && targets[target].api == kMen2Ent)) {
    failures->Add("status " + std::to_string(status) + " for " +
                  TargetPath(targets[target].api, *targets[target].arg));
  }
  const uint64_t version = std::strtoull(
      std::string(response->Header(server::ApiEndpoints::kVersionHeader))
          .c_str(),
      nullptr, 10);
  if (version < *last_version) {
    failures->Add("version went backwards on a connection: " +
                  std::to_string(*last_version) + " -> " +
                  std::to_string(version));
  }
  *last_version = version;
  const uint64_t hash = std::hash<std::string_view>{}(response->body);
  const auto [it, inserted] =
      result->bodies.emplace(BodyKey(target, version), SeenBody{hash, status});
  if (!inserted && (it->second.hash != hash || it->second.status != status)) {
    failures->Add("two different bodies for one target at one version");
  }
  return true;
}

// Opens a keep-alive connection served by a chosen event loop: the kernel
// picks the accepting loop, so the connection is reopened (up to a bound)
// until `wanted(loop)` holds. Returns the loop's id, 0 on failure.
size_t ConnectOnLoop(server::HttpClient* client, uint16_t port, size_t slot,
                     const std::function<bool(size_t)>& wanted,
                     Tracer* tracer, Failures* failures) {
  tracer->set_probing(true);
  size_t loop = 0;
  bool placed = false;
  int attempts = 0;
  while (!placed && attempts++ < 200) {
    client->Close();
    if (!client->Connect(kHost, port).ok()) break;
    const std::string probe = std::string("GET /healthz HTTP/1.1\r\nHost: ") +
                              kHost + "\r\nX-Bench-Conn: " +
                              std::to_string(slot) + "\r\n\r\n";
    if (!client->SendRaw(probe).ok()) break;
    auto response = client->ReadResponse();
    if (!response.ok() || response->status != 200) break;
    loop = tracer->Loop(slot);
    placed = wanted(loop);
    if (!placed) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  tracer->set_probing(false);
  if (!client->connected()) failures->Add("connect failed");
  std::printf("info: connection %zu on loop %04zx after %d attempts%s\n",
              slot, loop & 0xffff, attempts,
              placed ? "" : " (wanted placement not reached)");
  return loop;
}

// Fixed connection placement, so a run never flips between layouts: the
// readers share one loop (where the kernel's accept wake-up order puts them
// almost always anyway) and the writer gets the other, so its fsync-bound
// POSTs do not stall the readers' loop.
std::vector<server::HttpClient> ConnectReaders(uint16_t port, Tracer* tracer,
                                               size_t* reader_loop,
                                               Failures* failures) {
  std::vector<server::HttpClient> clients(kReaders);
  *reader_loop = 0;
  for (int i = 0; i < kReaders; ++i) {
    const size_t loop = ConnectOnLoop(
        &clients[i], port, i,
        [&](size_t l) { return i == 0 || l == *reader_loop; }, tracer,
        failures);
    if (i == 0) *reader_loop = loop;
  }
  return clients;
}

void RunReader(int index, server::HttpClient* connection,
               const std::vector<Target>& targets, const MixSampler& sampler,
               uint64_t seed, uint64_t round, Tracer* tracer,
               WindowControl* control, ReaderResult* result,
               Failures* failures) {
  server::HttpClient& client = *connection;
  if (!client.connected()) return;
  uint64_t last_version = 0;
  // Warm: every distinct target once, split across the readers.
  for (size_t t = index; t < targets.size(); t += kReaders) {
    if (!Exchange(&client, targets, t, targets[t].request, &last_version,
                  result, failures)) {
      return;
    }
    ++result->warm_requests;
  }
  result->samples.Reserve(size_t{1} << 20);
  util::Rng rng(seed * 7919 + round * 31 + static_cast<uint64_t>(index) + 1);
  while (!control->go.load()) std::this_thread::sleep_for(kPollInterval);
  uint64_t seq = 0;
  std::string traced_bytes;
  while (!control->stop.load(std::memory_order_relaxed)) {
    const size_t target = sampler.Next(rng);
    const bool traced = tracer->on();
    const uint64_t id = (static_cast<uint64_t>(index + 1) << 40) | ++seq;
    if (traced) TracedBytes(targets[target].request, id, &traced_bytes);
    const int64_t start = NowNs();
    if (!Exchange(&client, targets, target,
                  traced ? traced_bytes : targets[target].request,
                  &last_version, result, failures)) {
      break;
    }
    const int64_t end = NowNs();
    if (traced) tracer->Record(id, kClientSpan, start, end);
    result->samples.Add(traced, start, end, *control);
    ++result->requests;
  }
}

// Checks every recorded (target, version) body against an uncached
// ApiEndpoints serving the pinned view of that version. Returns the number
// of bodies checked; bodies at versions that were never pinned (live for
// less than one writer poll) are counted in *unverified.
uint64_t CheckBodies(const std::vector<ReaderResult>& readers,
                     const std::vector<Target>& targets,
                     const VersionPins& pins, uint64_t* unverified,
                     Failures* failures) {
  std::map<uint64_t, std::vector<std::pair<size_t, SeenBody>>> by_version;
  for (const ReaderResult& reader : readers) {
    for (const auto& [key, seen] : reader.bodies) {
      by_version[key & 0xffffff].push_back({key >> 24, seen});
    }
  }
  uint64_t checked = 0;
  for (const auto& [version, seen] : by_version) {
    const auto view = pins.Get(version);
    if (view == nullptr) {
      *unverified += seen.size();
      continue;
    }
    taxonomy::ApiService reference(view);
    server::ApiEndpoints endpoints(&reference);
    const std::string from =
        "\"version\":" + std::to_string(reference.version()) + ",";
    const std::string to = "\"version\":" + std::to_string(version) + ",";
    for (const auto& [target, body] : seen) {
      server::RequestParser parser;
      if (parser.Feed(targets[target].request) !=
          server::RequestParser::State::kComplete) {
        failures->Add("benchmark request does not parse");
        continue;
      }
      server::HttpResponse expected = endpoints.Handle(parser.request());
      if (const size_t at = expected.body.find(from);
          at != std::string::npos) {
        expected.body.replace(at, from.size(), to);
      }
      if (expected.status != body.status ||
          std::hash<std::string_view>{}(expected.body) != body.hash) {
        failures->Add("wire body differs from the in-process answer at "
                      "version " +
                      std::to_string(version) + " for " +
                      TargetPath(targets[target].api, *targets[target].arg));
      }
      ++checked;
    }
  }
  return checked;
}

// --- Writer -----------------------------------------------------------------

// The ingest path as the writer sees it: submit one batch (true = acked),
// and ask whether a page name is visible through the public read API
// (1 yes, 0 not yet, -1 error).
struct IngestPort {
  std::function<bool(const std::vector<kb::EncyclopediaPage>&)> submit;
  std::function<int(const std::string&)> visible;
};

struct WriterResult {
  std::vector<double> ack_ms;
  std::vector<double> lag_ms;
  std::vector<double> late_ms;
  std::vector<std::string> acked;
  uint64_t batches = 0;
  uint64_t publishes = 0;
  uint64_t applied = 0;
  double seconds = 0;
  bool exhausted = false;
};

// Open loop: batch k is due at start + k * kIngestPeriod and its ack time is
// measured from when it was due. Between sends the writer polls the last
// page of the oldest unconfirmed batch every kPollInterval for the
// ack -> visible lag, and pins each new version for the body oracle.
void RunWriter(const std::vector<kb::EncyclopediaPage>& stream, size_t end,
               size_t max_batches, const IngestPort& port,
               ingest::IngestDaemon* daemon, taxonomy::ApiService* api,
               VersionPins* pins, const std::atomic<bool>* stop,
               WriterResult* result, Failures* failures) {
  struct Pending {
    std::string name;
    Clock::time_point acked_at;
  };
  std::deque<Pending> pending;
  const auto stats0 = daemon->stats();
  const auto start = Clock::now();
  auto due = start;
  size_t pos = 0;
  for (;;) {
    pins->Pin(*api);
    const auto now = Clock::now();
    const bool stopping =
        result->batches >= max_batches || (stop != nullptr && stop->load());
    if (!stopping && pos + kIngestBatch > end) result->exhausted = true;
    if (!stopping && !result->exhausted && now >= due) {
      const std::vector<kb::EncyclopediaPage> batch(
          stream.begin() + pos, stream.begin() + pos + kIngestBatch);
      result->late_ms.push_back(Seconds(now - due) * 1e3);
      if (port.submit(batch)) {
        const auto acked_at = Clock::now();
        result->ack_ms.push_back(Seconds(acked_at - due) * 1e3);
        for (const auto& page : batch) result->acked.push_back(page.name);
        pending.push_back({batch.back().name, acked_at});
      } else {
        failures->Add("ingest batch not acknowledged");
      }
      pos += kIngestBatch;
      ++result->batches;
      due += kIngestPeriod;
      continue;
    }
    if (!pending.empty()) {
      const int visible = port.visible(pending.front().name);
      if (visible < 0) {
        failures->Add("visibility poll failed");
        pending.pop_front();
      } else if (visible > 0) {
        result->lag_ms.push_back(
            Seconds(Clock::now() - pending.front().acked_at) * 1e3);
        pending.pop_front();
      } else if (Clock::now() - pending.front().acked_at >
                 kVisibilityTimeout) {
        failures->Add("acked page never became visible: " +
                      pending.front().name);
        pending.pop_front();
      } else {
        std::this_thread::sleep_for(kPollInterval);
      }
      continue;
    }
    if (stopping || result->exhausted) break;
    std::this_thread::sleep_until(std::min(due, now + kPollInterval * 2));
  }
  result->seconds = Seconds(Clock::now() - start);
  const auto stats1 = daemon->stats();
  result->publishes = stats1.publishes - stats0.publishes;
  result->applied = stats1.applied - stats0.applied;
}

bool ConceptsNonEmpty(const std::string& body) {
  return body.find("\"concepts\":[]") == std::string::npos &&
         body.find("\"concepts\":[") != std::string::npos;
}

// Wire port: one keep-alive connection for POSTs and visibility GETs.
IngestPort WirePort(server::HttpClient* client, Tracer* tracer,
                    uint64_t* last_version, Failures* failures) {
  IngestPort port;
  port.submit = [client, tracer](const std::vector<kb::EncyclopediaPage>&
                                     batch) {
    std::string body;
    for (const auto& page : batch) AppendIngestLine(page, &body);
    static std::atomic<uint64_t> seq{0};
    const uint64_t id = (uint64_t{15} << 40) | ++seq;
    std::string bytes = client->FormatPost("/v1/ingest", body);
    if (tracer->on()) {
      bytes.insert(bytes.find("\r\n") + 2,
                   "X-Bench-Id: " + std::to_string(id) + "\r\n");
    }
    const int64_t start = NowNs();
    if (!client->SendRaw(bytes).ok()) return false;
    auto response = client->ReadResponse();
    if (tracer->on()) tracer->Record(id, kIngestClientSpan, start, NowNs());
    return response.ok() && response->status == 200;
  };
  port.visible = [client, last_version, failures](const std::string& name) {
    auto response = client->Get(TargetPath(kGetConcept, name));
    if (!response.ok()) return -1;
    const uint64_t version = std::strtoull(
        std::string(response->Header(server::ApiEndpoints::kVersionHeader))
            .c_str(),
        nullptr, 10);
    if (version < *last_version) {
      failures->Add("version went backwards on the writer connection");
    }
    *last_version = version;
    if (response->status != 200) return -1;
    return ConceptsNonEmpty(response->body) ? 1 : 0;
  };
  return port;
}

IngestPort InprocPort(System* sys, Tracer* tracer) {
  IngestPort port;
  port.submit = [sys, tracer](const std::vector<kb::EncyclopediaPage>& batch) {
    static std::atomic<uint64_t> seq{0};
    const int64_t start = NowNs();
    const bool ok = sys->daemon->SubmitBatch(batch).ok();
    if (tracer->on()) {
      tracer->Record((uint64_t{15} << 40) | ++seq, kIngestHandleSpan, start,
                     NowNs());
    }
    return ok;
  };
  port.visible = [sys](const std::string& name) {
    auto result = sys->api->TryGetConceptResolved(name);
    if (!result.ok()) return -1;
    return result->names.empty() ? 0 : 1;
  };
  return port;
}

// --- In-process workload ---------------------------------------------------

struct IsaCase {
  size_t entity;
  std::string concept_name;
  reason::ReasonService::IsaResolved expected;
};
struct LcaCase {
  size_t a;
  size_t b;
  reason::ReasonService::LcaResolved expected;
};

// The reference pass: every answer the in-process workload can ask for,
// computed single-threaded before timing.
struct Reference {
  std::vector<std::vector<taxonomy::ApiService::ResolvedEntity>> men2ent;
  std::vector<std::vector<std::string>> get_concept;
  std::vector<std::vector<std::string>> get_entity;
  std::vector<IsaCase> isa;
  std::vector<LcaCase> lca;
  std::vector<std::vector<reason::ReasonService::ScoredName>> similar;
  std::vector<std::vector<reason::ReasonService::ScoredName>> expand;
};

bool SameEntities(const std::vector<taxonomy::ApiService::ResolvedEntity>& a,
                  const std::vector<taxonomy::ApiService::ResolvedEntity>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].name != b[i].name ||
        a[i].num_hypernyms != b[i].num_hypernyms) {
      return false;
    }
  }
  return true;
}

bool SameRanked(const std::vector<reason::ReasonService::ScoredName>& a,
                const std::vector<reason::ReasonService::ScoredName>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].name != b[i].name || a[i].score != b[i].score ||
        a[i].tie != b[i].tie) {
      return false;
    }
  }
  return true;
}

bool SameIsa(const reason::ReasonService::IsaResolved& a,
             const reason::ReasonService::IsaResolved& b) {
  return a.entity_known == b.entity_known &&
         a.concept_known == b.concept_known && a.isa == b.isa &&
         a.depth == b.depth && a.path == b.path;
}

bool SameLca(const reason::ReasonService::LcaResolved& a,
             const reason::ReasonService::LcaResolved& b) {
  return a.a_known == b.a_known && a.b_known == b.b_known &&
         a.found == b.found && a.lca == b.lca && a.depth_a == b.depth_a &&
         a.depth_b == b.depth_b;
}

// Builds the isa and lca pools from the seed (half positive isa pairs: an
// entity and one of its ancestors within kIsaDepth; half worst-case
// negatives: an entity and a concept it does not reach), then records every
// expected answer.
bool MakeReference(const taxonomy::ApiService& api,
                   const reason::ReasonService& reasoning, const Universe& u,
                   uint64_t seed, Reference* ref) {
  const auto view = api.CurrentView();
  bool ok = true;
  const auto check = [&ok](bool fine) { ok = ok && fine; };
  for (const auto& mention : u.mentions) {
    auto r = api.TryMen2EntResolved(mention);
    check(r.ok());
    ref->men2ent.push_back(r.ok() ? r->entities : decltype(r->entities){});
  }
  for (const auto& entity : u.entities) {
    auto r = api.TryGetConceptResolved(entity);
    check(r.ok());
    ref->get_concept.push_back(r.ok() ? r->names : std::vector<std::string>{});
    auto s = reasoning.TrySimilar(entity, kTopK);
    check(s.ok());
    ref->similar.push_back(s.ok() ? s->results
                                  : decltype(s->results){});
  }
  for (const auto& concept_name : u.concepts) {
    auto r = api.TryGetEntityResolved(concept_name);
    check(r.ok());
    ref->get_entity.push_back(r.ok() ? r->names : std::vector<std::string>{});
    auto e = reasoning.TryExpand(concept_name, kTopK);
    check(e.ok());
    ref->expand.push_back(e.ok() ? e->results : decltype(e->results){});
  }
  util::Rng rng(seed * 104729 + 17);
  for (size_t attempt = 0;
       ref->isa.size() < kReasonPool && attempt < 16 * kReasonPool;
       ++attempt) {
    const size_t entity = rng.Uniform(u.entities.size());
    std::string concept_name;
    if (ref->isa.size() % 2 == 0) {
      const auto ancestors = reason::Ancestors(
          *view, view->Find(u.entities[entity]), kIsaDepth, 32);
      if (ancestors.empty()) continue;
      concept_name =
          view->Name(ancestors[rng.Uniform(ancestors.size())].node);
    } else {
      concept_name = u.concepts[rng.Uniform(u.concepts.size())];
    }
    auto r = reasoning.TryIsa(u.entities[entity], concept_name, kIsaDepth);
    check(r.ok());
    if (!r.ok() || r->isa != (ref->isa.size() % 2 == 0)) continue;
    ref->isa.push_back({entity, concept_name, *r});
  }
  for (size_t i = 0; i < kReasonPool; ++i) {
    const size_t a = rng.Uniform(u.entities.size());
    const size_t b = rng.Uniform(u.entities.size());
    auto r = reasoning.TryLca(u.entities[a], u.entities[b], kLcaDepth);
    check(r.ok());
    ref->lca.push_back(
        {a, b, r.ok() ? *r : reason::ReasonService::LcaResolved{}});
  }
  return ok && ref->isa.size() == kReasonPool;
}

struct InprocResult {
  Samples samples;
  uint64_t calls = 0;
};

void RunInproc(int index, const taxonomy::ApiService& api,
               const reason::ReasonService& reasoning, const Universe& u,
               const Reference& ref, const MixSampler& sampler,
               uint64_t version, uint64_t seed, uint64_t round,
               Tracer* tracer, WindowControl* control, InprocResult* result,
               Failures* failures) {
  result->samples.Reserve(size_t{1} << 23);
  util::Rng rng(seed * 7919 + round * 31 + static_cast<uint64_t>(index) + 101);
  while (!control->go.load()) std::this_thread::sleep_for(kPollInterval);
  uint64_t seq = 0;
  while (!control->stop.load(std::memory_order_relaxed)) {
    bool right = true;
    Layer layer = kMen2EntSpan;
    const int64_t start = NowNs();
    if (rng.UniformDouble() >= kReasonShare) {
      const Api api_kind = sampler.NextApi(rng);
      const size_t key = sampler.NextKey(api_kind, rng);
      if (api_kind == kMen2Ent) {
        layer = kMen2EntSpan;
        auto r = api.TryMen2EntResolved(u.mentions[key]);
        right = r.ok() && r->version == version &&
                SameEntities(r->entities, ref.men2ent[key]);
      } else if (api_kind == kGetConcept) {
        layer = kGetConceptSpan;
        auto r = api.TryGetConceptResolved(u.entities[key]);
        right = r.ok() && r->version == version &&
                r->names == ref.get_concept[key];
      } else {
        layer = kGetEntitySpan;
        auto r = api.TryGetEntityResolved(u.concepts[key]);
        right = r.ok() && r->version == version &&
                r->names == ref.get_entity[key];
      }
    } else {
      const double x = rng.UniformDouble();
      if (x < 0.4) {
        layer = kIsaSpan;
        const IsaCase& c = ref.isa[rng.Uniform(ref.isa.size())];
        auto r = reasoning.TryIsa(u.entities[c.entity], c.concept_name,
                                  kIsaDepth);
        right = r.ok() && r->version == version && SameIsa(*r, c.expected);
      } else if (x < 0.6) {
        layer = kLcaSpan;
        const LcaCase& c = ref.lca[rng.Uniform(ref.lca.size())];
        auto r = reasoning.TryLca(u.entities[c.a], u.entities[c.b], kLcaDepth);
        right = r.ok() && r->version == version && SameLca(*r, c.expected);
      } else if (x < 0.8) {
        layer = kSimilarSpan;
        const size_t key = rng.Uniform(u.entities.size());
        auto r = reasoning.TrySimilar(u.entities[key], kTopK);
        right = r.ok() && r->version == version &&
                SameRanked(r->results, ref.similar[key]);
      } else {
        layer = kExpandSpan;
        const size_t key = rng.Uniform(u.concepts.size());
        auto r = reasoning.TryExpand(u.concepts[key], kTopK);
        right = r.ok() && r->version == version &&
                SameRanked(r->results, ref.expand[key]);
      }
    }
    const int64_t end = NowNs();
    const bool traced = tracer->on();
    if (traced) {
      tracer->Record((static_cast<uint64_t>(index + 1) << 40) | ++seq, layer,
                     start, end);
    }
    result->samples.Add(traced, start, end, *control);
    ++result->calls;
    if (!right) {
      failures->Add(std::string("in-process answer differs from the "
                                "reference pass: ") +
                    kLayerNames[layer]);
    }
  }
}

// --- Replays ----------------------------------------------------------------

struct Cost {
  double ns = 0;
  double allocs = 0;
};

// Times `n` calls of fn(i) on this thread, three passes, median ns per
// call; allocations per call are exact (the counter is per thread).
template <typename Fn>
Cost Replay(size_t n, Fn&& fn) {
  if (n == 0) return {};
  std::vector<double> ns;
  Cost cost;
  for (int pass = 0; pass < 3; ++pass) {
    const uint64_t allocs0 = ThreadAllocs();
    const int64_t start = NowNs();
    for (size_t i = 0; i < n; ++i) fn(i);
    ns.push_back(static_cast<double>(NowNs() - start) / n);
    cost.allocs = static_cast<double>(ThreadAllocs() - allocs0) / n;
  }
  cost.ns = Median(ns);
  return cost;
}

// --- Metrics output ---------------------------------------------------------

class Metrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    if (!json_.empty()) json_ += ",";
    json_ += util::JsonString(name) + ":{\"value\":" + Number(value) +
             ",\"unit\":" + util::JsonString(unit) + "}";
    std::printf("  %-34s %16.6f %s\n", name.c_str(), value, unit);
  }
  const std::string& json() const { return json_; }

  static std::string Number(double value) {
    if (!std::isfinite(value)) return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
  }

 private:
  std::string json_;
};

void PrintTail(const char* what, const std::vector<double>& values) {
  const size_t n = values.size();
  std::printf("info: %s n=%zu p50=%.2f p90=%.2f p99=%.2f (%zu beyond) "
              "p99.9=%.2f (%zu beyond)\n",
              what, n, Percentile(values, 50), Percentile(values, 90),
              Percentile(values, 99), n / 100, Percentile(values, 99.9),
              n / 1000);
}

// --- Runs and rounds ---------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 3;
  bool trace = false;
  std::string work_dir;
  std::string spans;
};


// What one round measured: one set-up, one window, one ingest phase.
struct Round {
  SetupTimes setup;
  uint64_t requests = 0;
  double window_s = 0;
  std::vector<double> latency[2];  // [traced]
  // Per kSlice of the untraced window: completions/s, p50 and p90 (us),
  // and server and generator CPU per completed request (us).
  std::vector<double> slice_rate, slice_p50, slice_p90;
  std::vector<double> slice_server_cpu_us, slice_client_cpu_us;
  WriterResult writer;
  server::ResultCache::Stats cache0, cache1;
  double peak_rss_mb = 0;
};

size_t SliceCount(double untraced_s) {
  return static_cast<size_t>(untraced_s / Seconds(kSlice) + 1e-9);
}

// Process and generator-thread CPU seconds at one slice boundary.
struct CpuSample {
  double process = 0;
  double generators = 0;
};

// Cuts the untraced window into kSlice slices; a slice's rate and
// percentiles come from the requests that completed inside it, its CPU
// from the samples at its two ends. Over the wire the server is every
// thread but the generators; in-process the library runs on the generators.
void SliceWindow(const std::vector<const Samples*>& samples,
                 const std::vector<CpuSample>& cpu, bool wire,
                 double untraced_s, Round* out) {
  const size_t slices = SliceCount(untraced_s);
  const int64_t slice_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(kSlice).count();
  std::vector<std::vector<double>> latency(slices);
  for (const Samples* s : samples) {
    for (size_t i = 0; i < s->done_ns.size(); ++i) {
      const int64_t at = s->done_ns[i] / slice_ns;
      if (at >= 0 && static_cast<size_t>(at) < slices) {
        latency[at].push_back(s->latency_us[0][i]);
      }
    }
  }
  for (size_t k = 0; k < slices; ++k) {
    const auto& l = latency[k];
    out->slice_rate.push_back(l.size() / Seconds(kSlice));
    out->slice_p50.push_back(Percentile(l, 50));
    out->slice_p90.push_back(Percentile(l, 90));
    if (l.empty() || k + 1 >= cpu.size()) continue;
    const double process = cpu[k + 1].process - cpu[k].process;
    const double generators = cpu[k + 1].generators - cpu[k].generators;
    const double us_per_req = 1e6 / l.size();
    out->slice_server_cpu_us.push_back(
        (wire ? process - generators : generators) * us_per_req);
    out->slice_client_cpu_us.push_back(wire ? generators * us_per_req : 0.0);
  }
}

// The shared state a round's workload runs against.
struct Workload {
  explicit Workload(System* sys)
      : version0(sys->api->version()),
        universe(MakeUniverse(*sys->api->CurrentView())),
        targets(MakeTargets(universe)),
        reasoning(sys->api.get()),
        stream_end(sys->world->stream.size() -
                   kApplyReplayBatches * kIngestBatch) {}

  uint64_t version0;
  Universe universe;
  std::vector<Target> targets;
  reason::ReasonService reasoning;
  size_t stream_end;
};

// One round on a fresh system: warm, timed window (the second half traced
// under --trace 1), the ingest phase, then every correctness check.
void RunRound(const Options& opt, uint64_t round, System* sys,
              const Workload& w, Tracer* tracer, Failures* failures,
              uint64_t* attempted, Round* out) {
  const bool wire = opt.workload != "inproc_cold";
  const bool churn = opt.workload == "ingest_churn";
  VersionPins pins;
  pins.Pin(*sys->api);
  const MixSampler sampler(w.universe, /*zipf=*/wire);
  const auto& stream = sys->world->stream;

  Reference ref;
  if (!wire &&
      !MakeReference(*sys->api, w.reasoning, w.universe, opt.seed, &ref)) {
    failures->Add("reference pass failed");
  }

  WindowControl control;
  std::vector<server::HttpClient> connections;
  size_t reader_loop = 0;
  std::vector<ReaderResult> readers(wire ? kReaders : 0);
  std::vector<InprocResult> callers(wire ? 0 : kInprocThreads);
  std::vector<std::thread> threads;
  if (wire) {
    connections =
        ConnectReaders(sys->httpd->port(), tracer, &reader_loop, failures);
  }
  for (int i = 0; i < static_cast<int>(readers.size()); ++i) {
    threads.emplace_back(RunReader, i, &connections[i], std::cref(w.targets),
                         std::cref(sampler), opt.seed, round, tracer,
                         &control, &readers[i], failures);
  }
  for (int i = 0; i < static_cast<int>(callers.size()); ++i) {
    threads.emplace_back(RunInproc, i, std::cref(*sys->api),
                         std::cref(w.reasoning), std::cref(w.universe),
                         std::cref(ref), std::cref(sampler), w.version0,
                         opt.seed, round, tracer, &control, &callers[i],
                         failures);
  }
  // Readers request every distinct target once before the window opens.
  if (wire) {
    for (;;) {
      uint64_t warmed = 0;
      for (const auto& r : readers) warmed += r.warm_requests;
      if (warmed >= w.targets.size() || failures->count() > 0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  server::HttpClient writer_client;
  uint64_t writer_version = 0;
  if (wire) {
    ConnectOnLoop(
        &writer_client, sys->httpd->port(), kReaders,
        [reader_loop](size_t l) { return l != reader_loop; }, tracer,
        failures);
  }
  const IngestPort port =
      wire ? WirePort(&writer_client, tracer, &writer_version, failures)
           : InprocPort(sys, tracer);

  out->cache0 = sys->endpoints->cache()->stats();
  const auto window_start = Clock::now();
  control.start_ns = NowNs();
  control.go.store(true);
  std::thread writer_thread;
  if (churn) {
    writer_thread = std::thread(RunWriter, std::cref(stream), w.stream_end,
                                SIZE_MAX, std::cref(port), sys->daemon.get(),
                                sys->api.get(), &pins, &control.stop,
                                &out->writer, failures);
  }
  // CPU is sampled at every slice boundary of the untraced window.
  std::vector<std::thread*> generators;
  for (auto& t : threads) generators.push_back(&t);
  if (writer_thread.joinable()) generators.push_back(&writer_thread);
  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  std::vector<CpuSample> cpu;
  for (size_t k = 0; k <= SliceCount(untraced_s); ++k) {
    std::this_thread::sleep_until(window_start + k * kSlice);
    CpuSample sample{ClockSeconds(CLOCK_PROCESS_CPUTIME_ID), 0.0};
    for (std::thread* t : generators) sample.generators += ThreadCpuSeconds(*t);
    cpu.push_back(sample);
  }
  const auto half = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(opt.seconds / 2));
  std::this_thread::sleep_until(window_start + half);
  if (opt.trace) tracer->set_on(true);
  std::this_thread::sleep_until(window_start + 2 * half);
  control.stop.store(true);
  const auto window_end = Clock::now();
  for (auto& t : threads) t.join();
  if (writer_thread.joinable()) writer_thread.join();
  out->window_s = Seconds(window_end - window_start);
  out->cache1 = sys->endpoints->cache()->stats();
  if (!churn && sys->api->version() != w.version0) {
    failures->Add("served version moved during a read-only window");
  }

  // Idle ingest probe for the read-only workloads.
  if (!churn) {
    RunWriter(stream, w.stream_end, kProbeBatches, port, sys->daemon.get(),
              sys->api.get(), &pins, nullptr, &out->writer, failures);
  }
  tracer->set_on(false);
  if (out->writer.exhausted) {
    std::printf("info: writer ran out of held-out pages after %" PRIu64
                " batches\n",
                out->writer.batches);
  }
  *attempted += out->writer.batches;

  // Every acknowledged page must resolve after the final flush.
  if (const util::Status status = sys->daemon->Flush(kVisibilityTimeout);
      !status.ok()) {
    failures->Add("final flush failed: " + status.ToString());
  }
  for (const std::string& name : out->writer.acked) {
    ++*attempted;
    if (port.visible(name) != 1) {
      failures->Add("acked page does not resolve after flush: " + name);
    }
  }

  uint64_t warm = 0;
  std::vector<const Samples*> samples;
  for (const auto& r : readers) {
    out->requests += r.requests;
    warm += r.warm_requests;
    samples.push_back(&r.samples);
  }
  for (const auto& c : callers) {
    out->requests += c.calls;
    samples.push_back(&c.samples);
  }
  for (const Samples* sample : samples) {
    for (int i = 0; i < 2; ++i) {
      out->latency[i].insert(out->latency[i].end(),
                             sample->latency_us[i].begin(),
                             sample->latency_us[i].end());
    }
  }
  SliceWindow(samples, cpu, wire, untraced_s, out);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  out->peak_rss_mb = usage.ru_maxrss / 1024.0;
  *attempted += out->requests + warm;
  if (wire) {
    uint64_t unverified = 0;
    const uint64_t checked =
        CheckBodies(readers, w.targets, pins, &unverified, failures);
    std::printf("info: %" PRIu64 " distinct (target, version) bodies "
                "checked, %" PRIu64 " at unpinned versions\n",
                checked, unverified);
    // Read-only windows serve one pinned version, so every stamp must be it.
    if (!churn && unverified > 0) {
      failures->Add("responses stamped with a version that was never served");
    }
  }
  const auto& wr = out->writer;
  std::printf("round %" PRIu64 ": %" PRIu64 " requests in %.3fs "
              "(%.0f/s, p50 %.2fus, server cpu %.2fus/req), %" PRIu64
              " warm-up; writer %" PRIu64
              " batches, %" PRIu64 " publishes, %" PRIu64
              " pages applied in %.3fs, send lateness p50 %.3fms max "
              "%.3fms\n",
              round, out->requests, out->window_s,
              out->requests / out->window_s, Percentile(out->latency[0], 50),
              Median(out->slice_server_cpu_us),
              warm, wr.batches, wr.publishes, wr.applied, wr.seconds,
              Percentile(wr.late_ms, 50), Percentile(wr.late_ms, 100));
  std::fflush(stdout);
}

// Single-threaded replays of each layer's public calls on the workload's
// own requests, after the last round. Stops the daemon (the write-path
// replays drive the updater directly).
void ReplayLayers(const Options& opt, System* sys, const Workload& w,
                  Failures* failures, Metrics* metrics) {
  const bool wire = opt.workload != "inproc_cold";
  const MixSampler sampler(w.universe, /*zipf=*/wire);
  const auto& targets = w.targets;
  util::Rng rng(opt.seed * 7919 + 999);
  std::vector<size_t> sample(kReplayOps);
  for (auto& t : sample) t = sampler.Next(rng);

  std::vector<server::HttpRequest> requests;
  requests.reserve(sample.size());
  server::RequestParser parser;
  for (size_t t : sample) {
    parser.Feed(targets[t].request);
    requests.push_back(parser.request());
    parser.Reset();
  }
  bool parsed_all = true;
  const Cost parse = Replay(sample.size(), [&](size_t i) {
    parsed_all &= parser.Feed(targets[sample[i]].request) ==
                  server::RequestParser::State::kComplete;
    parser.Reset();
  });
  if (!parsed_all) failures->Add("parse replay rejected a request");
  for (const auto& request : requests) {
    (void)sys->endpoints->Handle(request);  // warm (in-process: cold cache)
  }
  std::vector<server::HttpResponse> responses;
  responses.reserve(sample.size() * 3);
  const Cost handle = Replay(sample.size(), [&](size_t i) {
    responses.push_back(sys->endpoints->Handle(requests[i]));
  });
  responses.resize(sample.size());
  size_t sink = 0;
  const Cost serialize = Replay(sample.size(), [&](size_t i) {
    sink += server::SerializeResponse(responses[i], true, false).size();
  });

  // Cache: a scratch cache of the served size, keyed as the endpoints key.
  static constexpr const char* kEndpoint[] = {"men2ent", "getConcept",
                                              "getEntity"};
  static constexpr const char* kOptions[] = {"", "|t0", "|l100"};
  std::vector<std::string> keys;
  keys.reserve(sample.size());
  for (size_t t : sample) {
    keys.push_back(server::ResultCache::Key(
        kEndpoint[targets[t].api], *targets[t].arg, kOptions[targets[t].api]));
  }
  server::ResultCache::Config cache_config;
  cache_config.max_bytes = kCacheBytes;
  server::ResultCache scratch(cache_config);
  const Cost insert = Replay(sample.size(), [&](size_t i) {
    scratch.Insert(keys[i], w.version0, 200, responses[i].body);
  });
  server::ResultCache::CachedResponse cached;
  const Cost lookup = Replay(sample.size(), [&](size_t i) {
    sink += scratch.Lookup(keys[i], w.version0, &cached) ? 1 : 0;
  });

  // Taxonomy: the three Table II calls, then the view operations.
  std::vector<const std::string*> by_api[3];
  for (size_t t : sample) by_api[targets[t].api].push_back(targets[t].arg);
  const taxonomy::ApiService& api = *sys->api;
  const Cost men2ent = Replay(by_api[kMen2Ent].size(), [&](size_t i) {
    (void)api.TryMen2EntResolved(*by_api[kMen2Ent][i]);
  });
  const Cost get_concept = Replay(by_api[kGetConcept].size(), [&](size_t i) {
    (void)api.TryGetConceptResolved(*by_api[kGetConcept][i]);
  });
  const Cost get_entity = Replay(by_api[kGetEntity].size(), [&](size_t i) {
    (void)api.TryGetEntityResolved(*by_api[kGetEntity][i]);
  });
  const auto view = api.CurrentView();
  std::vector<taxonomy::NodeId> ids;
  for (const std::string* name : by_api[kGetConcept]) {
    ids.push_back(view->Find(*name));
  }
  const Cost find = Replay(by_api[kGetConcept].size(), [&](size_t i) {
    sink += view->Find(*by_api[kGetConcept][i]);
  });
  const Cost candidates = Replay(by_api[kMen2Ent].size(), [&](size_t i) {
    sink += view->MentionCandidates(*by_api[kMen2Ent][i]).size();
  });
  const Cost visit = Replay(ids.size(), [&](size_t i) {
    view->VisitHypernyms(ids[i], [&sink](const taxonomy::HalfEdge& edge) {
      sink += edge.node;
      return true;
    });
  });

  // Reasoning over the seed's isa/lca pools and the sampled names.
  Reference pools;
  if (!MakeReference(api, w.reasoning, w.universe, opt.seed, &pools)) {
    failures->Add("reasoning reference pass failed");
  }
  const Cost isa = Replay(pools.isa.size(), [&](size_t i) {
    (void)w.reasoning.TryIsa(w.universe.entities[pools.isa[i].entity],
                             pools.isa[i].concept_name, kIsaDepth);
  });
  const Cost lca = Replay(pools.lca.size(), [&](size_t i) {
    (void)w.reasoning.TryLca(w.universe.entities[pools.lca[i].a],
                             w.universe.entities[pools.lca[i].b], kLcaDepth);
  });
  const Cost similar =
      Replay(std::min(kReasonPool, by_api[kGetConcept].size()), [&](size_t i) {
        (void)w.reasoning.TrySimilar(*by_api[kGetConcept][i], kTopK);
      });
  const Cost expand =
      Replay(std::min(kReasonPool, by_api[kGetEntity].size()), [&](size_t i) {
        (void)w.reasoning.TryExpand(*by_api[kGetEntity][i], kTopK);
      });

  // Write path: apply reserved held-out batches, then publish, directly.
  (void)sys->daemon->Stop(ingest::IngestDaemon::StopMode::kDrain);
  const auto& stream = sys->world->stream;
  std::vector<double> apply_ms_per_page;
  for (size_t b = 0; b < kApplyReplayBatches; ++b) {
    const std::vector<kb::EncyclopediaPage> batch(
        stream.begin() + w.stream_end + b * kIngestBatch,
        stream.begin() + w.stream_end + (b + 1) * kIngestBatch);
    const auto t0 = Clock::now();
    const auto report = sys->updater->ApplyBatch(batch);
    apply_ms_per_page.push_back(Seconds(Clock::now() - t0) * 1e3 /
                                batch.size());
    if (report.pages_added != batch.size()) {
      failures->Add("apply replay skipped held-out pages");
    }
  }
  taxonomy::ApiService scratch_api(sys->updater->snapshot());
  const auto mention_index = core::CnProbaseBuilder::BuildMentionIndex(
      sys->updater->dump(), *sys->updater->snapshot());
  std::vector<double> publish_us;
  for (size_t r = 0; r < kPublishReplays; ++r) {
    auto copy = mention_index;
    const auto t0 = Clock::now();
    scratch_api.Publish(sys->updater->snapshot(), std::move(copy));
    publish_us.push_back(Seconds(Clock::now() - t0) * 1e6);
  }

  metrics->Add("server.parse_ns", parse.ns, "ns");
  metrics->Add("server.parse_allocs", parse.allocs, "count");
  metrics->Add("server.serialize_ns", serialize.ns, "ns");
  metrics->Add("server.serialize_allocs", serialize.allocs, "count");
  metrics->Add("server.handle_allocs", handle.allocs, "count");
  metrics->Add("cache.lookup_hit_ns", lookup.ns, "ns");
  metrics->Add("cache.insert_ns", insert.ns, "ns");
  metrics->Add("taxonomy.men2ent_ns", men2ent.ns, "ns");
  metrics->Add("taxonomy.men2ent_allocs", men2ent.allocs, "count");
  metrics->Add("taxonomy.get_concept_ns", get_concept.ns, "ns");
  metrics->Add("taxonomy.get_concept_allocs", get_concept.allocs, "count");
  metrics->Add("taxonomy.get_entity_ns", get_entity.ns, "ns");
  metrics->Add("taxonomy.get_entity_allocs", get_entity.allocs, "count");
  metrics->Add("taxonomy.find_ns", find.ns, "ns");
  metrics->Add("taxonomy.mention_candidates_ns", candidates.ns, "ns");
  metrics->Add("taxonomy.visit_hypernyms_ns", visit.ns, "ns");
  metrics->Add("taxonomy.publish_us", Median(publish_us), "us");
  metrics->Add("reason.isa_ns", isa.ns, "ns");
  metrics->Add("reason.lca_ns", lca.ns, "ns");
  metrics->Add("reason.similar_ns", similar.ns, "ns");
  metrics->Add("reason.expand_ns", expand.ns, "ns");
  metrics->Add("core.apply_ms_per_page", Median(apply_ms_per_page), "ms");
  std::printf("info: replay handle_ns %.1f over %zu requests (sink %zu)\n",
              handle.ns, sample.size(), sink % 10);
}

int Run(const Options& opt) {
  const bool wire = opt.workload != "inproc_cold";
  util::IgnoreSigpipe();
  Failures failures;
  Tracer tracer;
  uint64_t attempted = 0;

  // kRounds rounds, each on a freshly set-up system that must serve the
  // same taxonomy; the last system stays up for the replays.
  std::vector<Round> rounds(kRounds);
  std::unique_ptr<System> sys;
  std::unique_ptr<Workload> workload;
  size_t nodes = 0, edges = 0, mentions = 0;
  for (size_t k = 0; k < kRounds; ++k) {
    workload.reset();
    sys.reset();
    const std::string wal_dir = opt.work_dir + "/round" + std::to_string(k);
    std::filesystem::remove_all(wal_dir);
    std::filesystem::create_directories(wal_dir);
    sys = SetUp(wire, wal_dir, &tracer);
    if (sys == nullptr) return 2;
    rounds[k].setup = sys->times;
    const auto view = sys->api->CurrentView();
    ++attempted;
    if (k > 0 && (view->num_nodes() != nodes || view->num_edges() != edges ||
                  view->num_mentions() != mentions)) {
      failures.Add("set-ups served different taxonomies");
    }
    nodes = view->num_nodes();
    edges = view->num_edges();
    mentions = view->num_mentions();
    std::printf("setup %zu: synth %.3fs build %.3fs index %.3fs start "
                "%.3fms (%zu nodes, %zu edges, %zu mentions, %zu stream "
                "pages)\n",
                k, sys->times.synth_s, sys->times.build_s, sys->times.index_s,
                sys->times.start_s * 1e3, nodes, edges, mentions,
                sys->world->stream.size());
    if (sys->world->stream.size() <
        (kApplyReplayBatches + kProbeBatches) * kIngestBatch) {
      std::fprintf(stderr, "ingest stream too small: %zu pages\n",
                   sys->world->stream.size());
      return 2;
    }
    workload = std::make_unique<Workload>(sys.get());
    RunRound(opt, k, sys.get(), *workload, &tracer, &failures, &attempted,
             &rounds[k]);
    if (failures.count() > 0) {  // a wrong answer fails the run; stop early
      rounds.resize(k + 1);
      break;
    }
  }

  // Rate, latency and CPU are medians over every slice of every round,
  // set-up a median over rounds, and the ingest latencies pool every round's
  // samples (a round has only tens of batches). Peak RSS is the first
  // round's, in a fresh process.
  std::vector<double> setup_s, synth, build, index, start;
  std::vector<double> p50, server_cpu, client_cpu;
  std::vector<double> hit_ratio, evictions, publishes_per_s,
      pages_per_publish, overhead;
  std::vector<double> latency, ack_ms, lag_ms;
  std::vector<double> slice_rate, slice_p50, slice_p90;
  for (const Round& r : rounds) {
    slice_rate.insert(slice_rate.end(), r.slice_rate.begin(),
                      r.slice_rate.end());
    slice_p50.insert(slice_p50.end(), r.slice_p50.begin(), r.slice_p50.end());
    slice_p90.insert(slice_p90.end(), r.slice_p90.begin(), r.slice_p90.end());
    setup_s.push_back(r.setup.total());
    synth.push_back(r.setup.synth_s);
    build.push_back(r.setup.build_s);
    index.push_back(r.setup.index_s);
    start.push_back(r.setup.start_s);
    p50.push_back(Percentile(r.latency[0], 50));
    server_cpu.insert(server_cpu.end(), r.slice_server_cpu_us.begin(),
                      r.slice_server_cpu_us.end());
    client_cpu.insert(client_cpu.end(), r.slice_client_cpu_us.begin(),
                      r.slice_client_cpu_us.end());
    const uint64_t hits = r.cache1.hits - r.cache0.hits;
    const uint64_t misses = r.cache1.misses - r.cache0.misses;
    hit_ratio.push_back(hits + misses > 0
                            ? static_cast<double>(hits) / (hits + misses)
                            : 0.0);
    evictions.push_back(
        static_cast<double>(r.cache1.evictions - r.cache0.evictions));
    publishes_per_s.push_back(
        r.writer.seconds > 0 ? r.writer.publishes / r.writer.seconds : 0.0);
    pages_per_publish.push_back(
        r.writer.publishes > 0
            ? static_cast<double>(r.writer.applied) / r.writer.publishes
            : 0.0);
    const double untraced = Percentile(r.latency[0], 50);
    overhead.push_back(
        untraced > 0
            ? 100.0 * (Percentile(r.latency[1], 50) - untraced) / untraced
            : 0.0);
    latency.insert(latency.end(), r.latency[0].begin(), r.latency[0].end());
    ack_ms.insert(ack_ms.end(), r.writer.ack_ms.begin(), r.writer.ack_ms.end());
    lag_ms.insert(lag_ms.end(), r.writer.lag_ms.begin(), r.writer.lag_ms.end());
  }
  std::printf("\nworkload %s seed %" PRIu64 ", %zu rounds of %.1fs\n",
              opt.workload.c_str(), opt.seed, rounds.size(), opt.seconds);
  PrintTail("latency_us (untraced, all rounds)", latency);
  PrintTail("ingest ack_ms (all rounds)", ack_ms);
  PrintTail("ingest publish_lag_ms (all rounds)", lag_ms);

  Metrics metrics;
  std::printf("\nmetrics:\n");
  if (!opt.trace) {
    metrics.Add("setup_s", Median(setup_s), "s");
    metrics.Add("req_per_s", Median(slice_rate), "1/s");
    metrics.Add("latency_p50_us", Median(slice_p50), "us");
    metrics.Add("latency_p90_us", Median(slice_p90), "us");
    metrics.Add("server_cpu_us_per_req", Median(server_cpu), "us");
    metrics.Add("ingest_ack_p50_ms", Percentile(ack_ms, 50), "ms");
    metrics.Add("publish_lag_p50_ms", Percentile(lag_ms, 50), "ms");
    metrics.Add("peak_rss_mb", rounds[0].peak_rss_mb, "MB");
  } else {
    metrics.Add("client.cpu_us_per_req", Median(client_cpu), "us");
    metrics.Add("cache.hit_ratio", Median(hit_ratio), "ratio");
    metrics.Add("cache.evictions", Median(evictions), "count");
    metrics.Add("ingest.publishes_per_s", Median(publishes_per_s), "1/s");
    metrics.Add("ingest.pages_per_publish", Median(pages_per_publish),
                "count");
    metrics.Add("setup.synth_s", Median(synth), "s");
    metrics.Add("setup.build_s", Median(build), "s");
    metrics.Add("setup.index_s", Median(index), "s");
    metrics.Add("setup.start_ms", Median(start) * 1e3, "ms");
    metrics.Add("trace.overhead_pct", Median(overhead), "%");
    std::printf("info: untraced_p50_us %.17g\n", Median(p50));
    ReplayLayers(opt, sys.get(), *workload, &failures, &metrics);
    if (!opt.spans.empty() && !tracer.Write(opt.spans)) {
      failures.Add("could not write spans to " + opt.spans);
    }
  }

  const uint64_t failed = failures.count();
  std::printf("info: failed_ratio %.6g (%" PRIu64 " of %" PRIu64 ")\n",
              attempted > 0 ? static_cast<double>(failed) / attempted : 0.0,
              failed, attempted);
  std::printf("PERFBENCH_RESULT {\"correct\":%s,\"attempted\":%" PRIu64
              ",\"failed\":%" PRIu64 ",\"metrics\":{%s}}\n",
              failed == 0 ? "true" : "false", attempted, failed,
              metrics.json().c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload table2_hot|inproc_cold|"
               "ingest_churn --seed N --seconds S --trace 0|1 "
               "--work-dir DIR [--spans FILE]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(value);
    } else if (flag == "--trace") {
      opt.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--work-dir") {
      opt.work_dir = value;
    } else if (flag == "--spans") {
      opt.spans = value;
    } else {
      return perfbench::Usage();
    }
  }
  if ((argc - 1) % 2 != 0 || opt.work_dir.empty() || opt.seconds <= 0 ||
      (opt.workload != "table2_hot" && opt.workload != "inproc_cold" &&
       opt.workload != "ingest_churn")) {
    return perfbench::Usage();
  }
  return perfbench::Run(opt);
}
