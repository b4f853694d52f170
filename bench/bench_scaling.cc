// Scaling sweep (system angle, §V): construction cost vs dump size, build
// throughput vs thread count, and ApiService QPS vs client count. The
// paper's deployment processes a 16M-page dump and serves ~83M API calls;
// this bench shows the pipeline's empirical scaling so the laptop-scale
// results can be extrapolated.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/incremental.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "taxonomy/api_service.h"
#include "taxonomy/snapshot.h"
#include "util/histogram.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace cnpb {
namespace {

// The served bytes of a build: taxonomy and mention index as one encoded
// view, exact score bits included, compared byte for byte across thread
// counts.
std::string Fingerprint(const kb::EncyclopediaDump& dump,
                        const taxonomy::Taxonomy& taxonomy) {
  return std::string(
      taxonomy::ServingView::Encode(
          taxonomy, core::CnProbaseBuilder::BuildMentionIndex(dump, taxonomy))
          ->bytes());
}

// Call `i` of the Table II-ish (men2ent-heavy) mix every sweep here drives:
// men2ent on even calls, getConcept and getEntity on the odd ones.
void MixedQuery(const taxonomy::ApiService& api, const std::string& term,
                size_t i) {
  if (i % 2 == 0) {
    (void)api.TryMen2EntResolved(term);
  } else if (i % 4 == 1) {
    (void)api.TryGetConceptResolved(term);
  } else {
    (void)api.TryGetEntityResolved(term, 20);
  }
}

void RunDumpSizeSweep() {
  std::printf("\n-- construction cost vs dump size --\n");
  std::printf("\n%10s %8s %10s %10s %10s %10s %10s\n", "entities", "pages",
              "gen (s)", "verify (s)", "isA", "precision", "pages/s");
  // Scales derive from CNPB_BENCH_ENTITIES (default 8000 keeps the
  // historical {2000, 4000, 8000, 16000} sweep) so CI can shrink the run.
  const size_t base = bench::BenchScale(8000);
  for (const size_t step : {base / 4, base / 2, base, base * 2}) {
    const size_t scale = std::max<size_t>(step, 64);
    auto world = bench::MakeBenchWorld(scale);
    util::WallTimer timer;
    core::CnProbaseBuilder::Report report;
    const auto candidates = core::CnProbaseBuilder::BuildCandidates(
        world->output->dump, world->world->lexicon(), world->corpus_words,
        bench::DefaultBuilderConfig(), &report);
    const double total = timer.ElapsedSeconds();
    const auto precision =
        eval::CandidatePrecision(candidates, world->Oracle());
    std::printf("%10zu %8zu %10.3f %10.3f %10zu %9.1f%% %10.0f\n", scale,
                world->output->dump.size(), report.seconds_generation,
                report.seconds_verification, candidates.size(),
                100.0 * precision.precision(),
                world->output->dump.size() / total);
  }
}

// Returns false if any thread count's build differs from the serial one.
bool RunThreadSweep() {
  std::printf("\n-- end-to-end build throughput vs CNPB_THREADS --\n");
  const size_t scale = bench::BenchScale(6000);
  auto world = bench::MakeBenchWorld(scale);
  std::printf("\n%8s %10s %10s %10s %10s  %s\n", "threads", "build (s)",
              "pages/s", "speedup", "isA", "output");
  double serial_seconds = 0.0;
  std::string serial_fingerprint;
  bool deterministic = true;
  for (const int threads : {1, 2, 4, 8}) {
    util::ScopedThreadsOverride override_threads(threads);
    util::WallTimer timer;
    core::CnProbaseBuilder::Report report;
    const auto taxonomy = core::CnProbaseBuilder::Build(
        world->output->dump, world->world->lexicon(), world->corpus_words,
        bench::DefaultBuilderConfig(), &report);
    const double seconds = timer.ElapsedSeconds();
    const std::string fingerprint =
        Fingerprint(world->output->dump, taxonomy);
    if (threads == 1) {
      serial_seconds = seconds;
      serial_fingerprint = fingerprint;
    }
    const bool identical = fingerprint == serial_fingerprint;
    deterministic = deterministic && identical;
    size_t num_edges = 0;
    taxonomy.ForEachEdge([&](const taxonomy::IsaEdge&) { ++num_edges; });
    std::printf("%8d %10.3f %10.0f %9.2fx %10zu  %s\n", threads, seconds,
                world->output->dump.size() / seconds,
                serial_seconds / seconds, num_edges,
                identical ? "byte-identical" : "** DIVERGED **");
  }
  return deterministic;
}

void RunApiQpsSweep() {
  std::printf("\n-- ApiService QPS vs concurrent clients --\n");
  const size_t scale = bench::BenchScale(6000);
  auto world = bench::MakeBenchWorld(scale);
  core::CnProbaseBuilder::Report report;
  const auto taxonomy = core::CnProbaseBuilder::Build(
      world->output->dump, world->world->lexicon(), world->corpus_words,
      bench::DefaultBuilderConfig(), &report);
  taxonomy::ApiService api(
      util::UnownedSnapshot(&taxonomy),
      core::CnProbaseBuilder::BuildMentionIndex(world->output->dump, taxonomy));

  std::vector<std::string> mentions;
  for (const auto& page : world->output->dump.pages()) {
    mentions.push_back(page.mention);
  }

  constexpr size_t kCallsPerClient = 20000;
  std::printf("\n%8s %12s %12s %12s\n", "clients", "calls", "seconds", "QPS");
  for (const int clients : {1, 2, 4, 8}) {
    api.ResetUsage();
    util::WallTimer timer;
    std::vector<std::thread> workers;
    workers.reserve(clients);
    for (int c = 0; c < clients; ++c) {
      workers.emplace_back([&api, &mentions, c]() {
        // Each client mixes the three APIs roughly like Table II
        // (men2ent-heavy), striding the mention list from its own offset.
        for (size_t i = 0; i < kCallsPerClient; ++i) {
          const std::string& mention =
              mentions[(i * 37 + static_cast<size_t>(c) * 1009) %
                       mentions.size()];
          MixedQuery(api, mention, i);
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
    const double seconds = timer.ElapsedSeconds();
    const uint64_t calls = api.usage().total();
    std::printf("%8d %12llu %12.2f %12.0f\n", clients,
                static_cast<unsigned long long>(calls), seconds,
                calls / seconds);
  }
}

void RunServeWhileUpdateSweep() {
  std::printf("\n-- ApiService QPS under publish churn (serve while "
              "updating) --\n");
  const size_t scale = bench::BenchScale(4000);
  auto world = bench::MakeBenchWorld(scale);

  // One incremental run yields a sequence of frozen versions (snapshot +
  // mention index); the sweep then republishes them cyclically under reader
  // load, so the QPS numbers isolate the cost of the snapshot swap itself.
  kb::EncyclopediaDump base;
  std::vector<std::vector<kb::EncyclopediaPage>> batches(3);
  const size_t n = world->output->dump.size();
  for (size_t i = 0; i < n; ++i) {
    kb::EncyclopediaPage page = world->output->dump.page(i);
    page.page_id = 0;
    if (i < n * 7 / 10) {
      base.AddPage(std::move(page));
    } else {
      batches[(i - n * 7 / 10) % 3].push_back(std::move(page));
    }
  }
  core::IncrementalUpdater updater(base, &world->world->lexicon(),
                                   world->corpus_words,
                                   bench::DefaultBuilderConfig());
  std::vector<std::shared_ptr<const taxonomy::Taxonomy>> versions;
  std::vector<taxonomy::ApiService::MentionIndex> indexes;
  auto freeze_current = [&]() {
    versions.push_back(updater.snapshot());
    indexes.push_back(core::CnProbaseBuilder::BuildMentionIndex(
        updater.dump(), updater.taxonomy()));
  };
  freeze_current();
  for (const auto& batch : batches) {
    updater.ApplyBatch(batch);
    freeze_current();
  }

  std::vector<std::string> mentions;
  for (const auto& page : base.pages()) mentions.push_back(page.mention);

  constexpr size_t kCallsPerClient = 20000;
  std::printf("\n%8s %12s %12s %12s %12s\n", "clients", "calls", "seconds",
              "QPS", "publishes");
  for (const int clients : {1, 2, 4, 8}) {
    taxonomy::ApiService api(versions.front(),
                             taxonomy::ApiService::MentionIndex(
                                 indexes.front()));
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> publishes{0};
    std::thread publisher([&]() {
      size_t v = 1;
      while (!stop.load(std::memory_order_acquire)) {
        api.Publish(versions[v % versions.size()],
                    taxonomy::ApiService::MentionIndex(
                        indexes[v % versions.size()]));
        publishes.fetch_add(1, std::memory_order_relaxed);
        ++v;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    util::WallTimer timer;
    std::vector<std::thread> workers;
    workers.reserve(clients);
    for (int c = 0; c < clients; ++c) {
      workers.emplace_back([&api, &mentions, c]() {
        for (size_t i = 0; i < kCallsPerClient; ++i) {
          const std::string& mention =
              mentions[(i * 37 + static_cast<size_t>(c) * 1009) %
                       mentions.size()];
          MixedQuery(api, mention, i);
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
    const double seconds = timer.ElapsedSeconds();
    stop.store(true, std::memory_order_release);
    publisher.join();
    const uint64_t calls = api.usage().total();
    std::printf("%8d %12llu %12.2f %12.0f %12llu\n", clients,
                static_cast<unsigned long long>(calls), seconds,
                calls / seconds,
                static_cast<unsigned long long>(publishes.load()));
    // Flush the per-version serving gauges into the registry so a
    // --metrics-out export carries the QPS attribution of the last round.
    api.ExportMetrics(&obs::MetricsRegistry::Global());
  }
}

// Cold start: what a process without a snapshot must do before it can
// serve — rebuild the mention index from the dump and encode the view from
// the in-memory taxonomy — vs one mmap + validation pass over the written
// snapshot (DESIGN.md §10). Also compares query latency percentiles across
// the two served views, since the mmap'd pages must not serve slower than
// the freshly encoded buffer. Returns false when the snapshot load fails
// to beat the rebuild at all (the --coldstart-strict CI gate).
bool RunColdStartSweep() {
  std::printf("\n-- cold start: index rebuild + encode vs zero-copy mmap "
              "snapshot --\n");
  const size_t scale = bench::BenchScale(8000);
  auto world = bench::MakeBenchWorld(scale);
  core::CnProbaseBuilder::Report report;
  const taxonomy::Taxonomy built = core::CnProbaseBuilder::Build(
      world->output->dump, world->world->lexicon(), world->corpus_words,
      bench::DefaultBuilderConfig(), &report);

  const char* tmpdir = std::getenv("TMPDIR");
  const std::string dir = tmpdir != nullptr && *tmpdir != '\0' ? tmpdir
                                                               : "/tmp";
  const std::string snap_path = dir + "/cnpb_coldstart.snap";
  CNPB_CHECK(taxonomy::WriteSnapshot(
                 *taxonomy::ServingView::Encode(
                     built, core::CnProbaseBuilder::BuildMentionIndex(
                                world->output->dump, built)),
                 snap_path)
                 .ok());

  // Best-of-5 so page-cache and allocator warmup noise hits neither side.
  constexpr int kReps = 5;
  double rebuild_seconds = std::numeric_limits<double>::infinity();
  double snap_seconds = std::numeric_limits<double>::infinity();
  std::shared_ptr<const taxonomy::ServingView> rebuilt_view;
  std::shared_ptr<const taxonomy::ServingView> snap_view;
  for (int rep = 0; rep < kReps; ++rep) {
    util::WallTimer timer;
    const auto index =
        core::CnProbaseBuilder::BuildMentionIndex(world->output->dump, built);
    auto view = taxonomy::ServingView::Encode(built, index);
    rebuild_seconds = std::min(rebuild_seconds, timer.ElapsedSeconds());
    rebuilt_view = std::move(view);
  }
  for (int rep = 0; rep < kReps; ++rep) {
    util::WallTimer timer;
    auto snap = taxonomy::ServingView::Load(snap_path);
    CNPB_CHECK(snap.ok()) << snap.status().ToString();
    snap_seconds = std::min(snap_seconds, timer.ElapsedSeconds());
    snap_view = *std::move(snap);
  }
  const double speedup = rebuild_seconds / snap_seconds;
  const size_t snap_bytes = snap_view->bytes().size();

  // Query latency percentiles on both views (Table II-ish mix), one timed
  // call at a time through the full ApiService path.
  const auto measure = [&](std::shared_ptr<const taxonomy::ServingView> view,
                           util::Histogram* hist) {
    taxonomy::ApiService api(std::move(view));
    std::vector<std::string> mentions;
    for (const auto& page : world->output->dump.pages()) {
      mentions.push_back(page.mention);
    }
    const size_t calls = std::min<size_t>(60000, mentions.size() * 20);
    for (size_t i = 0; i < calls; ++i) {
      const std::string& mention = mentions[(i * 37) % mentions.size()];
      util::WallTimer timer;
      MixedQuery(api, mention, i);
      hist->Add(timer.ElapsedSeconds());
    }
  };
  util::Histogram rebuild_latency;
  util::Histogram snap_latency;
  measure(rebuilt_view, &rebuild_latency);
  measure(snap_view, &snap_latency);

  std::printf("\n%10s %12s %12s %12s %12s\n", "source", "load (ms)",
              "p50 (us)", "p99 (us)", "bytes");
  std::printf("%10s %12.2f %12.2f %12.2f %12zu\n", "rebuild",
              rebuild_seconds * 1e3, rebuild_latency.Percentile(50) * 1e6,
              rebuild_latency.Percentile(99) * 1e6,
              rebuilt_view->bytes().size());
  std::printf("%10s %12.2f %12.2f %12.2f %12zu\n", "snapshot",
              snap_seconds * 1e3, snap_latency.Percentile(50) * 1e6,
              snap_latency.Percentile(99) * 1e6, snap_bytes);
  std::printf("cold-start speedup: %.1fx\n", speedup);

  auto& registry = obs::MetricsRegistry::Global();
  registry.gauge("bench.coldstart.rebuild_seconds")->Set(rebuild_seconds);
  registry.gauge("bench.coldstart.snapshot_load_seconds")->Set(snap_seconds);
  registry.gauge("bench.coldstart.speedup")->Set(speedup);
  registry.gauge("bench.coldstart.snapshot_bytes")
      ->Set(static_cast<double>(snap_bytes));
  registry.gauge("bench.coldstart.rebuild_query_p50_seconds")
      ->Set(rebuild_latency.Percentile(50));
  registry.gauge("bench.coldstart.rebuild_query_p99_seconds")
      ->Set(rebuild_latency.Percentile(99));
  registry.gauge("bench.coldstart.snapshot_query_p50_seconds")
      ->Set(snap_latency.Percentile(50));
  registry.gauge("bench.coldstart.snapshot_query_p99_seconds")
      ->Set(snap_latency.Percentile(99));

  std::remove(snap_path.c_str());
  return speedup >= 1.0;
}

void RunMetricsOverheadCheck() {
  std::printf("\n-- metrics overhead: instrumented vs metrics-disabled --\n");
  const size_t scale = bench::BenchScale(6000);
  auto world = bench::MakeBenchWorld(scale);
  core::CnProbaseBuilder::Report report;
  const auto taxonomy = core::CnProbaseBuilder::Build(
      world->output->dump, world->world->lexicon(), world->corpus_words,
      bench::DefaultBuilderConfig(), &report);
  taxonomy::ApiService api(
      util::UnownedSnapshot(&taxonomy),
      core::CnProbaseBuilder::BuildMentionIndex(world->output->dump, taxonomy));
  std::vector<std::string> mentions;
  for (const auto& page : world->output->dump.pages()) {
    mentions.push_back(page.mention);
  }

  // Single-threaded query loop (the configuration most sensitive to
  // per-call overhead). Rounds interleave the two modes and each side keeps
  // its best time, so frequency drift and scheduler noise hit both equally.
  constexpr size_t kCalls = 1000000;
  constexpr int kRounds = 8;
  auto run_once = [&]() {
    util::WallTimer timer;
    for (size_t i = 0; i < kCalls; ++i) {
      const std::string& mention = mentions[(i * 37) % mentions.size()];
      MixedQuery(api, mention, i);
    }
    return timer.ElapsedSeconds();
  };
  run_once();  // warm caches before either side measures
  double disabled = std::numeric_limits<double>::infinity();
  double enabled = std::numeric_limits<double>::infinity();
  for (int r = 0; r < kRounds; ++r) {
    obs::SetMetricsEnabled(false);
    disabled = std::min(disabled, run_once());
    obs::SetMetricsEnabled(true);
    enabled = std::min(enabled, run_once());
  }
  const double overhead_pct = 100.0 * (enabled - disabled) / disabled;
  std::printf("\n%12s %12s %12s %10s\n", "mode", "seconds", "QPS",
              "overhead");
  std::printf("%12s %12.3f %12.0f %10s\n", "disabled", disabled,
              kCalls / disabled, "-");
  std::printf("%12s %12.3f %12.0f %9.2f%%\n", "enabled", enabled,
              kCalls / enabled, overhead_pct);
  // The observability contract (DESIGN.md §7): instrumented serving stays
  // within 2% of the metrics-disabled baseline.
  std::printf("%s\n", overhead_pct < 2.0
                          ? "overhead check: OK (<2% budget)"
                          : "overhead check: ** OVER the 2% budget **");
}

// Runs every sweep; returns false if the thread sweep's builds diverged,
// or if `coldstart_strict` and the snapshot cold start lost to a rebuild.
bool Run(bool coldstart_strict) {
  bench::PrintHeader("Scaling",
                     "construction cost, thread scaling, API throughput");
  RunDumpSizeSweep();
  const bool deterministic = RunThreadSweep();
  RunApiQpsSweep();
  RunServeWhileUpdateSweep();
  const bool coldstart_ok = RunColdStartSweep();
  RunMetricsOverheadCheck();
  std::printf("\nshape check: near-linear construction in dump size (neural "
              "training is the\nfixed-cost component); sharded build "
              "throughput rises with threads while the\nserialized taxonomy "
              "stays byte-identical; API QPS scales with reader\nconcurrency "
              "and holds up under continuous snapshot publishes (RCU swap,\n"
              "readers never block); an mmap snapshot cold-starts faster "
              "than rebuilding\nthe mention index and encoding the view; "
              "instrumentation costs <2%% of\nserving throughput.\n");
  if (!deterministic) {
    std::fprintf(stderr,
                 "thread sweep: the build diverged across CNPB_THREADS "
                 "values\n");
  }
  if (coldstart_strict && !coldstart_ok) {
    std::fprintf(stderr,
                 "coldstart-strict: snapshot load slower than index rebuild "
                 "+ encode\n");
  }
  return deterministic && (coldstart_ok || !coldstart_strict);
}

}  // namespace
}  // namespace cnpb

int main(int argc, char** argv) {
  std::string metrics_out;
  bool coldstart_strict = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--metrics-out" && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (std::string(argv[i]) == "--coldstart-strict") {
      // CI gate: fail the run if the mmap snapshot load is not at least as
      // fast as rebuilding the index and encoding the view (the reason a
      // snapshot is kept on disk at all).
      coldstart_strict = true;
    }
  }
  const bool ok = cnpb::Run(coldstart_strict);
  if (!metrics_out.empty()) {
    const cnpb::util::Status status = cnpb::obs::WriteMetricsFiles(
        cnpb::obs::MetricsRegistry::Global(), metrics_out);
    if (!status.ok()) {
      std::fprintf(stderr, "metrics export failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::printf("\nmetrics written to %s.prom and %s.json\n",
                metrics_out.c_str(), metrics_out.c_str());
  }
  return ok ? 0 : 1;
}
