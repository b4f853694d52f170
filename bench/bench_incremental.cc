// Never-ending maintenance (deployment angle, §V): per-batch update cost of
// the incremental updater vs. full rebuilds, at stable precision — while the
// ApiService keeps serving queries. CN-Probase sits on CN-DBpedia, a
// never-ending extraction system: batches of new pages arrive continuously
// and the paper's deployment answers 82M API calls concurrently, so batches
// here are applied and published under reader load (RCU snapshot serving).
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/incremental.h"
#include "ingest/daemon.h"
#include "ingest/wal.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "taxonomy/api_service.h"
#include "util/histogram.h"
#include "util/timer.h"

namespace cnpb {
namespace {

constexpr int kReaders = 4;

struct ReaderState {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn{0};
  std::atomic<uint64_t> probes{0};
  // expected direct-hypernym count of the probe per version; -1 = unknown.
  std::vector<std::atomic<int64_t>> expected;
  explicit ReaderState(size_t max_versions) : expected(max_versions) {
    for (auto& e : expected) e.store(-1, std::memory_order_relaxed);
  }
};

// One reader: hammers the three APIs over the mention list, timing each
// call, and probes coherence — every answer must match the expected answer
// of the version it is stamped with.
void ReaderLoop(const taxonomy::ApiService& api,
                const std::vector<std::string>& mentions,
                const std::string& probe, ReaderState* state,
                util::Histogram* latencies_us) {
  size_t i = 0;
  while (!state->stop.load(std::memory_order_acquire)) {
    const std::string& mention = mentions[(i * 37) % mentions.size()];
    util::WallTimer timer;
    if (i % 3 == 0) {
      (void)api.TryMen2EntResolved(mention);
    } else if (i % 3 == 1) {
      (void)api.TryGetConceptResolved(mention);
    } else {
      (void)api.TryGetEntityResolved(mention, 20);
    }
    latencies_us->Add(timer.ElapsedSeconds() * 1e6);

    // The answer carries the version it was resolved against, so it can be
    // checked against that version's expectation directly.
    const auto probed = api.TryGetConceptResolved(probe);
    if (probed.ok() && probed->version < state->expected.size()) {
      const int64_t want =
          state->expected[probed->version].load(std::memory_order_acquire);
      if (want >= 0) {
        if (static_cast<int64_t>(probed->names.size()) != want) {
          state->torn.fetch_add(1, std::memory_order_relaxed);
        }
        state->probes.fetch_add(1, std::memory_order_relaxed);
      }
    }
    ++i;
  }
}

// The median of `values` (0 when empty).
double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid]
                           : (values[mid - 1] + values[mid]) / 2;
}

// What histogram `name` observed since `before` was taken.
obs::HistogramSnapshot ObservedSince(const obs::HistogramSnapshot& before,
                                     const char* name) {
  obs::HistogramSnapshot now =
      obs::MetricsRegistry::Global().histogram(name)->Snapshot();
  for (size_t i = 0; i < now.buckets.size(); ++i) {
    now.buckets[i] -= before.buckets[i];
  }
  now.count -= before.count;
  now.sum -= before.sum;
  return now;
}

double P50(const obs::HistogramSnapshot& snapshot) {
  return snapshot.TotalCount() ? snapshot.Percentile(50) : 0.0;
}

// -- ingest daemon phase: the WAL-backed streaming path (DESIGN.md §13) --
//
// Feeds the stream pages through the IngestDaemon (durable acks, scheduled
// apply, bounded-lag publish) in 32-page chunks, each flushed — applied
// and published — before the next is sent, as a live stream arrives
// (perfbench's ingest_churn posts 32 pages per 100 ms); a single publish
// of the whole stream would always fold. Then it measures crash recovery
// twice on the same WAL: once replaying the full log (no cursor) and once
// after a compaction bounded it to the suffix. Results land in
// bench.ingest.* gauges so --metrics-out ships them in the CI JSON
// artifact. Returns false when one of its two count gates fails: with
// verification off every batch must apply in place (0 full rebuilds), and
// no publish that layered over a fold may lay out more than
// IncrementalUpdater::kFoldFraction of that fold's bytes. A phase that
// cannot run or aborts fails no gate.
bool RunIngestPhase(const bench::BenchWorld& world,
                    const kb::EncyclopediaDump& base,
                    const std::vector<kb::EncyclopediaPage>& stream,
                    core::CnProbaseBuilder::Config config) {
  std::printf("\n-- ingest daemon: WAL-backed streaming updates --\n");
  // Streamed pages carry explicit relations and ship no corpus evidence;
  // the daemon applies without the statistical verifier (as
  // `cnprobase_serve --ingest` does).
  config.enable_verification = false;

  const std::string wal_dir = "bench_ingest_wal";
  if (auto segments = ingest::ListWalSegments(wal_dir); segments.ok()) {
    for (const auto& segment : *segments) std::remove(segment.path.c_str());
  }
  std::remove((wal_dir + "/wal.cursor").c_str());
  ingest::PruneStaleCheckpoints(wal_dir, 0);

  ingest::IngestDaemon::Options options;
  options.wal_dir = wal_dir;
  // Each flushed chunk publishes as soon as it is applied, so the lag
  // measures the write path rather than the delay below.
  constexpr size_t kChunk = 32;
  options.publish_min_pages = kChunk;
  options.publish_max_delay = std::chrono::milliseconds(25);
  options.batch_max_pages = 128;
  options.compact_every_records = 0;  // manual: we time both recovery shapes

  double feed_seconds = 0.0, full_replay_seconds = 0.0;
  uint64_t full_replay_records = 0, publishes = 0, rebuilds = 0, folds = 0;
  double max_layer_share = 0.0;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const obs::HistogramSnapshot megabytes_before =
      registry.histogram("incremental.publish.megabytes")->Snapshot();
  const obs::HistogramSnapshot layer_before =
      registry.histogram("incremental.publish.layer_seconds")->Snapshot();
  {
    core::IncrementalUpdater updater(base, &world.world->lexicon(),
                                     world.corpus_words, config);
    taxonomy::ApiService api(updater.snapshot());
    ingest::IngestDaemon daemon(&updater, &api, options);
    if (const util::Status status = daemon.Start(); !status.ok()) {
      std::printf("ingest phase skipped: %s\n", status.ToString().c_str());
      return true;
    }
    util::WallTimer feed_timer;
    for (size_t i = 0; i < stream.size(); i += kChunk) {
      const size_t end = std::min(i + kChunk, stream.size());
      std::vector<kb::EncyclopediaPage> chunk(stream.begin() + i,
                                              stream.begin() + end);
      if (!daemon.SubmitBatch(chunk).ok()) {
        std::printf("ingest phase aborted: submit failed\n");
        return true;
      }
      if (!daemon.Flush().ok()) {
        std::printf("ingest phase aborted: flush failed\n");
        return true;
      }
    }
    feed_seconds = feed_timer.ElapsedSeconds();
    publishes = daemon.stats().publishes;
    // Crash-stop: no drain, no cursor — the next boot replays everything.
    (void)daemon.Stop(ingest::IngestDaemon::StopMode::kAbort);
    rebuilds += updater.rebuilds();
    folds = updater.folds();
    max_layer_share = updater.max_layer_share();
  }
  const obs::HistogramSnapshot laid_out =
      ObservedSince(megabytes_before, "incremental.publish.megabytes");
  const double publish_bytes_p50 = P50(laid_out) * 1e6;
  const obs::HistogramSnapshot layered =
      ObservedSince(layer_before, "incremental.publish.layer_seconds");
  const double pages_per_sec =
      feed_seconds > 0 ? stream.size() / feed_seconds : 0.0;

  const auto lag =
      registry.histogram("ingest.publish.lag_seconds")->Snapshot();
  const double lag_p50_ms =
      lag.TotalCount() ? lag.Percentile(50) * 1e3 : 0.0;
  const double lag_p99_ms =
      lag.TotalCount() ? lag.Percentile(99) * 1e3 : 0.0;
  std::printf("sustained ingest: %zu pages in %.2fs = %.0f pages/s "
              "(%llu publishes)\n",
              stream.size(), feed_seconds, pages_per_sec,
              static_cast<unsigned long long>(publishes));
  std::printf("publish lag (ack -> served): p50 %.1fms, p99 %.1fms over "
              "%llu pages\n",
              lag_p50_ms, lag_p99_ms,
              static_cast<unsigned long long>(lag.TotalCount()));
  const bool layers_bounded =
      max_layer_share <= core::IncrementalUpdater::kFoldFraction;
  std::printf("publish layout: %llu of %llu publishes folded; p50 %.1f KB "
              "laid out per publish, layered encode p50 %.3fms over %llu; "
              "largest delta %.1f%% of its base%s\n",
              static_cast<unsigned long long>(folds),
              static_cast<unsigned long long>(laid_out.TotalCount()),
              publish_bytes_p50 / 1e3, P50(layered) * 1e3,
              static_cast<unsigned long long>(layered.TotalCount()),
              100.0 * max_layer_share,
              layers_bounded ? " (within the fold bound, as required)"
                             : " ** LAYERED PUBLISH PAST THE FOLD BOUND **");

  // Recovery 1: full-WAL replay (the crash left no cursor), then compact
  // and drain so the next boot starts from the checkpoint.
  {
    core::IncrementalUpdater updater(base, &world.world->lexicon(),
                                     world.corpus_words, config);
    ingest::IngestDaemon daemon(&updater, nullptr, options);
    util::WallTimer recovery_timer;
    if (const util::Status status = daemon.Start(); !status.ok()) {
      std::printf("ingest phase aborted: recovery failed: %s\n",
                  status.ToString().c_str());
      return true;
    }
    full_replay_seconds = recovery_timer.ElapsedSeconds();
    full_replay_records = daemon.recovery_report().records_delivered;
    (void)daemon.CompactNow();
    (void)daemon.Stop(ingest::IngestDaemon::StopMode::kDrain);
    rebuilds += updater.rebuilds();
  }

  // Recovery 2: bounded replay past the compaction cursor.
  double bounded_replay_seconds = 0.0;
  uint64_t bounded_replay_records = 0;
  {
    core::IncrementalUpdater updater(base, &world.world->lexicon(),
                                     world.corpus_words, config);
    ingest::IngestDaemon daemon(&updater, nullptr, options);
    util::WallTimer recovery_timer;
    if (const util::Status status = daemon.Start(); !status.ok()) {
      std::printf("ingest phase aborted: bounded recovery failed: %s\n",
                  status.ToString().c_str());
      return true;
    }
    bounded_replay_seconds = recovery_timer.ElapsedSeconds();
    bounded_replay_records = daemon.recovery_report().records_delivered;
    (void)daemon.Stop(ingest::IngestDaemon::StopMode::kDrain);
    rebuilds += updater.rebuilds();
  }
  std::printf("recovery replay: full WAL %llu records in %.2fs; after "
              "compaction %llu records in %.2fs%s\n",
              static_cast<unsigned long long>(full_replay_records),
              full_replay_seconds,
              static_cast<unsigned long long>(bounded_replay_records),
              bounded_replay_seconds,
              bounded_replay_records < full_replay_records
                  ? " (bounded, as required)"
                  : " ** REPLAY NOT BOUNDED **");
  std::printf("full rebuilds during ingest: %llu%s\n",
              static_cast<unsigned long long>(rebuilds),
              rebuilds == 0 ? " (every batch applied in place, as required)"
                            : " ** O(N) REBUILDS ON THE INGEST PATH **");

  registry.gauge("bench.ingest.pages_per_sec")->Set(pages_per_sec);
  registry.gauge("bench.ingest.publish_lag_p50_ms")->Set(lag_p50_ms);
  registry.gauge("bench.ingest.publish_lag_p99_ms")->Set(lag_p99_ms);
  registry.gauge("bench.ingest.replay_full_seconds")->Set(full_replay_seconds);
  registry.gauge("bench.ingest.replay_full_records")
      ->Set(static_cast<double>(full_replay_records));
  registry.gauge("bench.ingest.replay_compacted_seconds")
      ->Set(bounded_replay_seconds);
  registry.gauge("bench.ingest.replay_compacted_records")
      ->Set(static_cast<double>(bounded_replay_records));
  registry.gauge("bench.ingest.rebuilds")->Set(static_cast<double>(rebuilds));
  registry.gauge("bench.ingest.publish_folds")
      ->Set(static_cast<double>(folds));
  registry.gauge("bench.ingest.publish_bytes_p50")->Set(publish_bytes_p50);
  registry.gauge("bench.ingest.layer_encode_p50_ms")->Set(P50(layered) * 1e3);
  registry.gauge("bench.ingest.max_layer_share")->Set(max_layer_share);
  return rebuilds == 0 && layers_bounded;
}

// Returns false when a gate of the run failed.
bool Run() {
  bench::PrintHeader("Incremental",
                     "never-ending maintenance, served while updating");
  auto world = bench::MakeBenchWorld(bench::BenchScale());
  const eval::Oracle oracle = world->Oracle();
  const auto config = bench::DefaultBuilderConfig();

  // Base = 70% of pages; the rest arrives in 3 equal batches.
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

  util::WallTimer timer;
  core::IncrementalUpdater updater(base, &world->world->lexicon(),
                                   world->corpus_words, config);
  const double base_seconds = timer.ElapsedSeconds();
  std::printf("\nbase build: %zu pages -> %zu isA in %.1fs (precision %.1f%%)\n",
              base.size(), updater.taxonomy().num_edges(), base_seconds,
              100.0 * eval::ExactPrecision(updater.taxonomy(), oracle)
                          .precision());

  // Probe entity for the coherence check: a base page with hypernyms.
  std::string probe;
  for (const auto& page : base.pages()) {
    const taxonomy::NodeId id = updater.taxonomy().Find(page.name);
    if (id != taxonomy::kInvalidNode &&
        !updater.taxonomy().Hypernyms(id).empty()) {
      probe = page.name;
      break;
    }
  }
  std::vector<std::string> mentions;
  for (const auto& page : base.pages()) mentions.push_back(page.mention);

  // -- serve-while-updating: readers hammer the service across publishes --
  taxonomy::ApiService api(updater.snapshot());
  ReaderState state(batches.size() + 3);
  auto expect_for = [&](uint64_t version) {
    const taxonomy::NodeId id = updater.taxonomy().Find(probe);
    const int64_t count =
        id == taxonomy::kInvalidNode
            ? 0
            : static_cast<int64_t>(updater.taxonomy().Hypernyms(id).size());
    if (version < state.expected.size()) {
      state.expected[version].store(count, std::memory_order_release);
    }
  };
  uint64_t version = updater.Publish(&api);
  expect_for(version);
  std::vector<double> publish_at = {0.0};  // seconds since readers started

  std::vector<util::Histogram> latencies(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  util::WallTimer serve_timer;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back(ReaderLoop, std::cref(api), std::cref(mentions),
                         std::cref(probe), &state, &latencies[r]);
  }

  std::printf("\n%6s %8s %12s %9s %9s %8s %8s %10s\n", "batch", "pages",
              "candidates", "accepted", "rejected", "revoked", "secs",
              "precision");
  std::vector<double> batch_seconds;
  for (size_t b = 0; b < batches.size(); ++b) {
    const auto report = updater.ApplyBatch(batches[b]);
    version = updater.Publish(&api);
    expect_for(version);
    publish_at.push_back(serve_timer.ElapsedSeconds());
    batch_seconds.push_back(report.seconds);
    std::printf("%6zu %8zu %12zu %9zu %9zu %8zu %8.2f %9.1f%%\n", b + 1,
                report.pages_added, report.candidates, report.accepted,
                report.rejected, report.revoked, report.seconds,
                100.0 * eval::ExactPrecision(updater.taxonomy(), oracle)
                            .precision());
  }
  state.stop.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  const double serve_seconds = serve_timer.ElapsedSeconds();
  publish_at.push_back(serve_seconds);

  // Per-batch cost must not grow with batch index: the verification corpus
  // statistics are maintained incrementally, never re-fed from scratch.
  // Medians over each half of the batches (an odd count puts the middle
  // batch in both), so one slow batch does not decide the verdict.
  const size_t half = (batch_seconds.size() + 1) / 2;
  const double early = Median(std::vector<double>(
      batch_seconds.begin(), batch_seconds.begin() + half));
  const double late = Median(std::vector<double>(
      batch_seconds.end() - half, batch_seconds.end()));
  const double growth = early > 0.0 ? late / early : 0.0;
  std::printf("\nper-batch cost growth (median of batches %zu-%zu / median "
              "of batches 1-%zu): %.2fx %s\n",
              batch_seconds.size() - half + 1, batch_seconds.size(), half,
              growth,
              growth < 2.0 ? "(flat: O(delta) verification stats)"
                           : "** GROWING: batch cost scales with corpus **");

  double worst_p99 = 0.0, p50_sum = 0.0;
  uint64_t total_calls = 0;
  for (const util::Histogram& h : latencies) {
    worst_p99 = std::max(worst_p99, h.Percentile(99));
    p50_sum += h.Percentile(50);
    total_calls += h.count();
  }
  std::printf("\nserved %llu calls from %d readers across %zu published "
              "versions in %.2fs\n",
              static_cast<unsigned long long>(total_calls), kReaders,
              publish_at.size() - 1, serve_seconds);
  std::printf("query latency: p50 %.1fus (reader avg), worst-reader p99 "
              "%.1fus; coherence probes %llu, torn reads %llu%s\n",
              p50_sum / kReaders, worst_p99,
              static_cast<unsigned long long>(state.probes.load()),
              static_cast<unsigned long long>(state.torn.load()),
              state.torn.load() == 0 ? " (zero, as required)"
                                     : " ** TORN READS **");

  std::printf("\n%8s %10s %10s %10s %12s %10s\n", "version", "isA",
              "mentions", "queries", "window (s)", "QPS");
  const auto stats = api.AllVersionStats();
  for (size_t v = 0; v < stats.size(); ++v) {
    // stats[0] is the ctor's version, retired before readers started; the
    // updater's publishes map to consecutive publish_at intervals.
    const double window = v >= 1 && v < publish_at.size()
                              ? publish_at[v] - publish_at[v - 1]
                              : 0.0;
    std::printf("%8llu %10zu %10zu %10llu %12.2f %10.0f\n",
                static_cast<unsigned long long>(stats[v].version),
                stats[v].num_edges, stats[v].num_mentions,
                static_cast<unsigned long long>(stats[v].queries), window,
                window > 0 ? stats[v].queries / window : 0.0);
  }

  timer.Restart();
  core::CnProbaseBuilder::Report full_report;
  const auto full = core::CnProbaseBuilder::Build(
      world->output->dump, world->world->lexicon(), world->corpus_words,
      config, &full_report);
  const double full_seconds = timer.ElapsedSeconds();
  std::printf("\nfull rebuild of all %zu pages: %zu isA in %.1fs "
              "(precision %.1f%%)\n",
              world->output->dump.size(), full.num_edges(), full_seconds,
              100.0 * eval::ExactPrecision(full, oracle).precision());
  std::printf("\nshape check: batches cost a small fraction of a rebuild and "
              "stay flat across\nbatch index (verification stats maintained "
              "incrementally); queries keep\nflowing during publishes with "
              "zero torn reads, each attributed to exactly one\npublished "
              "version.\n");

  // Same stream, this time through the crash-safe WAL-backed daemon.
  std::vector<kb::EncyclopediaPage> stream;
  for (const auto& batch : batches) {
    stream.insert(stream.end(), batch.begin(), batch.end());
  }
  return RunIngestPhase(*world, base, stream, config);
}

}  // namespace
}  // namespace cnpb

int main(int argc, char** argv) {
  std::string metrics_out;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--metrics-out" && i + 1 < argc) {
      metrics_out = argv[++i];
    }
  }
  const bool ok = cnpb::Run();
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
