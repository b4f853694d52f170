// Reproduces Table II: the three deployed APIs (men2ent / getConcept /
// getEntity) and their call mix. The paper reports six months of Aliyun
// traffic (82M calls); we replay a scaled-down workload with the same mix
// (men2ent-heavy: mention disambiguation is the entry point of most text-
// understanding clients, then getEntity for concept expansion).
//
// Default mode replays in-process against the ApiService. `--live` replays
// the same mix as HTTP requests against a real loopback HttpServer instead
// — the deployed shape of Table II — with `--live-calls N` (default
// 40,000) controlling the scaled call count. `--batch K` (implies --live)
// groups the same mix into the /v1/*_batch endpoints at K items per
// request: the logical call counts and the mix stay identical, only the
// wire framing changes, which is exactly the amortization the batch APIs
// sell.
//
// `--reasoning` replaces the replay with the reasoning tier's mixed
// workload (DESIGN.md §14): 40% bounded isA closure at depth <= 4, 20%
// LCA, 20% similar-entity, 20% concept expansion, in-process through
// ReasonService, against a single-hop getConcept baseline measured on the
// same taxonomy. Acceptance (exit 1 on violation): isA closure p99 stays
// under 10x the single-hop getConcept p99. `--reasoning-calls N` (default
// 20,000) sizes both loops.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "bench/bench_common.h"
#include "reason/engine.h"
#include "reason/service.h"
#include "server/client.h"
#include "server/http.h"
#include "server/server.h"
#include "server/service.h"
#include "taxonomy/api_service.h"
#include "util/histogram.h"
#include "util/net.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/timer.h"

namespace cnpb {
namespace {

constexpr double kPMen2Ent = 43'896'044.0 / 83'504'492.0;
constexpr double kPGetConcept = 13'815'076.0 / 83'504'492.0;

struct QueryUniverse {
  std::vector<std::string> mentions;
  std::vector<std::string> entity_names;
  std::vector<std::string> concept_names;
};

QueryUniverse MakeUniverse(const bench::BenchWorld& world,
                           const taxonomy::Taxonomy& taxonomy) {
  QueryUniverse universe;
  for (const auto& page : world.output->dump.pages()) {
    if (taxonomy.Find(page.name) == taxonomy::kInvalidNode) continue;
    universe.mentions.push_back(page.mention);
    universe.entity_names.push_back(page.name);
  }
  for (taxonomy::NodeId id = 0; id < taxonomy.num_nodes(); ++id) {
    if (taxonomy.Kind(id) == taxonomy::NodeKind::kConcept) {
      universe.concept_names.push_back(taxonomy.Name(id));
    }
  }
  return universe;
}

void PrintUsageTable(const taxonomy::ApiService& api, double seconds,
                     size_t total_calls, size_t hits) {
  const auto& usage = api.usage();
  std::printf("\n%-12s %-28s %-22s %14s\n", "API name", "Given", "Return",
              "Count");
  std::printf("%-12s %-28s %-22s %14s\n", "men2ent", "mention", "entity",
              util::CommaSeparated(usage.men2ent_calls).c_str());
  std::printf("%-12s %-28s %-22s %14s\n", "getConcept", "entity",
              "hypernym list",
              util::CommaSeparated(usage.get_concept_calls).c_str());
  std::printf("%-12s %-28s %-22s %14s\n", "getEntity", "concept",
              "hyponym list",
              util::CommaSeparated(usage.get_entity_calls).c_str());
  std::printf("\ntotal %s calls in %.2fs (%.0f calls/s), %.1f%% non-empty\n",
              util::CommaSeparated(usage.total()).c_str(), seconds,
              usage.total() / seconds, 100.0 * hits / total_calls);
  std::printf("\npaper reference (Mar-Sep 2018 on Aliyun):\n");
  std::printf("  men2ent    43,896,044\n  getConcept 13,815,076\n"
              "  getEntity  25,793,372\n");
  std::printf("shape check: men2ent > getEntity > getConcept mix is "
              "preserved at scale.\n");
}

void RunInProcess(taxonomy::ApiService* api, const QueryUniverse& universe) {
  const size_t total_calls = 834'000;  // 1:100 scale of the paper's traffic
  util::Rng rng(2018);
  util::ZipfSampler mention_zipf(universe.mentions.size(), 1.0);
  util::ZipfSampler entity_zipf(universe.entity_names.size(), 1.0);
  util::ZipfSampler concept_zipf(universe.concept_names.size(), 1.0);

  util::WallTimer timer;
  size_t hits = 0;
  for (size_t i = 0; i < total_calls; ++i) {
    const double u = rng.UniformDouble();
    if (u < kPMen2Ent) {
      const auto r = api->TryMen2EntResolved(
          universe.mentions[mention_zipf.Sample(rng)]);
      hits += r.ok() && !r->entities.empty() ? 1 : 0;
    } else if (u < kPMen2Ent + kPGetConcept) {
      const auto r = api->TryGetConceptResolved(
          universe.entity_names[entity_zipf.Sample(rng)]);
      hits += r.ok() && !r->names.empty() ? 1 : 0;
    } else {
      const auto r = api->TryGetEntityResolved(
          universe.concept_names[concept_zipf.Sample(rng)]);
      hits += r.ok() && !r->names.empty() ? 1 : 0;
    }
  }
  PrintUsageTable(*api, timer.ElapsedSeconds(), total_calls, hits);
}

// Empty answer lists render as ":[]" — in a single-shot body there is at
// most one, in a batch body one per unanswered item.
size_t CountEmptyLists(const std::string& body) {
  size_t count = 0;
  for (size_t at = body.find(":[]"); at != std::string::npos;
       at = body.find(":[]", at + 3)) {
    ++count;
  }
  return count;
}

// --live: the same mix over the wire against a loopback HttpServer, split
// across 4 keep-alive connections. "Non-empty" here means HTTP 200 with a
// non-empty answer list (an unknown mention is a 404 by the wire contract).
// With `batch` > 1, calls are grouped into the batch endpoints at `batch`
// items per request, resolved against one pinned snapshot per request.
void RunLive(taxonomy::ApiService* api, const QueryUniverse& universe,
             size_t total_calls, size_t batch) {
  util::IgnoreSigpipe();
  server::ApiEndpoints endpoints(api);
  server::HttpServer::Config config;
  config.num_threads = 2;
  server::HttpServer httpd(config, endpoints.AsHandler());
  if (const util::Status status = httpd.Start(); !status.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 status.ToString().c_str());
    std::exit(1);
  }
  std::printf("\n--live: replaying over HTTP on 127.0.0.1:%u%s\n",
              unsigned{httpd.port()},
              batch > 1 ? " (batched)" : "");

  constexpr int kConnections = 4;
  std::atomic<size_t> hits{0};
  std::atomic<size_t> sent{0};
  util::WallTimer timer;
  std::vector<std::thread> drivers;
  for (int c = 0; c < kConnections; ++c) {
    drivers.emplace_back([&, c] {
      util::Rng rng(2018 + static_cast<uint64_t>(c));
      util::ZipfSampler mention_zipf(universe.mentions.size(), 1.0);
      util::ZipfSampler entity_zipf(universe.entity_names.size(), 1.0);
      util::ZipfSampler concept_zipf(universe.concept_names.size(), 1.0);
      server::HttpClient client;
      const size_t share = total_calls / kConnections;
      for (size_t i = 0; i < share;) {
        if (!client.connected() &&
            !client.Connect("127.0.0.1", httpd.port()).ok()) {
          ++i;
          continue;
        }
        // Pick the endpoint by the Table II mix, then frame either one
        // call (GET) or `batch` calls (POST, one term per line).
        const double u = rng.UniformDouble();
        const char* endpoint;
        const std::vector<std::string>* names;
        util::ZipfSampler* zipf;
        if (u < kPMen2Ent) {
          endpoint = "men2ent";
          names = &universe.mentions;
          zipf = &mention_zipf;
        } else if (u < kPMen2Ent + kPGetConcept) {
          endpoint = "getConcept";
          names = &universe.entity_names;
          zipf = &entity_zipf;
        } else {
          endpoint = "getEntity";
          names = &universe.concept_names;
          zipf = &concept_zipf;
        }
        if (batch > 1) {
          const size_t items = std::min(batch, share - i);
          std::string body;
          for (size_t k = 0; k < items; ++k) {
            body += (*names)[zipf->Sample(rng)];
            body += '\n';
          }
          auto response =
              client.Post("/v1/" + std::string(endpoint) + "_batch", body);
          i += items;
          if (!response.ok()) continue;
          sent += items;
          if (response->status == 200) {
            hits += items - std::min(items, CountEmptyLists(response->body));
          }
        } else {
          const char* param = u < kPMen2Ent ? "mention"
                              : u < kPMen2Ent + kPGetConcept ? "entity"
                                                             : "concept";
          const std::string target =
              "/v1/" + std::string(endpoint) + "?" + param + "=" +
              server::PercentEncode((*names)[zipf->Sample(rng)]);
          auto response = client.Get(target);
          ++i;
          if (!response.ok()) continue;
          ++sent;
          if (response->status == 200 &&
              response->body.find(":[]") == std::string::npos) {
            ++hits;
          }
        }
      }
    });
  }
  for (auto& driver : drivers) driver.join();
  const double seconds = timer.ElapsedSeconds();
  PrintUsageTable(*api, seconds, sent.load(), hits.load());
  httpd.Stop();
  httpd.Wait();
  const auto stats = httpd.stats();
  std::printf("wire: %llu requests over %llu connections, "
              "%llu parse errors\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.connections_accepted),
              static_cast<unsigned long long>(stats.parse_errors));
}

// --reasoning: the mixed reasoning workload against the same built
// taxonomy, in-process. The baseline is single-hop getConcept — the Table
// II call the isA closure generalises — timed per call on the same
// ApiService; the mixed loop then drives ReasonService so admission and
// snapshot pinning sit on the measured path, exactly as they do behind
// /v1/isa. Returns false when the isA closure p99 breaches 10x the
// single-hop p99.
bool RunReasoning(taxonomy::ApiService* api, const QueryUniverse& universe,
                  size_t calls) {
  constexpr size_t kIsaDepth = 4;
  constexpr size_t kTopK = 10;
  std::printf("\n--reasoning: %zu-call mixed workload "
              "(40%% isa@depth<=%zu, 20%% lca, 20%% similar, 20%% expand)\n",
              calls, kIsaDepth);
  if (universe.entity_names.empty() || universe.concept_names.empty()) {
    std::fprintf(stderr, "universe too small for the reasoning mix\n");
    return false;
  }

  // Precomputed isA pairs: half pair an entity with one of its own
  // ancestors (positives across the depth range), half with a Zipf-sampled
  // concept — mostly negatives, the closure's worst case, since the whole
  // depth-bounded cone is exhausted before answering false.
  const auto view = api->CurrentView();
  util::Rng rng(4242);
  util::ZipfSampler entity_zipf(universe.entity_names.size(), 1.0);
  util::ZipfSampler concept_zipf(universe.concept_names.size(), 1.0);
  struct IsaPair {
    const std::string* entity;
    std::string concept_name;
  };
  std::vector<IsaPair> pairs;
  size_t positives = 0;
  const size_t pair_target = std::min<size_t>(4096, std::max<size_t>(calls, 2));
  for (size_t attempt = 0;
       pairs.size() < pair_target && attempt < pair_target * 4; ++attempt) {
    const std::string& entity =
        universe.entity_names[entity_zipf.Sample(rng)];
    if (pairs.size() % 2 == 0) {
      const taxonomy::NodeId id = view->Find(entity);
      if (id == taxonomy::kInvalidNode) continue;
      const auto ancestors = reason::Ancestors(*view, id, kIsaDepth, 32);
      if (ancestors.empty()) continue;
      const auto& pick = ancestors[rng.Uniform(ancestors.size())];
      pairs.push_back({&entity, std::string(view->Name(pick.node))});
      ++positives;
    } else {
      pairs.push_back(
          {&entity, universe.concept_names[concept_zipf.Sample(rng)]});
    }
  }
  if (pairs.empty()) {
    std::fprintf(stderr, "no entity has an ancestor within depth %zu\n",
                 kIsaDepth);
    return false;
  }
  std::printf("isa pairs: %zu prepared (%zu with a known ancestor)\n",
              pairs.size(), positives);

  const auto now = [] { return std::chrono::steady_clock::now(); };
  const auto micros = [](std::chrono::steady_clock::time_point start,
                         std::chrono::steady_clock::time_point end) {
    return std::chrono::duration<double, std::micro>(end - start).count();
  };

  // Baseline: the single-hop lookup the closure generalises, same Zipf
  // skew, same admission path.
  util::Histogram base_us;
  size_t base_hits = 0;
  for (size_t i = 0; i < calls; ++i) {
    const std::string& entity =
        universe.entity_names[entity_zipf.Sample(rng)];
    const auto start = now();
    const auto r = api->TryGetConceptResolved(entity);
    base_hits += r.ok() && !r->names.empty() ? 1 : 0;
    base_us.Add(micros(start, now()));
  }

  reason::ReasonService reasoning(api);
  util::Histogram isa_us, lca_us, similar_us, expand_us;
  size_t isa_true = 0;
  size_t lca_found = 0;
  size_t ranked_nonempty = 0;
  size_t errors = 0;
  size_t pair_at = 0;
  for (size_t i = 0; i < calls; ++i) {
    const double u = rng.UniformDouble();
    if (u < 0.4) {
      const IsaPair& pair = pairs[pair_at++ % pairs.size()];
      const auto start = now();
      const auto result =
          reasoning.TryIsa(*pair.entity, pair.concept_name, kIsaDepth);
      isa_us.Add(micros(start, now()));
      if (!result.ok()) {
        ++errors;
      } else if (result->isa) {
        ++isa_true;
      }
    } else if (u < 0.6) {
      const std::string& a = universe.entity_names[entity_zipf.Sample(rng)];
      const std::string& b = universe.entity_names[entity_zipf.Sample(rng)];
      const auto start = now();
      const auto result = reasoning.TryLca(a, b, 2 * kIsaDepth);
      lca_us.Add(micros(start, now()));
      if (!result.ok()) {
        ++errors;
      } else if (result->found) {
        ++lca_found;
      }
    } else if (u < 0.8) {
      const std::string& entity =
          universe.entity_names[entity_zipf.Sample(rng)];
      const auto start = now();
      const auto result = reasoning.TrySimilar(entity, kTopK);
      similar_us.Add(micros(start, now()));
      if (!result.ok()) {
        ++errors;
      } else if (!result->results.empty()) {
        ++ranked_nonempty;
      }
    } else {
      const std::string& concept_name =
          universe.concept_names[concept_zipf.Sample(rng)];
      const auto start = now();
      const auto result = reasoning.TryExpand(concept_name, kTopK);
      expand_us.Add(micros(start, now()));
      if (!result.ok()) {
        ++errors;
      } else if (!result->results.empty()) {
        ++ranked_nonempty;
      }
    }
  }

  const auto row = [](const char* op, const util::Histogram& h,
                      const std::string& note) {
    std::printf("%-12s %10zu %12.2f %12.2f   %s\n", op, h.count(),
                h.count() ? h.Percentile(50) : 0.0,
                h.count() ? h.Percentile(99) : 0.0, note.c_str());
  };
  std::printf("\n%-12s %10s %12s %12s\n", "op", "calls", "p50 (us)",
              "p99 (us)");
  row("getConcept", base_us,
      std::to_string(base_hits) + " non-empty (single-hop baseline)");
  row("isa", isa_us, std::to_string(isa_true) + " reachable");
  row("lca", lca_us, std::to_string(lca_found) + " found");
  row("similar", similar_us, "");
  row("expand", expand_us, "");
  const auto& usage = reasoning.usage();
  std::printf("reason usage: isa %llu, lca %llu, similar %llu, expand %llu"
              " (%zu errors)\n",
              static_cast<unsigned long long>(usage.isa_calls),
              static_cast<unsigned long long>(usage.lca_calls),
              static_cast<unsigned long long>(usage.similar_calls),
              static_cast<unsigned long long>(usage.expand_calls), errors);

  const double base_p99 = base_us.count() ? base_us.Percentile(99) : 0.0;
  const double isa_p99 = isa_us.count() ? isa_us.Percentile(99) : 0.0;
  const double ratio = base_p99 > 0 ? isa_p99 / base_p99 : 0.0;
  const bool pass = base_us.count() > 0 && isa_us.count() > 0 &&
                    errors == 0 && isa_p99 < 10.0 * base_p99;
  std::printf("\nacceptance  %s (isA closure p99 %.2f us = %.2fx single-hop "
              "getConcept p99 %.2f us, limit 10x at depth <= %zu)\n",
              pass ? "PASS" : "FAIL", isa_p99, ratio, base_p99, kIsaDepth);
  return pass;
}

int Run(bool live, size_t live_calls, size_t batch, bool reasoning,
        size_t reasoning_calls) {
  bench::PrintHeader("Table II", "APIs and their usage");
  auto world = bench::MakeBenchWorld(bench::BenchScale());

  core::CnProbaseBuilder::Report report;
  const auto taxonomy = core::CnProbaseBuilder::Build(
      world->output->dump, world->world->lexicon(), world->corpus_words,
      bench::DefaultBuilderConfig(), &report);
  taxonomy::ApiService api(
      util::UnownedSnapshot(&taxonomy),
      core::CnProbaseBuilder::BuildMentionIndex(world->output->dump, taxonomy));

  const QueryUniverse universe = MakeUniverse(*world, taxonomy);
  if (reasoning) {
    return RunReasoning(&api, universe, reasoning_calls) ? 0 : 1;
  }
  if (live) {
    RunLive(&api, universe, live_calls, batch);
  } else {
    RunInProcess(&api, universe);
  }
  return 0;
}

}  // namespace
}  // namespace cnpb

int main(int argc, char** argv) {
  bool live = false;
  size_t live_calls = 40'000;
  size_t batch = 1;
  bool reasoning = false;
  size_t reasoning_calls = 20'000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--live") == 0) {
      live = true;
    } else if (std::strcmp(argv[i], "--live-calls") == 0 && i + 1 < argc) {
      live_calls = static_cast<size_t>(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--batch") == 0 && i + 1 < argc) {
      batch = static_cast<size_t>(std::max(1L, std::atol(argv[++i])));
      live = true;  // batching only exists on the wire
    } else if (std::strcmp(argv[i], "--reasoning") == 0) {
      reasoning = true;
    } else if (std::strcmp(argv[i], "--reasoning-calls") == 0 &&
               i + 1 < argc) {
      reasoning_calls =
          static_cast<size_t>(std::max(1L, std::atol(argv[++i])));
      reasoning = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--live] [--live-calls N] [--batch K]"
                   " [--reasoning] [--reasoning-calls N]\n",
                   argv[0]);
      return 2;
    }
  }
  return cnpb::Run(live, live_calls, batch, reasoning, reasoning_calls);
}
