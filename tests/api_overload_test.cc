// Graceful degradation of taxonomy::ApiService under overload and injected
// faults: in-flight shedding, per-query deadlines, injected query faults,
// and publish retry (DESIGN.md §8). Also pins every single-item query to
// its batch-of-one form: both run through one serving skeleton, so they
// must answer, stamp, count and fail alike.
#include "taxonomy/api_service.h"

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "taxonomy/taxonomy.h"
#include "util/fault_injection.h"
#include "util/status.h"

namespace cnpb::taxonomy {
namespace {

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().counter(name)->value();
}

Taxonomy MakeTaxonomy() {
  Taxonomy t;
  for (int i = 0; i < 8; ++i) {
    t.AddIsa("e" + std::to_string(i), "concept" + std::to_string(i % 2),
             Source::kTag, 0.9f);
  }
  return t;
}

// One mention, "m", naming e0.
ApiService::MentionIndex MakeIndex(const Taxonomy& t) {
  return {{"m", {t.Find("e0")}}};
}

// The six query entry points, each asked for one item; returns their status.
std::vector<std::function<util::Status()>> EntryPoints(const ApiService& api) {
  static const std::vector<std::string> kMention = {"m"};
  static const std::vector<std::string> kEntity = {"e0"};
  static const std::vector<std::string> kConcept = {"concept0"};
  return {
      [&api] { return api.TryMen2EntResolved("m").status(); },
      [&api] { return api.TryGetConceptResolved("e0").status(); },
      [&api] { return api.TryGetEntityResolved("concept0").status(); },
      [&api] { return api.TryMen2EntBatchResolved(kMention).status(); },
      [&api] { return api.TryGetConceptBatchResolved(kEntity).status(); },
      [&api] { return api.TryGetEntityBatchResolved(kConcept).status(); },
  };
}

// usage().total() and the served version's AllVersionStats().queries.
std::pair<uint64_t, uint64_t> Counts(const ApiService& api) {
  return {api.usage().total(), api.AllVersionStats().back().queries};
}

TEST(ApiOverloadTest, NoLimitsMeansNoShedding) {
  const Taxonomy taxonomy = MakeTaxonomy();
  ApiService api(util::UnownedSnapshot(&taxonomy), MakeIndex(taxonomy));
  const ApiService::ServingLimits defaults = api.serving_limits();
  EXPECT_EQ(defaults.max_in_flight, 0u);
  EXPECT_EQ(defaults.deadline.count(), 0);

  auto entities = api.TryMen2EntResolved("m");
  ASSERT_TRUE(entities.ok());
  EXPECT_EQ(entities->entities.size(), 1u);
  auto concepts = api.TryGetConceptResolved("e0");
  ASSERT_TRUE(concepts.ok());
  EXPECT_EQ(concepts->names.size(), 1u);
  auto hyponyms = api.TryGetEntityResolved("concept0");
  ASSERT_TRUE(hyponyms.ok());
  EXPECT_EQ(hyponyms->names.size(), 4u);
}

TEST(ApiOverloadTest, InFlightCapShedsConcurrentQueries) {
  const Taxonomy taxonomy = MakeTaxonomy();
  ApiService api(util::UnownedSnapshot(&taxonomy));
  ApiService::ServingLimits limits;
  limits.max_in_flight = 1;
  api.SetServingLimits(limits);
  EXPECT_EQ(api.serving_limits().max_in_flight, 1u);

  // Make every admitted query hold its in-flight slot for ~2ms so that two
  // threads querying in lockstep must collide on the single slot.
  util::ScopedFaultInjection scoped("api.query=1:delay=2", 3);
  const uint64_t shed_before = CounterValue("api.shed");
  std::atomic<int> resource_exhausted{0};
  std::atomic<int> ok{0};
  constexpr int kPerThread = 25;
  std::vector<std::thread> workers;
  for (int w = 0; w < 2; ++w) {
    workers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        auto result = api.TryGetEntityResolved("concept0");
        if (result.ok()) {
          ++ok;
        } else if (result.status().code() ==
                   util::StatusCode::kResourceExhausted) {
          ++resource_exhausted;
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();

  // Both outcomes occur: some queries won the slot, overlapping ones shed.
  EXPECT_GT(ok.load(), 0);
  EXPECT_GT(resource_exhausted.load(), 0);
  EXPECT_GE(CounterValue("api.shed") - shed_before,
            static_cast<uint64_t>(resource_exhausted.load()));

  // The gauge drains: with the limit still armed, a lone query is admitted.
  EXPECT_TRUE(api.TryGetEntityResolved("concept0").ok());
}

TEST(ApiOverloadTest, DeadlineExceededWhenQueryRunsLong) {
  const Taxonomy taxonomy = MakeTaxonomy();
  ApiService api(util::UnownedSnapshot(&taxonomy));
  ApiService::ServingLimits limits;
  limits.deadline = std::chrono::microseconds(500);
  api.SetServingLimits(limits);

  // An injected 5ms stall makes every query overshoot the 0.5ms budget.
  util::ScopedFaultInjection scoped("api.query=1:delay=5", 3);
  const uint64_t exceeded_before = CounterValue("api.deadline_exceeded");
  auto result = api.TryGetConceptResolved("e0");
  EXPECT_EQ(result.status().code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_GT(CounterValue("api.deadline_exceeded"), exceeded_before);

  // Without the stall the same budget is ample.
  util::FaultInjector::Global().Clear();
  EXPECT_TRUE(api.TryGetConceptResolved("e0").ok());
}

TEST(ApiOverloadTest, InjectedQueryFaultSurfacesOnEveryApi) {
  const Taxonomy taxonomy = MakeTaxonomy();
  ApiService api(util::UnownedSnapshot(&taxonomy), MakeIndex(taxonomy));

  // Every entry point surfaces the injected error instead of masking it.
  util::ScopedFaultInjection scoped("api.query=1", 3);
  for (const auto& query : EntryPoints(api)) {
    EXPECT_EQ(query().code(), util::StatusCode::kIoError);
  }
}

TEST(ApiOverloadTest, PublishRetriesThroughInjectedContention) {
  auto frozen = Taxonomy::Freeze(MakeTaxonomy());
  ApiService api(frozen);

  // TryPublish is single-shot: it reports the contention.
  {
    util::ScopedFaultInjection scoped("api.publish=1:limit=1", 5);
    auto attempt = api.TryPublish(frozen, {});
    EXPECT_EQ(attempt.status().code(),
              util::StatusCode::kResourceExhausted);
  }

  // Publish retries through a bounded burst of failures and lands the
  // version; the retries are visible in the counter.
  const uint64_t retries_before = CounterValue("api.publish.retries");
  const uint64_t version_before = api.version();
  {
    util::ScopedFaultInjection scoped("api.publish=1:limit=3", 5);
    const uint64_t version = api.Publish(frozen, {});
    EXPECT_EQ(version, version_before + 1);
  }
  EXPECT_EQ(CounterValue("api.publish.retries") - retries_before, 3u);
  EXPECT_TRUE(api.TryGetEntityResolved("concept0").ok());
}

TEST(ApiOverloadTest, LimitsCanBeClearedLive) {
  const Taxonomy taxonomy = MakeTaxonomy();
  ApiService api(util::UnownedSnapshot(&taxonomy));
  ApiService::ServingLimits limits;
  limits.max_in_flight = 4;
  limits.deadline = std::chrono::microseconds(100000);
  api.SetServingLimits(limits);
  EXPECT_TRUE(api.TryGetConceptResolved("e0").ok());
  api.SetServingLimits(ApiService::ServingLimits{});
  EXPECT_EQ(api.serving_limits().max_in_flight, 0u);
  EXPECT_EQ(api.serving_limits().deadline.count(), 0);
  EXPECT_TRUE(api.TryGetConceptResolved("e0").ok());
}

TEST(ApiQueryPathTest, SingleQueryEqualsBatchOfOne) {
  auto frozen = Taxonomy::Freeze(MakeTaxonomy());
  ApiService api(frozen, MakeIndex(*frozen));
  api.Publish(frozen, MakeIndex(*frozen));  // answers carry version 2

  // Runs `query` and expects it charged as exactly one call in usage() and
  // one query on the pinned version.
  const auto charged_once = [&api](const auto& query) {
    const auto before = Counts(api);
    auto result = query();
    const auto after = Counts(api);
    EXPECT_EQ(after.first - before.first, 1u);
    EXPECT_EQ(after.second - before.second, 1u);
    return result;
  };

  for (const std::string mention : {"m", "unknown"}) {
    SCOPED_TRACE(mention);
    const auto single =
        charged_once([&] { return api.TryMen2EntResolved(mention); });
    const auto batch =
        charged_once([&] { return api.TryMen2EntBatchResolved({mention}); });
    ASSERT_TRUE(single.ok());
    ASSERT_TRUE(batch.ok());
    EXPECT_EQ(single->version, 2u);
    EXPECT_EQ(batch->version, single->version);
    ASSERT_EQ(batch->results.size(), 1u);
    const auto& items = batch->results[0];
    ASSERT_EQ(items.size(), single->entities.size());
    for (size_t i = 0; i < items.size(); ++i) {
      EXPECT_EQ(items[i].id, single->entities[i].id);
      EXPECT_EQ(items[i].name, single->entities[i].name);
      EXPECT_EQ(items[i].num_hypernyms, single->entities[i].num_hypernyms);
    }
  }
  EXPECT_EQ(api.usage().men2ent_calls, 4u);

  // Expects `single` (one NamesResolved) to equal the only item of `batch`.
  const auto expect_same = [](const auto& single, const auto& batch) {
    ASSERT_TRUE(single.ok());
    ASSERT_TRUE(batch.ok());
    EXPECT_EQ(single->version, 2u);
    EXPECT_EQ(batch->version, single->version);
    ASSERT_EQ(batch->results.size(), 1u);
    EXPECT_EQ(batch->results[0], single->names);
  };
  for (const std::string entity : {"e0", "concept0", "unknown"}) {
    for (const bool transitive : {false, true}) {
      SCOPED_TRACE(entity + (transitive ? " transitive" : ""));
      expect_same(charged_once([&] {
                    return api.TryGetConceptResolved(entity, transitive);
                  }),
                  charged_once([&] {
                    return api.TryGetConceptBatchResolved({entity},
                                                          transitive);
                  }));
    }
  }
  EXPECT_EQ(api.usage().get_concept_calls, 12u);
  for (const std::string concept_name : {"concept0", "e0", "unknown"}) {
    for (const size_t limit : {size_t{2}, size_t{100}}) {
      SCOPED_TRACE(concept_name + " limit " + std::to_string(limit));
      expect_same(charged_once([&] {
                    return api.TryGetEntityResolved(concept_name, limit);
                  }),
                  charged_once([&] {
                    return api.TryGetEntityBatchResolved({concept_name},
                                                         limit);
                  }));
    }
  }
  EXPECT_EQ(api.usage().get_entity_calls, 12u);
}

TEST(ApiQueryPathTest, SingleAndBatchAreShedAlike) {
  const Taxonomy taxonomy = MakeTaxonomy();
  ApiService api(util::UnownedSnapshot(&taxonomy), MakeIndex(taxonomy));
  ApiService::ServingLimits limits;
  limits.max_in_flight = 1;
  api.SetServingLimits(limits);

  // Hold the only in-flight slot with a query that blocks until released.
  std::promise<void> admitted;
  std::promise<void> release;
  std::thread holder([&] {
    (void)api.TryQuery("holder", [&](const ServingView&, uint64_t) {
      admitted.set_value();
      release.get_future().wait();
      return util::Status::Ok();
    });
  });
  admitted.get_future().wait();

  const uint64_t shed_before = CounterValue("api.shed");
  const auto before = Counts(api);
  const auto queries = EntryPoints(api);
  for (const auto& query : queries) {
    EXPECT_EQ(query().code(), util::StatusCode::kResourceExhausted);
  }
  const auto after = Counts(api);
  EXPECT_EQ(CounterValue("api.shed") - shed_before, queries.size());
  // A shed call still counts as a call, but never pins a version.
  EXPECT_EQ(after.first - before.first, queries.size());
  EXPECT_EQ(after.second, before.second);

  release.set_value();
  holder.join();
  for (const auto& query : queries) EXPECT_TRUE(query().ok());
}

TEST(ApiQueryPathTest, SingleAndBatchMissDeadlinesAlike) {
  const Taxonomy taxonomy = MakeTaxonomy();
  ApiService api(util::UnownedSnapshot(&taxonomy), MakeIndex(taxonomy));
  ApiService::ServingLimits limits;
  limits.deadline = std::chrono::microseconds(500);
  api.SetServingLimits(limits);

  // A 5ms stall between pin and resolve overshoots the 0.5ms budget.
  util::ScopedFaultInjection scoped("api.resolve=1:delay=5", 3);
  const uint64_t exceeded_before = CounterValue("api.deadline_exceeded");
  const auto before = Counts(api);
  const auto queries = EntryPoints(api);
  for (const auto& query : queries) {
    EXPECT_EQ(query().code(), util::StatusCode::kDeadlineExceeded);
  }
  const auto after = Counts(api);
  EXPECT_EQ(CounterValue("api.deadline_exceeded") - exceeded_before,
            queries.size());
  // Each query was admitted and pinned once before its budget ran out.
  EXPECT_EQ(after.first - before.first, queries.size());
  EXPECT_EQ(after.second - before.second, queries.size());
}

}  // namespace
}  // namespace cnpb::taxonomy
