// Concurrency contract of taxonomy::ApiService: N reader threads hammer
// men2ent/getConcept/getEntity, and every issued call must be counted
// exactly once (the seed implementation lost updates on its plain uint64
// counters — run under -fsanitize=thread to prove the fix).
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "taxonomy/api_service.h"
#include "taxonomy/taxonomy.h"

namespace cnpb::taxonomy {
namespace {

// A small star-shaped taxonomy: kNumEntities entities under a handful of
// concepts, entity i named "e<i>", indexed under mention "m<i%kMentions>"
// so several entities share each surface form.
constexpr size_t kNumEntities = 64;
constexpr size_t kNumMentions = 16;

Taxonomy MakeTaxonomy() {
  Taxonomy t;
  for (size_t i = 0; i < kNumEntities; ++i) {
    t.AddIsa("e" + std::to_string(i), "concept" + std::to_string(i % 4),
             Source::kTag, 0.9f);
    if (i % 2 == 0) {
      t.AddIsa("e" + std::to_string(i), "concept_extra", Source::kBracket,
               0.96f);
    }
  }
  return t;
}

TEST(ApiServiceConcurrencyTest, CountersAreExactUnderContention) {
  const Taxonomy taxonomy = MakeTaxonomy();
  ApiService::MentionIndex index;
  for (size_t i = 0; i < kNumEntities; ++i) {
    index["m" + std::to_string(i % kNumMentions)].push_back(
        taxonomy.Find("e" + std::to_string(i)));
  }
  ApiService api(util::UnownedSnapshot(&taxonomy), std::move(index));

  constexpr int kThreads = 8;
  constexpr size_t kCallsPerKind = 400;  // per thread, per API
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&api, w]() {
      for (size_t i = 0; i < kCallsPerKind; ++i) {
        const std::string mention =
            "m" + std::to_string((i + static_cast<size_t>(w)) % kNumMentions);
        const std::string entity =
            "e" + std::to_string((i * 7 + static_cast<size_t>(w)) %
                                 kNumEntities);
        (void)api.TryMen2EntResolved(mention);
        (void)api.TryGetConceptResolved(entity);
        (void)api.TryGetEntityResolved("concept" + std::to_string(i % 4), 10);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  // The lost-update bug made these counts fall short; with relaxed atomics
  // they are exact.
  const ApiService::UsageStats usage = api.usage();
  EXPECT_EQ(usage.men2ent_calls, kThreads * kCallsPerKind);
  EXPECT_EQ(usage.get_concept_calls, kThreads * kCallsPerKind);
  EXPECT_EQ(usage.get_entity_calls, kThreads * kCallsPerKind);
  EXPECT_EQ(usage.total(), 3u * kThreads * kCallsPerKind);
}

}  // namespace
}  // namespace cnpb::taxonomy
