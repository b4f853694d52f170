// End-to-end tests for the HTTP serving layer: real sockets over loopback,
// the wire contract of the three public endpoints (Table II), the
// status→HTTP mapping under overload and injected faults, graceful drain,
// and the SIGPIPE/early-close regression. The pure-parser corpus lives in
// http_parser_test.cc; multi-seed chaos in server_concurrency_test.cc.
#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "server/client.h"
#include "server/http.h"
#include "server/service.h"
#include "taxonomy/api_service.h"
#include "taxonomy/taxonomy.h"
#include "util/fault_injection.h"
#include "util/net.h"

namespace cnpb::server {
namespace {

using taxonomy::ApiService;
using taxonomy::Taxonomy;

Taxonomy MakeTaxonomy() {
  Taxonomy t;
  t.AddIsa("刘备", "君主", taxonomy::Source::kTag, 0.9f);
  t.AddIsa("刘备", "人物", taxonomy::Source::kTag, 0.8f);
  t.AddIsa("曹操", "君主", taxonomy::Source::kTag, 0.9f);
  t.AddIsa("君主", "人物", taxonomy::Source::kTag, 0.7f);
  for (int i = 0; i < 6; ++i) {
    t.AddIsa("entity" + std::to_string(i), "concept",
             taxonomy::Source::kTag, 0.5f);
  }
  return t;
}

// One live server over a hand-built taxonomy, torn down per test.
class ServerTest : public ::testing::Test {
 protected:
  void StartServer(HttpServer::Config config = {}) {
    taxonomy_ = std::make_unique<Taxonomy>(MakeTaxonomy());
    api_ = std::make_unique<ApiService>(
        util::UnownedSnapshot(taxonomy_.get()),
        ApiService::MentionIndex{{"主公", {taxonomy_->Find("刘备")}},
                                 {"孟德", {taxonomy_->Find("曹操")}}});
    endpoints_ = std::make_unique<ApiEndpoints>(api_.get());
    config.num_threads = 2;
    server_ = std::make_unique<HttpServer>(config, endpoints_->AsHandler());
    ASSERT_TRUE(server_->Start().ok());
  }

  HttpClient Connect() {
    HttpClient client;
    EXPECT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    return client;
  }

  std::unique_ptr<Taxonomy> taxonomy_;
  std::unique_ptr<ApiService> api_;
  std::unique_ptr<ApiEndpoints> endpoints_;
  std::unique_ptr<HttpServer> server_;
};

TEST_F(ServerTest, Men2EntReturnsResolvedEntities) {
  StartServer();
  HttpClient client = Connect();
  auto response =
      client.Get("/v1/men2ent?mention=" + PercentEncode("主公"));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(response->Header("Content-Type"), "application/json");
  EXPECT_NE(response->body.find("\"刘备\""), std::string::npos);
  EXPECT_NE(response->body.find("\"version\":1"), std::string::npos);
  EXPECT_NE(response->body.find("\"num_hypernyms\":2"), std::string::npos);
}

TEST_F(ServerTest, GetConceptDirectAndTransitive) {
  StartServer();
  HttpClient client = Connect();
  auto direct =
      client.Get("/v1/getConcept?entity=" + PercentEncode("刘备"));
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(direct->status, 200);
  EXPECT_NE(direct->body.find("君主"), std::string::npos);

  auto transitive = client.Get("/v1/getConcept?entity=" +
                               PercentEncode("刘备") + "&transitive=1");
  ASSERT_TRUE(transitive.ok());
  EXPECT_EQ(transitive->status, 200);
  // 人物 is both a direct hypernym and an inherited one via 君主; either
  // way it must appear in the transitive closure.
  EXPECT_NE(transitive->body.find("人物"), std::string::npos);
  EXPECT_NE(transitive->body.find("\"transitive\":true"), std::string::npos);
  EXPECT_NE(direct->body.find("\"transitive\":false"), std::string::npos);
}

TEST_F(ServerTest, GetEntityHonorsLimit) {
  StartServer();
  HttpClient client = Connect();
  auto all = client.Get("/v1/getEntity?concept=concept");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->status, 200);
  auto capped = client.Get("/v1/getEntity?concept=concept&limit=2");
  ASSERT_TRUE(capped.ok());
  EXPECT_EQ(capped->status, 200);
  EXPECT_LT(capped->body.size(), all->body.size());

  auto bad = client.Get("/v1/getEntity?concept=concept&limit=zero");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->status, 400);
}

TEST_F(ServerTest, MissingParameterIs400) {
  StartServer();
  HttpClient client = Connect();
  for (const char* target :
       {"/v1/men2ent", "/v1/getConcept", "/v1/getEntity"}) {
    auto response = client.Get(target);
    ASSERT_TRUE(response.ok()) << target;
    EXPECT_EQ(response->status, 400) << target;
    EXPECT_NE(response->body.find("\"error\""), std::string::npos);
  }
}

TEST_F(ServerTest, UnknownMentionIs404) {
  StartServer();
  HttpClient client = Connect();
  auto response = client.Get("/v1/men2ent?mention=nonexistent");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 404);
  EXPECT_NE(response->body.find("NOT_FOUND"), std::string::npos);
}

TEST_F(ServerTest, UnknownPathIs404AndPostIs405) {
  StartServer();
  HttpClient client = Connect();
  auto missing = client.Get("/v2/nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status, 404);

  ASSERT_TRUE(client
                  .SendRaw("POST /v1/men2ent HTTP/1.1\r\nHost: h\r\n"
                           "Content-Length: 0\r\n\r\n")
                  .ok());
  auto post = client.ReadResponse();
  ASSERT_TRUE(post.ok());
  EXPECT_EQ(post->status, 405);
  EXPECT_EQ(post->Header("Allow"), "GET, HEAD");
}

TEST_F(ServerTest, HealthzAndMetrics) {
  StartServer();
  HttpClient client = Connect();
  auto health = client.Get("/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->status, 200);
  EXPECT_NE(health->body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(health->body.find("\"version\":1"), std::string::npos);

  auto metrics = client.Get("/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->status, 200);
  EXPECT_NE(std::string(metrics->Header("Content-Type")).find("text/plain"),
            std::string::npos);
  // The exposition carries both the API-layer and HTTP-layer instruments.
  EXPECT_NE(metrics->body.find("api_calls_men2ent"), std::string::npos);
  EXPECT_NE(metrics->body.find("http_requests"), std::string::npos);
}

TEST_F(ServerTest, KeepAliveServesManyRequestsOnOneConnection) {
  StartServer();
  HttpClient client = Connect();
  for (int i = 0; i < 50; ++i) {
    auto response = client.Get("/healthz");
    ASSERT_TRUE(response.ok()) << "request " << i;
    EXPECT_EQ(response->status, 200);
  }
  EXPECT_EQ(server_->stats().connections_accepted, 1u);
  EXPECT_GE(server_->stats().requests, 50u);
}

TEST_F(ServerTest, PipelinedRequestsAnsweredInOrder) {
  StartServer();
  HttpClient client = Connect();
  ASSERT_TRUE(client
                  .SendRaw("GET /healthz HTTP/1.1\r\nHost: h\r\n\r\n"
                           "GET /v1/men2ent?mention=nonexistent HTTP/1.1\r\n"
                           "Host: h\r\n\r\n")
                  .ok());
  auto first = client.ReadResponse();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->status, 200);
  auto second = client.ReadResponse();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->status, 404);
}

TEST_F(ServerTest, MalformedRequestGets400AndClose) {
  StartServer();
  HttpClient client = Connect();
  ASSERT_TRUE(client.SendRaw("NONSENSE\r\n\r\n").ok());
  auto response = client.ReadResponse();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 400);
  EXPECT_EQ(response->Header("Connection"), "close");
  EXPECT_GE(server_->stats().parse_errors, 1u);
}

TEST_F(ServerTest, OversizedRequestLineGets431) {
  HttpServer::Config config;
  config.parser_limits.max_request_line = 256;
  StartServer(config);
  HttpClient client = Connect();
  auto response = client.Get("/v1/men2ent?mention=" + std::string(512, 'x'));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 431);
}

TEST_F(ServerTest, ConnectionTableFullAnswers503) {
  HttpServer::Config config;
  config.max_connections = 1;
  StartServer(config);
  HttpClient first = Connect();
  auto warm = first.Get("/healthz");  // ensure the slot is occupied
  ASSERT_TRUE(warm.ok());

  HttpClient second = Connect();
  auto overflow = second.ReadResponse();  // server answers unprompted
  ASSERT_TRUE(overflow.ok());
  EXPECT_EQ(overflow->status, 503);
  EXPECT_GE(server_->stats().connections_rejected, 1u);

  // The occupant keeps working.
  auto again = first.Get("/healthz");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->status, 200);
}

TEST_F(ServerTest, LoadShedIs429WithRetryAfter) {
  StartServer();
  ApiService::ServingLimits limits;
  limits.max_in_flight = 1;
  api_->SetServingLimits(limits);
  // Every admitted query holds its in-flight slot ~2ms. An in-process hog
  // keeps the single slot occupied, so HTTP requests are shed regardless
  // of how the kernel distributed the connections over the event loops
  // (relying on overlapping wire requests alone is racy on a loaded box).
  util::ScopedFaultInjection scoped("api.query=1:delay=2", 7);
  std::atomic<bool> stop{false};
  std::thread hog([&] {
    while (!stop.load()) {
      (void)api_->TryGetEntityResolved("concept");
    }
  });

  HttpClient client = Connect();
  int shed_count = 0;
  for (int i = 0; i < 200 && shed_count == 0; ++i) {
    auto response = client.Get("/v1/getEntity?concept=concept");
    ASSERT_TRUE(response.ok());
    if (response->status == 429) {
      // Sheds are polite 429s with backoff advice — not resets.
      EXPECT_EQ(response->Header("Retry-After"), "1");
      EXPECT_NE(response->body.find("RESOURCE_EXHAUSTED"),
                std::string::npos);
      ++shed_count;
    } else {
      // Landed in the gap between two hog calls and was admitted.
      EXPECT_EQ(response->status, 200);
    }
  }
  stop.store(true);
  hog.join();
  EXPECT_GT(shed_count, 0);
}

TEST_F(ServerTest, DeadlineExceededIs504) {
  StartServer();
  ApiService::ServingLimits limits;
  limits.deadline = std::chrono::microseconds(500);
  api_->SetServingLimits(limits);
  util::ScopedFaultInjection scoped("api.query=1:delay=5", 7);

  HttpClient client = Connect();
  auto response = client.Get("/v1/getConcept?entity=" + PercentEncode("刘备"));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 504);
  EXPECT_NE(response->body.find("DEADLINE_EXCEEDED"), std::string::npos);
}

TEST_F(ServerTest, InjectedIoErrorIs503) {
  StartServer();
  util::ScopedFaultInjection scoped("api.query=1", 7);
  HttpClient client = Connect();
  auto response = client.Get("/v1/men2ent?mention=" + PercentEncode("主公"));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 503);
  EXPECT_NE(response->body.find("IO_ERROR"), std::string::npos);
}

TEST_F(ServerTest, GracefulDrainFinishesInFlightRequest) {
  StartServer();
  // The in-flight request takes ~50ms; Stop() arrives mid-query and must
  // let it finish and flush rather than cutting the connection.
  util::ScopedFaultInjection scoped("api.query=1:delay=50", 7);
  std::atomic<int> status{0};
  std::thread requester([&] {
    HttpClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    auto response = client.Get("/v1/getConcept?entity=" + PercentEncode("刘备"));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    status.store(response->status);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  server_->Stop();
  server_->Wait();
  requester.join();
  EXPECT_EQ(status.load(), 200);
  EXPECT_FALSE(server_->running());

  // Post-drain the listener is gone: new connections are refused.
  HttpClient late;
  EXPECT_FALSE(late.Connect("127.0.0.1", server_->port()).ok());
}

// The SIGPIPE regression: a client that disconnects before (or while) the
// server writes its response must surface as EPIPE on the server side — an
// orderly connection close — never a process-killing signal, and never
// poison for later connections.
TEST_F(ServerTest, EarlyCloseDoesNotKillServer) {
  StartServer();
  for (int i = 0; i < 10; ++i) {
    HttpClient rude = Connect();
    // Pipeline several /metrics requests (the largest response body) and
    // hang up without reading a byte of the answers.
    std::string burst;
    for (int j = 0; j < 8; ++j) {
      burst += "GET /metrics HTTP/1.1\r\nHost: h\r\n\r\n";
    }
    ASSERT_TRUE(rude.SendRaw(burst).ok());
    rude.Close();
  }
  // Give the event loops a beat to hit the broken pipes.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  HttpClient polite = Connect();
  auto response = polite.Get("/healthz");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);
}

// ------------------------------------------------- strict limit parsing
// The old parse used strtoull, which silently accepted leading whitespace
// and '+' — "limit=+5" and "limit=%205" (an encoded " 5") slipped through
// as 5. The contract is digits-only in [1, 100000]; everything else is 400.
TEST_F(ServerTest, GetEntityLimitParsingIsStrict) {
  StartServer();
  HttpClient client = Connect();
  for (const char* target : {
           "/v1/getEntity?concept=concept&limit=%2B5",  // literal "+5"
           "/v1/getEntity?concept=concept&limit=%205",  // literal " 5"
           "/v1/getEntity?concept=concept&limit=+5",    // '+' decodes to ' '
           "/v1/getEntity?concept=concept&limit=5x",
           "/v1/getEntity?concept=concept&limit=0",
           "/v1/getEntity?concept=concept&limit=",
           // 2^64: overflows uint64 in the digit loop, not UB-wraps.
           "/v1/getEntity?concept=concept&limit=18446744073709551616",
           "/v1/getEntity?concept=concept&limit=100001",
       }) {
    auto response = client.Get(target);
    ASSERT_TRUE(response.ok()) << target;
    EXPECT_EQ(response->status, 400) << target;
    EXPECT_NE(response->body.find("INVALID_ARGUMENT"), std::string::npos)
        << target;
  }
  auto good = client.Get("/v1/getEntity?concept=concept&limit=5");
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good->status, 200);
}

// ------------------------------------------------------ batch endpoints

TEST_F(ServerTest, Men2EntBatchResolvesRepeatedParams) {
  StartServer();
  HttpClient client = Connect();
  auto response = client.Get("/v1/men2ent_batch?mention=" +
                             PercentEncode("主公") + "&mention=" +
                             PercentEncode("孟德") + "&mention=missing");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 200);
  EXPECT_NE(response->body.find("\"version\":1"), std::string::npos);
  EXPECT_NE(response->body.find("\"count\":3"), std::string::npos);
  EXPECT_NE(response->body.find("\"刘备\""), std::string::npos);
  EXPECT_NE(response->body.find("\"曹操\""), std::string::npos);
  // Unknown mentions come back as empty candidate lists in position — a
  // partial answer, not a request-killing 404 like the single-shot API.
  EXPECT_NE(
      response->body.find("{\"mention\":\"missing\",\"entities\":[]}"),
      std::string::npos);
}

TEST_F(ServerTest, GetConceptBatchAcceptsPostBody) {
  StartServer();
  HttpClient client = Connect();
  // One term per line; CRLF line endings and blank lines are tolerated.
  auto response = client.Post(
      "/v1/getConcept_batch",
      std::string("刘备\r\n") + "曹操\n" + "\n" + "unknown哉\n");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(response->Header("Content-Type"), "application/json");
  EXPECT_NE(response->body.find("\"count\":3"), std::string::npos);
  EXPECT_NE(response->body.find("君主"), std::string::npos);
  EXPECT_NE(
      response->body.find("{\"entity\":\"unknown哉\",\"concepts\":[]}"),
      std::string::npos);
}

TEST_F(ServerTest, GetEntityBatchHonorsLimitWithPartialUnknowns) {
  StartServer();
  HttpClient client = Connect();
  auto response = client.Get(
      "/v1/getEntity_batch?concept=concept&concept=missing&limit=2");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);
  EXPECT_NE(response->body.find("\"limit\":2"), std::string::npos);
  EXPECT_NE(response->body.find("\"count\":2"), std::string::npos);
  EXPECT_NE(
      response->body.find("{\"concept\":\"missing\",\"entities\":[]}"),
      std::string::npos);
  // "concept" has six hyponyms entity0..entity5; limit=2 keeps exactly two.
  // (The name "entity" never appears in the JSON keys, so counting the
  // substring counts returned hyponyms.)
  size_t hyponyms = 0;
  for (size_t at = response->body.find("entity"); at != std::string::npos;
       at = response->body.find("entity", at + 1)) {
    ++hyponyms;
  }
  EXPECT_EQ(hyponyms, 2u);
}

TEST_F(ServerTest, BatchRejectsEmptyAndOversizedInput) {
  StartServer();
  HttpClient client = Connect();
  auto blank = client.Post("/v1/men2ent_batch", "\r\n\n");
  ASSERT_TRUE(blank.ok());
  EXPECT_EQ(blank->status, 400);

  auto unparameterized = client.Get("/v1/getConcept_batch");
  ASSERT_TRUE(unparameterized.ok());
  EXPECT_EQ(unparameterized->status, 400);
  EXPECT_NE(unparameterized->body.find("entity"), std::string::npos);

  std::string oversized;
  for (int i = 0; i < 300; ++i) {
    oversized += "m" + std::to_string(i) + "\n";
  }
  auto rejected = client.Post("/v1/men2ent_batch", oversized);
  ASSERT_TRUE(rejected.ok());
  EXPECT_EQ(rejected->status, 400);
  EXPECT_NE(rejected->body.find("batch too large"), std::string::npos);

  // Batch endpoints advertise POST in the 405 Allow list; PUT is refused.
  ASSERT_TRUE(client
                  .SendRaw("PUT /v1/men2ent_batch HTTP/1.1\r\nHost: h\r\n"
                           "Content-Length: 0\r\n\r\n")
                  .ok());
  auto put = client.ReadResponse();
  ASSERT_TRUE(put.ok());
  EXPECT_EQ(put->status, 405);
  EXPECT_EQ(put->Header("Allow"), "GET, HEAD, POST");
}

// ------------------------------------------------------ timer reclaims

TEST_F(ServerTest, IdleConnectionReclaimedAndHalfRequestGets408) {
  HttpServer::Config config;
  config.idle_timeout = std::chrono::milliseconds(150);
  StartServer(config);

  HttpClient silent = Connect();
  auto warm = silent.Get("/healthz");
  ASSERT_TRUE(warm.ok());

  // A half-sent request going idle deserves a diagnosis, not a bare RST.
  HttpClient halfway = Connect();
  ASSERT_TRUE(halfway.SendRaw("GET /healthz HTTP/1.1\r\nHost: h\r\n").ok());

  auto response = halfway.ReadResponse();  // blocks until the 408 arrives
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 408);

  bool reclaimed = false;
  for (int i = 0; i < 250 && !reclaimed; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const HttpServer::Stats stats = server_->stats();
    reclaimed = stats.open_connections == 0 && stats.idle_timeouts >= 2;
  }
  const HttpServer::Stats stats = server_->stats();
  EXPECT_TRUE(reclaimed) << "open=" << stats.open_connections
                         << " idle_timeouts=" << stats.idle_timeouts;
}

// The write-stall fd leak: a peer that sends requests but never reads the
// responses used to pin its connection forever, because idle reclaim
// required an empty output queue. The wheel now applies write_stall_timeout
// to exactly that state. A tiny SO_SNDBUF makes the stall reproducible on
// loopback: the responses overrun the socket buffers and flushing parks
// with output queued.
TEST_F(ServerTest, WriteStalledConnectionReclaimed) {
  HttpServer::Config config;
  config.so_sndbuf = 4096;
  config.write_stall_timeout = std::chrono::milliseconds(200);
  config.idle_timeout = std::chrono::milliseconds(60000);  // out of play
  StartServer(config);

  // A plain HttpClient would not stall: loopback receive-buffer autotuning
  // absorbs megabytes. Pinning SO_RCVBUF before connect fixes the peer's
  // flow-control window, so a few dozen KB of unread responses wedge the
  // server's writes for real.
  const int rude = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(rude, 0);
  const int rcvbuf = 4096;
  ASSERT_EQ(::setsockopt(rude, SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                         sizeof(rcvbuf)),
            0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(rude, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  std::string burst;
  for (int j = 0; j < 600; ++j) {
    burst += "GET /metrics HTTP/1.1\r\nHost: h\r\n\r\n";
  }
  for (size_t off = 0; off < burst.size();) {
    const ssize_t sent =
        ::send(rude, burst.data() + off, burst.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(sent, 0);
    off += static_cast<size_t>(sent);
  }
  // ... and never read a byte. The connection must be reclaimed while the
  // client keeps its end open (the leak scenario), not when it hangs up.
  bool reclaimed = false;
  for (int i = 0; i < 250 && !reclaimed; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const HttpServer::Stats stats = server_->stats();
    reclaimed =
        stats.open_connections == 0 && stats.write_stall_timeouts >= 1;
  }
  const HttpServer::Stats stats = server_->stats();
  EXPECT_TRUE(reclaimed) << "open=" << stats.open_connections
                         << " stall_timeouts=" << stats.write_stall_timeouts;
  EXPECT_EQ(stats.idle_timeouts, 0u);

  // The reclaim freed real capacity: a well-behaved client is served.
  HttpClient polite = Connect();
  auto response = polite.Get("/healthz");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);
  ::close(rude);
}

// ------------------------------------------- version-stamp coherence
// The headline regression: GetConcept/GetEntity used to stamp responses
// with api->version() read *after* the query returned, so a publish landing
// between resolve and stamp produced a body whose data and version
// disagreed. Every version V of this taxonomy names its data after V
// ("genV", "entV"), making any incoherent stamp visible in a single
// response. With the old stamping this fails within a few hundred
// requests; with pinned-snapshot stamps it can never fail.
uint64_t ParseVersionStamp(const std::string& body) {
  const size_t at = body.find("\"version\":");
  if (at == std::string::npos) return 0;
  return std::strtoull(body.c_str() + at + 10, nullptr, 10);
}

std::shared_ptr<const Taxonomy> MakeGenTaxonomy(uint64_t v) {
  Taxonomy t;
  const std::string gen = std::to_string(v);
  t.AddIsa("e", "gen" + gen, taxonomy::Source::kTag, 0.99f);
  t.AddIsa("ent" + gen, "anchor", taxonomy::Source::kTag, 0.99f);
  return Taxonomy::Freeze(std::move(t));
}

TEST(VersionCoherenceTest, StampAlwaysNamesTheSnapshotThatResolved) {
  // The natural race window — between pinning the snapshot and the stamp
  // leaving the handler — is sub-microsecond, far too narrow to hit
  // reliably (on a single-core host a publish can only land there via a
  // perfectly-timed preemption). The api.resolve delay fault fires inside
  // that window with the pin held, so the publisher provably runs mid-query
  // on every request. Old stamping (api->version() read after resolve)
  // fails almost every request here; pinned-snapshot stamps cannot fail at
  // any publish rate.
  constexpr int kRequestsPerClient = 100;
  util::ScopedFaultInjection scoped("api.resolve=1:delay=2", 7);
  ApiService api(MakeGenTaxonomy(1));  // published as version 1
  ApiEndpoints endpoints(&api);
  HttpServer::Config config;
  config.num_threads = 2;
  HttpServer server(config, endpoints.AsHandler());
  ASSERT_TRUE(server.Start().ok());

  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    // Single publisher: versions are assigned 2, 3, ... in order, so
    // version V always serves genV/entV.
    for (uint64_t v = 2; !stop.load(); ++v) {
      ASSERT_EQ(api.Publish(MakeGenTaxonomy(v), {}), v);
    }
  });

  const auto check = [&](const char* target, const char* prefix) {
    HttpClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    for (int i = 0; i < kRequestsPerClient; ++i) {
      auto response = client.Get(target);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      ASSERT_EQ(response->status, 200);
      const uint64_t stamped = ParseVersionStamp(response->body);
      ASSERT_GE(stamped, 1u);
      const std::string expected =
          "\"" + std::string(prefix) + std::to_string(stamped) + "\"";
      ASSERT_NE(response->body.find(expected), std::string::npos)
          << "stamped version " << stamped
          << " but the data disagrees: " << response->body;
    }
  };
  std::thread concepts([&] { check("/v1/getConcept?entity=e", "gen"); });
  std::thread hyponyms(
      [&] { check("/v1/getEntity?concept=anchor&limit=10", "ent"); });
  concepts.join();
  hyponyms.join();
  stop.store(true);
  publisher.join();
  // The fault must actually have widened the window, or this test proves
  // nothing: the publisher overlapped the clients the whole run.
  EXPECT_GT(api.version(), 100u);
}

TEST(SerializeResponseTest, HeadOmitsBodyButKeepsContentLength) {
  HttpResponse response;
  response.body = "{\"status\":\"ok\"}";
  const std::string head = SerializeResponse(response, true, true);
  EXPECT_NE(head.find("Content-Length: 15\r\n"), std::string::npos);
  EXPECT_EQ(head.find("status\":\"ok"), std::string::npos);
  const std::string full = SerializeResponse(response, true, false);
  EXPECT_NE(full.find("status\":\"ok"), std::string::npos);
}

}  // namespace
}  // namespace cnpb::server
