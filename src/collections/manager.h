#ifndef CNPROBASE_COLLECTIONS_MANAGER_H_
#define CNPROBASE_COLLECTIONS_MANAGER_H_

#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/incremental.h"
#include "ingest/daemon.h"
#include "obs/metrics.h"
#include "server/http.h"
#include "server/ingest_endpoints.h"
#include "server/server.h"
#include "server/service.h"
#include "taxonomy/api_service.h"
#include "util/status.h"

namespace cnpb::collections {

using server::HttpRequest;
using server::HttpResponse;
using server::HttpServer;

// Multi-collection tenancy (DESIGN.md §14): several independent taxonomies
// served by one process, each with its own ApiService (and therefore its
// own RCU snapshot chain, version counter, serving limits and optional
// ingest daemon). Nothing is shared between collections except the process:
// a publish into collection A cannot perturb collection B's version stamps,
// and a quota exhausted in A sheds only A's queries — per-collection
// failure isolation falls out of per-collection ownership rather than
// being enforced after the fact.
//
// HTTP routing:
//
//   /v1/collections              list registered collections (JSON)
//   /v1/c/<name>                 one collection's info (version, quotas)
//   /v1/c/<name>/<endpoint>      any ApiEndpoints / ingest endpoint of
//                                <name>: men2ent, getConcept_batch, isa,
//                                ingest, healthz, metrics, ... — the path
//                                is rewritten to its bare form and handled
//                                by the collection's own endpoint stack.
//   anything else                the default collection, byte-compatible
//                                with a single-tenant server: a process
//                                hosting only "default" answers exactly
//                                like one built from ApiEndpoints alone.
//
// Each collection's ApiEndpoints owns its own ResultCache (when caching is
// enabled), so cache keys are collection-scoped by construction — there is
// no shared keyspace for one tenant's entries to collide with another's.
// Per-collection metrics embed the collection in the metric name
// (coll.<name>.http.requests / coll.<name>.http.errors): that is this
// codebase's "collection label", since the Prometheus exporter flattens
// every name into [a-z0-9_] and real labels cannot survive it.
//
// Persistence: the manager writes nothing for read-only collections; the
// caller hands it a view it built or loaded (ServingView::Load) on every
// start. An ingest collection's durable state is its WAL (by default
// root_dir/<name>/wal), which the daemon replays when the collection is
// added, so a restart with the same collections recovers every
// acknowledged page.
class CollectionManager {
 public:
  struct Options {
    // Ingest collections without a wal_dir keep their WAL under
    // root_dir/<name>/wal. Empty: every ingest collection needs a wal_dir.
    std::string root_dir;
    // The collection bare (un-prefixed) paths route to.
    std::string default_collection = "default";
    // Byte budget of the private ResultCache each collection's endpoints
    // run; 0 serves uncached.
    size_t cache_bytes = 0;
  };

  explicit CollectionManager(Options options);
  ~CollectionManager();  // StopAll()

  CollectionManager(const CollectionManager&) = delete;
  CollectionManager& operator=(const CollectionManager&) = delete;

  // Registers a read-only collection served from `view`, with `limits` as
  // its overload policy (zero: unlimited). Fails on duplicate or invalid
  // names ([A-Za-z0-9_.-], max 64 chars).
  util::Status AddCollection(
      const std::string& name,
      std::shared_ptr<const taxonomy::ServingView> view,
      taxonomy::ApiService::ServingLimits limits = {});

  // Registers an ingest-enabled collection: a fresh ApiService over the
  // updater's current state, an IngestDaemon (owned by the manager;
  // daemon_options.wal_dir defaults to root_dir/<name>/wal) started here —
  // so WAL recovery runs before the first request — and ingest endpoints
  // layered in front of the query endpoints. `updater` is not owned and
  // must outlive the manager.
  util::Status AddIngestCollection(
      const std::string& name, core::IncrementalUpdater* updater,
      ingest::IngestDaemon::Options daemon_options,
      taxonomy::ApiService::ServingLimits limits = {});

  // Drains every ingest daemon. Collections stay queryable afterwards.
  util::Status StopAll();

  // The process-wide handler implementing the routing table above.
  HttpResponse Handle(const HttpRequest& request);
  HttpServer::Handler AsHandler();

  // Introspection (for tests / examples). The returned pointers live as
  // long as the manager.
  taxonomy::ApiService* service(std::string_view name) const;
  ingest::IngestDaemon* daemon(std::string_view name) const;
  size_t size() const;

 private:
  struct Collection {
    std::string name;
    bool ingest = false;
    std::unique_ptr<taxonomy::ApiService> service;
    std::unique_ptr<server::ApiEndpoints> endpoints;
    std::unique_ptr<ingest::IngestDaemon> daemon;
    std::unique_ptr<server::IngestEndpoints> ingest_endpoints;
    obs::Counter* requests = nullptr;  // coll.<name>.http.requests
    obs::Counter* errors = nullptr;    // coll.<name>.http.errors

    HttpResponse Handle(const HttpRequest& request);
  };

  // Refuses invalid names and names already registered.
  util::Status CheckNewName(const std::string& name) const;
  std::shared_ptr<Collection> Find(std::string_view name) const;
  // Builds a collection's serving stack in one place: `service` with
  // `limits`, its ApiEndpoints (cached per Options::cache_bytes) and its
  // per-collection instruments.
  std::shared_ptr<Collection> MakeCollection(
      const std::string& name, taxonomy::ApiService::ServingLimits limits,
      std::unique_ptr<taxonomy::ApiService> service);
  HttpResponse ListCollections();
  HttpResponse CollectionInfo(const Collection& collection);

  const Options options_;

  mutable std::shared_mutex mu_;
  // Insertion order preserved for deterministic /v1/collections listings.
  std::vector<std::shared_ptr<Collection>> collections_;
};

}  // namespace cnpb::collections

#endif  // CNPROBASE_COLLECTIONS_MANAGER_H_
