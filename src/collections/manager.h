#ifndef CNPROBASE_COLLECTIONS_MANAGER_H_
#define CNPROBASE_COLLECTIONS_MANAGER_H_

#include <chrono>
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
// Persistence: with a root_dir, the manager keeps a registry file
// (root_dir/collections.reg, checksummed TSV) and one snapshot per
// snapshot-backed collection (root_dir/<name>/snapshot.bin, written via
// taxonomy::WriteSnapshot). Open() restores every snapshot-backed entry
// with mmap-backed views. Ingest-backed collections need their updater
// wired by the caller (an IncrementalUpdater cannot be reconstructed from
// the registry alone); their registry rows survive Open()/persist cycles
// untouched until AddIngestCollection re-attaches them.
class CollectionManager {
 public:
  // Per-collection overload policy, applied to the collection's ApiService
  // as taxonomy::ApiService::ServingLimits. Zero means unlimited.
  struct Quotas {
    size_t max_in_flight = 0;
    std::chrono::microseconds deadline{0};
  };

  struct Options {
    // Registry + per-collection state live under root_dir/<name>/. Empty
    // disables persistence (in-memory collections only).
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

  // Restores snapshot-backed collections registered in root_dir (no-op
  // without a root_dir or registry file). Ingest-backed registry rows are
  // remembered for re-attachment but not restored here.
  util::Status Open();

  // Registers a read-only collection served from `view`. With a root_dir
  // the view is persisted to root_dir/<name>/snapshot.bin so Open() can
  // restore it mmap-backed. Fails on duplicate or invalid names
  // ([A-Za-z0-9_.-], max 64 chars).
  util::Status AddCollection(const std::string& name,
                             std::shared_ptr<const taxonomy::ServingView> view,
                             Quotas quotas);
  util::Status AddCollection(
      const std::string& name,
      std::shared_ptr<const taxonomy::ServingView> view);

  // Registers an ingest-enabled collection: a fresh ApiService over the
  // updater's current state, an IngestDaemon (owned by the manager;
  // daemon_options.wal_dir defaults to root_dir/<name>/wal) started here —
  // so WAL recovery runs before the first request — and ingest endpoints
  // layered in front of the query endpoints. `updater` is not owned and
  // must outlive the manager.
  util::Status AddIngestCollection(const std::string& name,
                                   core::IncrementalUpdater* updater,
                                   ingest::IngestDaemon::Options daemon_options,
                                   Quotas quotas);
  util::Status AddIngestCollection(
      const std::string& name, core::IncrementalUpdater* updater,
      ingest::IngestDaemon::Options daemon_options);

  // Drains (for ingest collections) and deregisters. The default
  // collection cannot be dropped. On-disk snapshots are left in place;
  // only the registry row is removed.
  util::Status DropCollection(const std::string& name);

  // Drains every ingest daemon. Collections stay queryable afterwards.
  util::Status StopAll();

  // The process-wide handler implementing the routing table above.
  HttpResponse Handle(const HttpRequest& request);
  HttpServer::Handler AsHandler();

  // Introspection (for tests / examples). The returned pointers stay valid
  // until the collection is dropped or the manager destroyed.
  std::vector<std::string> names() const;
  taxonomy::ApiService* service(std::string_view name) const;
  ingest::IngestDaemon* daemon(std::string_view name) const;
  size_t size() const;
  const Options& options() const { return options_; }

 private:
  struct Collection {
    std::string name;
    bool ingest = false;
    Quotas quotas;
    std::unique_ptr<taxonomy::ApiService> service;
    std::unique_ptr<server::ApiEndpoints> endpoints;
    std::unique_ptr<ingest::IngestDaemon> daemon;
    std::unique_ptr<server::IngestEndpoints> ingest_endpoints;
    obs::Counter* requests = nullptr;  // coll.<name>.http.requests
    obs::Counter* errors = nullptr;    // coll.<name>.http.errors

    HttpResponse Handle(const HttpRequest& request);
  };

  util::Status ValidateName(const std::string& name) const;
  std::shared_ptr<Collection> Find(std::string_view name) const;
  // Builds a collection's serving stack in one place: `service` with the
  // quotas as its serving limits, its ApiEndpoints (cached per
  // Options::cache_bytes) and its per-collection instruments.
  std::shared_ptr<Collection> MakeCollection(
      const std::string& name, Quotas quotas,
      std::unique_ptr<taxonomy::ApiService> service);
  // Serialises + atomically rewrites the registry. Caller holds mu_.
  util::Status PersistRegistryLocked();
  HttpResponse ListCollections();
  HttpResponse CollectionInfo(const Collection& collection);

  const Options options_;

  mutable std::shared_mutex mu_;
  // Insertion order preserved for deterministic /v1/collections listings.
  std::vector<std::shared_ptr<Collection>> collections_;
  // Registry rows for ingest collections seen by Open() but not yet
  // re-attached: preserved verbatim by PersistRegistryLocked so a restart
  // that never re-attaches them does not silently drop their registration.
  std::vector<std::string> detached_rows_;
};

}  // namespace cnpb::collections

#endif  // CNPROBASE_COLLECTIONS_MANAGER_H_
