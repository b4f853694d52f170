#include "collections/manager.h"

#include <algorithm>
#include <utility>

#include "ingest/wal.h"
#include "taxonomy/snapshot.h"
#include "util/atomic_file.h"
#include "util/json.h"
#include "util/strings.h"

namespace cnpb::collections {

namespace {

using server::ApiEndpoints;
using util::JsonString;
using util::JsonUInt;

constexpr char kRegistryFile[] = "collections.reg";
constexpr char kSnapshotFile[] = "snapshot.bin";
constexpr size_t kMaxNameLength = 64;

bool ValidNameChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
}

std::string CollectionDir(const std::string& root, const std::string& name) {
  return root + "/" + name;
}

}  // namespace

HttpResponse CollectionManager::Collection::Handle(
    const HttpRequest& request) {
  requests->Increment();
  HttpResponse response = ingest_endpoints != nullptr
                              ? ingest_endpoints->Handle(request)
                              : endpoints->Handle(request);
  if (response.status >= 400) errors->Increment();
  return response;
}

CollectionManager::CollectionManager(Options options)
    : options_(std::move(options)) {}

util::Status CollectionManager::AddCollection(
    const std::string& name,
    std::shared_ptr<const taxonomy::ServingView> view) {
  return AddCollection(name, std::move(view), Quotas());
}

util::Status CollectionManager::AddIngestCollection(
    const std::string& name, core::IncrementalUpdater* updater,
    ingest::IngestDaemon::Options daemon_options) {
  return AddIngestCollection(name, updater, std::move(daemon_options),
                             Quotas());
}

CollectionManager::~CollectionManager() { (void)StopAll(); }

util::Status CollectionManager::ValidateName(const std::string& name) const {
  if (name.empty() || name.size() > kMaxNameLength) {
    return util::InvalidArgumentError(
        "collection name must be 1..64 characters: '" + name + "'");
  }
  for (const char c : name) {
    if (!ValidNameChar(c)) {
      return util::InvalidArgumentError(
          "collection name may only contain [A-Za-z0-9_.-]: '" + name + "'");
    }
  }
  return util::Status::Ok();
}

std::shared_ptr<CollectionManager::Collection> CollectionManager::Find(
    std::string_view name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  for (const auto& collection : collections_) {
    if (collection->name == name) return collection;
  }
  return nullptr;
}

std::shared_ptr<CollectionManager::Collection>
CollectionManager::MakeCollection(
    const std::string& name, Quotas quotas,
    std::unique_ptr<taxonomy::ApiService> service) {
  auto collection = std::make_shared<Collection>();
  collection->name = name;
  collection->quotas = quotas;
  collection->service = std::move(service);
  collection->service->SetServingLimits(
      {quotas.max_in_flight, quotas.deadline});
  collection->endpoints =
      options_.cache_bytes > 0
          ? std::make_unique<ApiEndpoints>(
                collection->service.get(),
                server::ResultCache::Config{.max_bytes = options_.cache_bytes})
          : std::make_unique<ApiEndpoints>(collection->service.get());
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  collection->requests =
      registry.counter("coll." + name + ".http.requests");
  collection->errors = registry.counter("coll." + name + ".http.errors");
  return collection;
}

util::Status CollectionManager::AddCollection(
    const std::string& name, std::shared_ptr<const taxonomy::ServingView> view,
    Quotas quotas) {
  CNPB_RETURN_IF_ERROR(ValidateName(name));
  if (view == nullptr) {
    return util::InvalidArgumentError("collection '" + name +
                                         "' needs a serving view");
  }
  if (Find(name) != nullptr) {
    return util::InvalidArgumentError("collection already exists: " + name);
  }
  if (!options_.root_dir.empty()) {
    const std::string dir = CollectionDir(options_.root_dir, name);
    CNPB_RETURN_IF_ERROR(ingest::EnsureDir(options_.root_dir));
    CNPB_RETURN_IF_ERROR(ingest::EnsureDir(dir));
    CNPB_RETURN_IF_ERROR(
        taxonomy::WriteSnapshot(*view, dir + "/" + kSnapshotFile));
  }
  std::shared_ptr<Collection> collection = MakeCollection(
      name, quotas, std::make_unique<taxonomy::ApiService>(std::move(view)));
  std::unique_lock<std::shared_mutex> lock(mu_);
  collections_.push_back(std::move(collection));
  return PersistRegistryLocked();
}

util::Status CollectionManager::AddIngestCollection(
    const std::string& name, core::IncrementalUpdater* updater,
    ingest::IngestDaemon::Options daemon_options, Quotas quotas) {
  CNPB_RETURN_IF_ERROR(ValidateName(name));
  if (updater == nullptr) {
    return util::InvalidArgumentError("collection '" + name +
                                         "' needs an updater");
  }
  if (Find(name) != nullptr) {
    return util::InvalidArgumentError("collection already exists: " + name);
  }
  if (daemon_options.wal_dir.empty()) {
    if (options_.root_dir.empty()) {
      return util::InvalidArgumentError(
          "ingest collection '" + name +
          "' needs a wal_dir (no manager root_dir to derive one from)");
    }
    // EnsureDir creates one level: build root/<name>/wal piecewise.
    CNPB_RETURN_IF_ERROR(ingest::EnsureDir(options_.root_dir));
    CNPB_RETURN_IF_ERROR(
        ingest::EnsureDir(CollectionDir(options_.root_dir, name)));
    daemon_options.wal_dir =
        CollectionDir(options_.root_dir, name) + "/wal";
  }
  CNPB_RETURN_IF_ERROR(ingest::EnsureDir(daemon_options.wal_dir));
  std::shared_ptr<Collection> collection = MakeCollection(
      name, quotas,
      std::make_unique<taxonomy::ApiService>(updater->snapshot()));
  collection->ingest = true;
  collection->daemon = std::make_unique<ingest::IngestDaemon>(
      updater, collection->service.get(), std::move(daemon_options));
  // Recovery before registration: the collection only becomes routable
  // with its WAL suffix already replayed and republished.
  CNPB_RETURN_IF_ERROR(collection->daemon->Start());
  collection->ingest_endpoints = std::make_unique<server::IngestEndpoints>(
      collection->daemon.get(), collection->endpoints->AsHandler());
  std::unique_lock<std::shared_mutex> lock(mu_);
  // Re-attaching a registry row Open() preserved: drop the detached copy.
  const std::string prefix = name + "\t";
  detached_rows_.erase(
      std::remove_if(detached_rows_.begin(), detached_rows_.end(),
                     [&](const std::string& row) {
                       return util::StartsWith(row, prefix);
                     }),
      detached_rows_.end());
  collections_.push_back(std::move(collection));
  return PersistRegistryLocked();
}

util::Status CollectionManager::DropCollection(const std::string& name) {
  if (name == options_.default_collection) {
    return util::InvalidArgumentError(
        "the default collection cannot be dropped: " + name);
  }
  std::shared_ptr<Collection> victim;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    for (auto it = collections_.begin(); it != collections_.end(); ++it) {
      if ((*it)->name == name) {
        victim = *it;
        collections_.erase(it);
        break;
      }
    }
    if (victim == nullptr) {
      return util::NotFoundError("no such collection: " + name);
    }
    CNPB_RETURN_IF_ERROR(PersistRegistryLocked());
  }
  // Drain outside the lock: in-flight requests holding the shared_ptr can
  // finish, and the daemon flushes acked operations before the drop
  // completes. On-disk state is left for a future re-attach.
  if (victim->daemon != nullptr && victim->daemon->running()) {
    return victim->daemon->Stop(ingest::IngestDaemon::StopMode::kDrain);
  }
  return util::Status::Ok();
}

util::Status CollectionManager::StopAll() {
  std::vector<std::shared_ptr<Collection>> snapshot;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    snapshot = collections_;
  }
  util::Status first_error = util::Status::Ok();
  for (const auto& collection : snapshot) {
    if (collection->daemon != nullptr && collection->daemon->running()) {
      const util::Status status =
          collection->daemon->Stop(ingest::IngestDaemon::StopMode::kDrain);
      if (!status.ok() && first_error.ok()) first_error = status;
    }
  }
  return first_error;
}

util::Status CollectionManager::Open() {
  if (options_.root_dir.empty()) return util::Status::Ok();
  const std::string path = options_.root_dir + "/" + kRegistryFile;
  util::Result<std::string> raw = util::ReadFileToString(path);
  if (!raw.ok()) return util::Status::Ok();  // no registry yet
  util::Result<std::string> payload =
      util::StripVerifyChecksumFooter(std::move(*raw), path);
  CNPB_RETURN_IF_ERROR(payload.status());
  for (const std::string& line : util::Split(*payload, '\n')) {
    if (line.empty()) continue;
    const std::vector<std::string> fields = util::Split(line, '\t');
    if (fields.size() != 4) {
      return util::DataLossError("malformed registry row in " + path +
                                    ": '" + line + "'");
    }
    Quotas quotas;
    uint64_t max_in_flight = 0, deadline_us = 0;
    if (!util::ParseUint64(fields[1], &max_in_flight) ||
        !util::ParseUint64(fields[2], &deadline_us) ||
        (fields[3] != "0" && fields[3] != "1")) {
      return util::DataLossError("malformed registry row in " + path +
                                    ": '" + line + "'");
    }
    quotas.max_in_flight = static_cast<size_t>(max_in_flight);
    quotas.deadline = std::chrono::microseconds(deadline_us);
    if (fields[3] == "1") {
      // Ingest collections need their updater re-wired by the caller;
      // keep the row so persistence does not drop the registration.
      std::unique_lock<std::shared_mutex> lock(mu_);
      detached_rows_.push_back(line);
      continue;
    }
    const std::string snapshot_path =
        CollectionDir(options_.root_dir, fields[0]) + "/" + kSnapshotFile;
    util::Result<std::shared_ptr<const taxonomy::ServingView>> snapshot =
        taxonomy::ServingView::Load(snapshot_path);
    CNPB_RETURN_IF_ERROR(snapshot.status());
    std::shared_ptr<Collection> collection = MakeCollection(
        fields[0], quotas,
        std::make_unique<taxonomy::ApiService>(*std::move(snapshot)));
    std::unique_lock<std::shared_mutex> lock(mu_);
    collections_.push_back(std::move(collection));
  }
  return util::Status::Ok();
}

util::Status CollectionManager::PersistRegistryLocked() {
  if (options_.root_dir.empty()) return util::Status::Ok();
  CNPB_RETURN_IF_ERROR(ingest::EnsureDir(options_.root_dir));
  std::string payload;
  for (const auto& collection : collections_) {
    payload += collection->name + "\t" +
               std::to_string(collection->quotas.max_in_flight) + "\t" +
               std::to_string(collection->quotas.deadline.count()) + "\t" +
               (collection->ingest ? "1" : "0") + "\n";
  }
  for (const std::string& row : detached_rows_) payload += row + "\n";
  util::AtomicWriteOptions write_options;
  write_options.checksum_footer = true;
  write_options.fault_prefix = "collections.registry";
  return util::WriteFileAtomic(options_.root_dir + "/" + kRegistryFile,
                               payload, write_options);
}

HttpResponse CollectionManager::ListCollections() {
  std::vector<std::shared_ptr<Collection>> snapshot;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    snapshot = collections_;
  }
  HttpResponse response;
  std::string body =
      "{\"count\":" + JsonUInt(snapshot.size()) + ",\"collections\":[";
  bool first = true;
  for (const auto& collection : snapshot) {
    if (!first) body += ',';
    first = false;
    body += "{\"name\":" + JsonString(collection->name) +
            ",\"version\":" + JsonUInt(collection->service->version()) +
            ",\"ingest\":" + (collection->ingest ? "true" : "false") + "}";
  }
  body += "]}\n";
  response.body = std::move(body);
  return response;
}

HttpResponse CollectionManager::CollectionInfo(const Collection& collection) {
  HttpResponse response;
  response.body =
      "{\"collection\":" + JsonString(collection.name) +
      ",\"version\":" + JsonUInt(collection.service->version()) +
      ",\"ingest\":" + (collection.ingest ? "true" : "false") +
      ",\"quotas\":{\"max_in_flight\":" +
      JsonUInt(collection.quotas.max_in_flight) + ",\"deadline_us\":" +
      JsonUInt(static_cast<uint64_t>(collection.quotas.deadline.count())) +
      "}}\n";
  response.headers.emplace_back(server::ApiEndpoints::kVersionHeader,
                                std::to_string(collection.service->version()));
  return response;
}

HttpResponse CollectionManager::Handle(const HttpRequest& request) {
  if (request.path == "/v1/collections") {
    if (request.method != "GET" && request.method != "HEAD") {
      return ApiEndpoints::MethodNotAllowed(request.method, "GET, HEAD");
    }
    return ListCollections();
  }
  std::string_view name;
  std::string bare;
  if (ApiEndpoints::SplitCollectionPath(request.path, &name, &bare)) {
    const std::shared_ptr<Collection> collection = Find(name);
    if (collection == nullptr) {
      return ApiEndpoints::ErrorResponse(
          404, util::StatusCode::kNotFound,
          "no such collection: " + std::string(name));
    }
    if (bare.empty()) return CollectionInfo(*collection);
    // Rewrite to the bare path the collection's endpoint stack speaks;
    // params/body/method pass through untouched.
    HttpRequest rewritten = request;
    rewritten.path = std::move(bare);
    return collection->Handle(rewritten);
  }
  // Bare paths serve the default collection byte-compatibly with a
  // single-tenant server.
  const std::shared_ptr<Collection> fallback =
      Find(options_.default_collection);
  if (fallback == nullptr) {
    return ApiEndpoints::ErrorResponse(
        503, util::StatusCode::kIoError,
        "default collection not registered: " + options_.default_collection);
  }
  return fallback->Handle(request);
}

HttpServer::Handler CollectionManager::AsHandler() {
  return [this](const HttpRequest& request) { return Handle(request); };
}

std::vector<std::string> CollectionManager::names() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(collections_.size());
  for (const auto& collection : collections_) out.push_back(collection->name);
  return out;
}

taxonomy::ApiService* CollectionManager::service(std::string_view name) const {
  const std::shared_ptr<Collection> collection = Find(name);
  return collection == nullptr ? nullptr : collection->service.get();
}

ingest::IngestDaemon* CollectionManager::daemon(std::string_view name) const {
  const std::shared_ptr<Collection> collection = Find(name);
  return collection == nullptr ? nullptr : collection->daemon.get();
}

size_t CollectionManager::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return collections_.size();
}

}  // namespace cnpb::collections
