#include "collections/manager.h"

#include <utility>

#include "ingest/wal.h"
#include "util/json.h"

namespace cnpb::collections {

namespace {

using server::ApiEndpoints;
using util::JsonString;
using util::JsonUInt;

constexpr size_t kMaxNameLength = 64;

bool ValidNameChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
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

CollectionManager::~CollectionManager() { (void)StopAll(); }

util::Status CollectionManager::CheckNewName(const std::string& name) const {
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
  if (Find(name) != nullptr) {
    return util::InvalidArgumentError("collection already exists: " + name);
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
    const std::string& name, taxonomy::ApiService::ServingLimits limits,
    std::unique_ptr<taxonomy::ApiService> service) {
  auto collection = std::make_shared<Collection>();
  collection->name = name;
  collection->service = std::move(service);
  collection->service->SetServingLimits(limits);
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
    taxonomy::ApiService::ServingLimits limits) {
  CNPB_RETURN_IF_ERROR(CheckNewName(name));
  if (view == nullptr) {
    return util::InvalidArgumentError("collection '" + name +
                                         "' needs a serving view");
  }
  std::shared_ptr<Collection> collection = MakeCollection(
      name, limits, std::make_unique<taxonomy::ApiService>(std::move(view)));
  std::unique_lock<std::shared_mutex> lock(mu_);
  collections_.push_back(std::move(collection));
  return util::Status::Ok();
}

util::Status CollectionManager::AddIngestCollection(
    const std::string& name, core::IncrementalUpdater* updater,
    ingest::IngestDaemon::Options daemon_options,
    taxonomy::ApiService::ServingLimits limits) {
  CNPB_RETURN_IF_ERROR(CheckNewName(name));
  if (updater == nullptr) {
    return util::InvalidArgumentError("collection '" + name +
                                         "' needs an updater");
  }
  if (daemon_options.wal_dir.empty()) {
    if (options_.root_dir.empty()) {
      return util::InvalidArgumentError(
          "ingest collection '" + name +
          "' needs a wal_dir (no manager root_dir to derive one from)");
    }
    // EnsureDir creates one level: build root/<name>/wal piecewise.
    const std::string dir = options_.root_dir + "/" + name;
    CNPB_RETURN_IF_ERROR(ingest::EnsureDir(options_.root_dir));
    CNPB_RETURN_IF_ERROR(ingest::EnsureDir(dir));
    daemon_options.wal_dir = dir + "/wal";
  }
  CNPB_RETURN_IF_ERROR(ingest::EnsureDir(daemon_options.wal_dir));
  std::shared_ptr<Collection> collection = MakeCollection(
      name, limits,
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
  collections_.push_back(std::move(collection));
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
  const taxonomy::ApiService::ServingLimits limits =
      collection.service->serving_limits();
  HttpResponse response;
  response.body =
      "{\"collection\":" + JsonString(collection.name) +
      ",\"version\":" + JsonUInt(collection.service->version()) +
      ",\"ingest\":" + (collection.ingest ? "true" : "false") +
      ",\"quotas\":{\"max_in_flight\":" +
      JsonUInt(limits.max_in_flight) + ",\"deadline_us\":" +
      JsonUInt(static_cast<uint64_t>(limits.deadline.count())) +
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
