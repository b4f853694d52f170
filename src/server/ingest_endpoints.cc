#include "server/ingest_endpoints.h"

#include <algorithm>
#include <string>
#include <vector>

#include "kb/page.h"
#include "server/service.h"
#include "util/strings.h"

namespace cnpb::server {

namespace {

// One "k=v;k=v"-style cell into parts; empty cell -> no parts.
std::vector<std::string> SplitCell(std::string_view cell) {
  if (cell.empty()) return {};
  return util::Split(cell, ';');
}

// Parses one body line into an operation. Returns false with *error set on
// malformed input.
bool ParseLine(std::string_view line, size_t line_number, bool* is_delete,
               kb::EncyclopediaPage* page, std::string* name,
               HttpResponse* error) {
  const std::vector<std::string> fields = util::Split(line, '\t');
  auto fail = [&](const std::string& what) {
    *error = ApiEndpoints::ErrorResponse(
        400, util::StatusCode::kInvalidArgument,
        "line " + std::to_string(line_number) + ": " + what);
    return false;
  };
  if (fields.empty() || fields[0].empty()) return fail("missing op");
  if (fields[0] == "d") {
    if (fields.size() < 2 || fields[1].empty()) {
      return fail("delete needs a name");
    }
    if (fields.size() > 2) return fail("delete takes exactly one field");
    *is_delete = true;
    *name = fields[1];
    return true;
  }
  if (fields[0] != "u") return fail("unknown op '" + fields[0] + "'");
  if (fields.size() < 2 || fields[1].empty()) {
    return fail("upsert needs a name");
  }
  if (fields.size() > 8) return fail("too many fields");
  *is_delete = false;
  page->name = fields[1];
  page->mention = fields.size() > 2 ? fields[2] : "";
  page->bracket = fields.size() > 3 ? fields[3] : "";
  page->abstract = fields.size() > 4 ? fields[4] : "";
  if (fields.size() > 5) {
    for (const std::string& pair : SplitCell(fields[5])) {
      const size_t eq = pair.find('=');
      if (eq == std::string::npos || eq == 0) {
        return fail("infobox cell needs p=o pairs");
      }
      kb::SpoTriple triple;
      triple.subject = page->name;
      triple.predicate = pair.substr(0, eq);
      triple.object = pair.substr(eq + 1);
      page->infobox.push_back(std::move(triple));
    }
  }
  if (fields.size() > 6) page->tags = SplitCell(fields[6]);
  if (fields.size() > 7) page->aliases = SplitCell(fields[7]);
  return true;
}

}  // namespace

IngestEndpoints::IngestEndpoints(ingest::IngestDaemon* daemon,
                                 HttpServer::Handler fallback)
    : daemon_(daemon), fallback_(std::move(fallback)) {}

HttpResponse IngestEndpoints::Handle(const HttpRequest& request) {
  if (request.path == "/v1/ingest") {
    if (request.method != "POST") {
      return ApiEndpoints::MethodNotAllowed(request.method, "POST");
    }
    return Ingest(request);
  }
  if (request.path == "/v1/ingest_status") return Status();
  return fallback_(request);
}

HttpServer::Handler IngestEndpoints::AsHandler() {
  return [this](const HttpRequest& request) { return Handle(request); };
}

HttpResponse IngestEndpoints::Ingest(const HttpRequest& request) {
  uint64_t priority = 1;
  if (request.HasParam("priority")) {
    if (!util::ParseUint64(request.Param("priority"), &priority) ||
        priority > 255) {
      return ApiEndpoints::ErrorResponse(
          400, util::StatusCode::kInvalidArgument, "priority must be 0..255");
    }
  }

  // Parse the whole body before touching the WAL: a malformed line rejects
  // the request without a partial append, so 400 always means "nothing was
  // recorded" and the client can fix and resend the whole batch.
  struct Op {
    bool is_delete = false;
    kb::EncyclopediaPage page;
    std::string name;
  };
  std::vector<Op> ops;
  size_t line_number = 0;
  for (std::string_view body = request.body; !body.empty();) {
    const size_t eol = body.find('\n');
    std::string_view line =
        eol == std::string_view::npos ? body : body.substr(0, eol);
    body = eol == std::string_view::npos ? std::string_view()
                                         : body.substr(eol + 1);
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;
    Op op;
    HttpResponse error;
    if (!ParseLine(line, line_number, &op.is_delete, &op.page, &op.name,
                   &error)) {
      return error;
    }
    ops.push_back(std::move(op));
  }
  if (ops.empty()) {
    return ApiEndpoints::ErrorResponse(
        400, util::StatusCode::kInvalidArgument, "empty ingest body");
  }

  const auto pri = static_cast<uint8_t>(priority);
  uint64_t last_lsn = 0;
  util::Status status;

  const bool upserts_only =
      std::none_of(ops.begin(), ops.end(),
                   [](const Op& op) { return op.is_delete; });
  if (upserts_only) {
    // The common case shares one fsync across the whole body.
    std::vector<kb::EncyclopediaPage> pages;
    pages.reserve(ops.size());
    for (Op& op : ops) pages.push_back(std::move(op.page));
    auto lsn = daemon_->SubmitBatch(pages, pri);
    status = lsn.status();
    if (lsn.ok()) last_lsn = *lsn;
  } else {
    for (Op& op : ops) {
      auto lsn = op.is_delete ? daemon_->SubmitDelete(op.name, pri)
                              : daemon_->Submit(op.page, pri);
      if (!lsn.ok()) {
        status = lsn.status();
        break;
      }
      last_lsn = *lsn;
    }
  }
  if (!status.ok()) {
    return ApiEndpoints::StatusResponse(status);
  }

  HttpResponse response;
  response.body = "{\"accepted\":" + std::to_string(ops.size()) +
                  ",\"last_lsn\":" + std::to_string(last_lsn) + "}\n";
  return response;
}

HttpResponse IngestEndpoints::Status() {
  const ingest::IngestDaemon::Stats s = daemon_->stats();
  HttpResponse response;
  response.body =
      "{\"submitted\":" + std::to_string(s.submitted) +
      ",\"acked\":" + std::to_string(s.acked) +
      ",\"applied\":" + std::to_string(s.applied) +
      ",\"batches\":" + std::to_string(s.batches) +
      ",\"publishes\":" + std::to_string(s.publishes) +
      ",\"compactions\":" + std::to_string(s.compactions) +
      ",\"tombstoned\":" + std::to_string(s.tombstoned) +
      ",\"next_lsn\":" + std::to_string(s.next_lsn) +
      ",\"durable_lsn\":" + std::to_string(s.durable_lsn) +
      ",\"cursor_lsn\":" + std::to_string(s.cursor_lsn) +
      ",\"resolved_lsn\":" + std::to_string(s.resolved_lsn) +
      ",\"generation\":" + std::to_string(s.generation) +
      ",\"served_version\":" + std::to_string(s.served_version) +
      ",\"pending\":" + std::to_string(s.pending) +
      ",\"unpublished_pages\":" + std::to_string(s.unpublished_pages) +
      ",\"draining\":" + (s.draining ? "true" : "false") + "}\n";
  return response;
}

}  // namespace cnpb::server
