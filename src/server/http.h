#ifndef CNPROBASE_SERVER_HTTP_H_
#define CNPROBASE_SERVER_HTTP_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cnpb::server {

// HTTP/1.1 message types and an incremental request parser. The parser is
// the only component that touches untrusted bytes, so it is written to a
// strict contract: hard limits on request-line / header / body size, no
// recursion, no unbounded buffering, and every malformed input is answered
// with a definite 4xx status — never a crash, never a hang (the
// malformed-request corpus in tests/http_parser_test.cc enforces this).

// One parsed request. Strings are owned copies — the parser's buffer is
// recycled across keep-alive requests.
struct HttpRequest {
  std::string method;   // "GET", "HEAD", ... (verbatim token)
  std::string target;   // raw request target, e.g. "/v1/men2ent?mention=x"
  std::string path;     // percent-decoded path component
  // Percent-decoded query parameters, in order of appearance.
  std::vector<std::pair<std::string, std::string>> params;
  int version_minor = 1;  // HTTP/1.<minor>; only 0 and 1 are accepted
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  bool keep_alive = true;

  // First value of header `name` (ASCII case-insensitive), or "" if absent.
  std::string_view Header(std::string_view name) const;
  // First value of query parameter `key`, or `fallback` if absent.
  std::string_view Param(std::string_view key,
                         std::string_view fallback = "") const;
  bool HasParam(std::string_view key) const;
};

struct HttpResponse {
  int status = 200;
  // Empty serializes as "application/json", which is one byte past the
  // small-string buffer: the common case then costs no allocation.
  std::string content_type;
  // Extra headers beyond Content-Type/Content-Length/Connection.
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  // Force "Connection: close" regardless of what the client asked for.
  bool close = false;
};

// Standard reason phrase for `status` ("OK", "Too Many Requests", ...).
const char* ReasonPhrase(int status);

// Serializes `response` to wire format. `keep_alive` reflects what the
// connection will actually do (it is ANDed with !response.close);
// `head_only` omits the body (HEAD requests) but keeps Content-Length.
std::string SerializeResponse(const HttpResponse& response, bool keep_alive,
                              bool head_only);

// Percent-decodes `in` into `*out` ('+' becomes a space, %XX must be two
// hex digits). Returns false on a malformed escape — the caller answers 400.
bool PercentDecode(std::string_view in, std::string* out);

// Percent-encodes everything outside the RFC 3986 unreserved set, so any
// byte string (e.g. a UTF-8 Chinese mention) survives a query parameter.
std::string PercentEncode(std::string_view s);

// Incremental HTTP/1.1 request parser. Feed() bytes as they arrive off the
// socket (any split, byte-at-a-time included); once it returns kComplete,
// request() is valid and the unconsumed remainder (pipelined requests) stays
// buffered — Reset() starts parsing the next request from it. On kError,
// error_status() is the 4xx to answer before closing the connection.
class RequestParser {
 public:
  struct Limits {
    size_t max_request_line = 8192;   // bytes, incl. CRLF -> 431 when over
    size_t max_header_bytes = 16384;  // all header lines together -> 431
    size_t max_headers = 100;         // header count -> 431
    size_t max_body_bytes = 65536;    // Content-Length cap -> 413
  };

  enum class State { kNeedMore, kComplete, kError };

  RequestParser();
  explicit RequestParser(const Limits& limits);

  // Appends `data` to the internal buffer and advances the parse.
  State Feed(std::string_view data);

  // Re-examines the buffer without new input (used after Reset to surface
  // an already-buffered pipelined request).
  State Poll();

  State state() const { return state_; }
  const HttpRequest& request() const { return request_; }
  int error_status() const { return error_status_; }
  const std::string& error_message() const { return error_message_; }

  // Discards the completed request and starts parsing the next one from any
  // buffered remainder. Only meaningful in kComplete.
  void Reset();

  // True when a request is mid-parse (bytes buffered but not complete) —
  // drain uses this to distinguish idle keep-alive connections from
  // connections owed a response.
  bool HasPartialRequest() const {
    return state_ == State::kNeedMore && !buffer_.empty();
  }

 private:
  enum class Phase { kRequestLine, kHeaders, kBody, kDone };

  State Advance();
  State Fail(int status, std::string message);
  bool ParseRequestLine(std::string_view line);
  bool ParseHeaderLine(std::string_view line);
  // Validates headers once they are all in (Host, Content-Length, ...).
  bool FinishHeaders();

  Limits limits_;
  std::string buffer_;
  size_t pos_ = 0;  // parse cursor into buffer_
  Phase phase_ = Phase::kRequestLine;
  State state_ = State::kNeedMore;
  HttpRequest request_;
  size_t header_bytes_ = 0;
  size_t body_length_ = 0;
  int error_status_ = 0;
  std::string error_message_;
};

}  // namespace cnpb::server

#endif  // CNPROBASE_SERVER_HTTP_H_
