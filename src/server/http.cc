#include "server/http.h"

#include <algorithm>
#include <cctype>

#include "util/strings.h"

namespace cnpb::server {

namespace {

bool AsciiIEquals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

// RFC 7230 token characters, the legal alphabet for methods and header
// names. Anything else in those positions is a malformed request.
bool IsTokenChar(char c) {
  if (std::isalnum(static_cast<unsigned char>(c))) return true;
  switch (c) {
    case '!': case '#': case '$': case '%': case '&': case '\'': case '*':
    case '+': case '-': case '.': case '^': case '_': case '`': case '|':
    case '~':
      return true;
    default:
      return false;
  }
}

bool IsToken(std::string_view s) {
  return !s.empty() && std::all_of(s.begin(), s.end(), IsTokenChar);
}

}  // namespace

std::string_view HttpRequest::Header(std::string_view name) const {
  for (const auto& [key, value] : headers) {
    if (AsciiIEquals(key, name)) return value;
  }
  return {};
}

std::string_view HttpRequest::Param(std::string_view key,
                                    std::string_view fallback) const {
  for (const auto& [k, v] : params) {
    if (k == key) return v;
  }
  return fallback;
}

bool HttpRequest::HasParam(std::string_view key) const {
  for (const auto& [k, v] : params) {
    if (k == key) return true;
  }
  return false;
}

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default:  return "Unknown";
  }
}

std::string SerializeResponse(const HttpResponse& response, bool keep_alive,
                              bool head_only) {
  const bool alive = keep_alive && !response.close;
  std::string out = util::StrFormat("HTTP/1.1 %d %s\r\n", response.status,
                                    ReasonPhrase(response.status));
  out += "Content-Type: ";
  out += response.content_type.empty()
             ? std::string_view("application/json")
             : std::string_view(response.content_type);
  out += "\r\n";
  out += util::StrFormat(
      "Content-Length: %zu\r\n", response.body.size());
  out += alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  for (const auto& [name, value] : response.headers) {
    out += name;
    out += ": ";
    out += value;
    out += "\r\n";
  }
  out += "\r\n";
  if (!head_only) out += response.body;
  return out;
}

bool PercentDecode(std::string_view in, std::string* out) {
  out->clear();
  out->reserve(in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    const char c = in[i];
    if (c == '+') {
      out->push_back(' ');
    } else if (c == '%') {
      if (i + 2 >= in.size()) return false;
      const int hi = HexDigit(in[i + 1]);
      const int lo = HexDigit(in[i + 2]);
      if (hi < 0 || lo < 0) return false;
      out->push_back(static_cast<char>((hi << 4) | lo));
      i += 2;
    } else {
      out->push_back(c);
    }
  }
  return true;
}

std::string PercentEncode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    const bool unreserved = std::isalnum(static_cast<unsigned char>(c)) ||
                            c == '-' || c == '_' || c == '.' || c == '~';
    if (unreserved) {
      out.push_back(c);
    } else {
      out += util::StrFormat("%%%02X", static_cast<unsigned char>(c));
    }
  }
  return out;
}

RequestParser::RequestParser() : RequestParser(Limits()) {}

RequestParser::RequestParser(const Limits& limits) : limits_(limits) {}

RequestParser::State RequestParser::Feed(std::string_view data) {
  if (state_ == State::kError) return state_;
  buffer_.append(data.data(), data.size());
  return Advance();
}

RequestParser::State RequestParser::Poll() {
  if (state_ == State::kError) return state_;
  return Advance();
}

void RequestParser::Reset() {
  // Drop the consumed prefix; a pipelined request may already be buffered.
  buffer_.erase(0, pos_);
  pos_ = 0;
  phase_ = Phase::kRequestLine;
  state_ = State::kNeedMore;
  request_ = HttpRequest();
  header_bytes_ = 0;
  body_length_ = 0;
  error_status_ = 0;
  error_message_.clear();
}

RequestParser::State RequestParser::Fail(int status, std::string message) {
  state_ = State::kError;
  error_status_ = status;
  error_message_ = std::move(message);
  return state_;
}

RequestParser::State RequestParser::Advance() {
  if (state_ == State::kComplete) return state_;
  while (phase_ == Phase::kRequestLine || phase_ == Phase::kHeaders) {
    const size_t eol = buffer_.find('\n', pos_);
    if (eol == std::string::npos) {
      // No complete line yet — but an over-limit partial line is already a
      // definite error; reject it now instead of buffering forever.
      const size_t pending = buffer_.size() - pos_;
      if (phase_ == Phase::kRequestLine && pending > limits_.max_request_line) {
        return Fail(431, "request line too long");
      }
      if (phase_ == Phase::kHeaders &&
          header_bytes_ + pending > limits_.max_header_bytes) {
        return Fail(431, "headers too large");
      }
      return state_;  // kNeedMore
    }
    // Accept both CRLF and bare LF line endings.
    std::string_view line(buffer_.data() + pos_, eol - pos_);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    const size_t line_bytes = eol - pos_ + 1;
    pos_ = eol + 1;
    if (phase_ == Phase::kRequestLine) {
      if (line.empty()) continue;  // RFC 7230 §3.5: skip leading empty lines
      if (line_bytes > limits_.max_request_line) {
        return Fail(431, "request line too long");
      }
      if (!ParseRequestLine(line)) return state_;
      phase_ = Phase::kHeaders;
    } else {
      header_bytes_ += line_bytes;
      if (header_bytes_ > limits_.max_header_bytes) {
        return Fail(431, "headers too large");
      }
      if (line.empty()) {
        if (!FinishHeaders()) return state_;
        phase_ = Phase::kBody;
        break;
      }
      if (request_.headers.size() >= limits_.max_headers) {
        return Fail(431, "too many headers");
      }
      if (!ParseHeaderLine(line)) return state_;
    }
  }
  if (phase_ == Phase::kBody) {
    if (buffer_.size() - pos_ < body_length_) return state_;  // kNeedMore
    request_.body.assign(buffer_, pos_, body_length_);
    pos_ += body_length_;
    phase_ = Phase::kDone;
    state_ = State::kComplete;
  }
  return state_;
}

bool RequestParser::ParseRequestLine(std::string_view line) {
  const size_t sp1 = line.find(' ');
  const size_t sp2 = line.rfind(' ');
  if (sp1 == std::string_view::npos || sp2 == sp1) {
    Fail(400, "malformed request line");
    return false;
  }
  request_.method = std::string(line.substr(0, sp1));
  request_.target = std::string(line.substr(sp1 + 1, sp2 - sp1 - 1));
  const std::string_view version = line.substr(sp2 + 1);
  if (!IsToken(request_.method)) {
    Fail(400, "malformed method");
    return false;
  }
  if (version == "HTTP/1.1") {
    request_.version_minor = 1;
    request_.keep_alive = true;
  } else if (version == "HTTP/1.0") {
    request_.version_minor = 0;
    request_.keep_alive = false;
  } else {
    Fail(400, "unsupported HTTP version");
    return false;
  }
  if (request_.target.empty() || request_.target.find(' ') != std::string::npos ||
      request_.target[0] != '/') {
    Fail(400, "malformed request target");
    return false;
  }
  // Split target into path and query, percent-decoding both.
  const std::string& target = request_.target;
  const size_t q = target.find('?');
  const std::string_view raw_path =
      std::string_view(target).substr(0, q == std::string::npos ? target.size()
                                                                : q);
  if (!PercentDecode(raw_path, &request_.path)) {
    Fail(400, "bad percent-encoding in path");
    return false;
  }
  if (q != std::string::npos) {
    const std::string_view query = std::string_view(target).substr(q + 1);
    for (std::string_view piece : util::Split(query, '&')) {
      if (piece.empty()) continue;
      const size_t eq = piece.find('=');
      std::string key;
      std::string value;
      const std::string_view raw_key =
          eq == std::string_view::npos ? piece : piece.substr(0, eq);
      const std::string_view raw_value =
          eq == std::string_view::npos ? std::string_view()
                                       : piece.substr(eq + 1);
      if (!PercentDecode(raw_key, &key) || !PercentDecode(raw_value, &value)) {
        Fail(400, "bad percent-encoding in query parameter");
        return false;
      }
      request_.params.emplace_back(std::move(key), std::move(value));
    }
  }
  return true;
}

bool RequestParser::ParseHeaderLine(std::string_view line) {
  const size_t colon = line.find(':');
  if (colon == std::string_view::npos || colon == 0) {
    Fail(400, "malformed header line");
    return false;
  }
  const std::string_view name = line.substr(0, colon);
  if (!IsToken(name)) {
    // Covers obsolete line folding (leading whitespace) too.
    Fail(400, "malformed header name");
    return false;
  }
  const std::string_view value =
      util::StripAsciiWhitespace(line.substr(colon + 1));
  request_.headers.emplace_back(std::string(name), std::string(value));
  return true;
}

bool RequestParser::FinishHeaders() {
  if (request_.version_minor >= 1 && request_.Header("Host").empty()) {
    Fail(400, "missing Host header");
    return false;
  }
  if (!request_.Header("Transfer-Encoding").empty()) {
    Fail(400, "Transfer-Encoding not supported");
    return false;
  }
  // Connection is a comma-separated token list (RFC 9110 §7.6.1); "close"
  // and "keep-alive" may appear anywhere in it ("keep-alive, TE"), in any
  // case, with optional whitespace around each token. "close" wins if both
  // appear; unrecognized tokens are ignored.
  const std::string_view connection = request_.Header("Connection");
  bool saw_close = false;
  bool saw_keep_alive = false;
  size_t start = 0;
  while (start <= connection.size()) {
    size_t comma = connection.find(',', start);
    if (comma == std::string_view::npos) comma = connection.size();
    const std::string_view token =
        util::StripAsciiWhitespace(connection.substr(start, comma - start));
    if (AsciiIEquals(token, "close")) saw_close = true;
    if (AsciiIEquals(token, "keep-alive")) saw_keep_alive = true;
    start = comma + 1;
  }
  if (saw_close) {
    request_.keep_alive = false;
  } else if (saw_keep_alive) {
    request_.keep_alive = true;
  }
  body_length_ = 0;
  const std::string_view content_length = request_.Header("Content-Length");
  if (!content_length.empty()) {
    uint64_t length = 0;
    for (const char c : content_length) {
      if (c < '0' || c > '9') {
        Fail(400, "malformed Content-Length");
        return false;
      }
      length = length * 10 + static_cast<uint64_t>(c - '0');
      if (length > limits_.max_body_bytes) {
        Fail(413, "request body too large");
        return false;
      }
    }
    body_length_ = static_cast<size_t>(length);
  }
  return true;
}

}  // namespace cnpb::server
