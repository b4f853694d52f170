#ifndef CNPROBASE_SERVER_SERVER_H_
#define CNPROBASE_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "server/http.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace cnpb::server {

// An HTTP/1.1 server built on epoll edge-triggered event loops (Linux),
// with a portable poll(2) fallback. N event loops run as long-lived tasks
// on a server-owned util::ThreadPool; every loop waits on the shared
// non-blocking listening socket (the kernel load-balances accepts, via
// EPOLLEXCLUSIVE where available) and owns the connections it accepted
// outright, so the steady state needs no cross-thread handoff per request:
// read -> parse -> handle -> write all happen on one loop. Handlers
// therefore must be fast and non-blocking — the ApiService lookups they
// wrap are sub-microsecond in-memory reads, which is exactly the workload
// this layout is built for (DESIGN.md §11).
//
// Each loop keeps a hashed timer wheel over its connections. The wheel
// enforces two independent timeouts: `idle_timeout` for connections with
// nothing queued (keep-alive peers that went quiet, half-sent requests),
// and `write_stall_timeout` for connections with unflushed output whose
// peer stopped reading — the slow-loris reader that would otherwise pin an
// fd forever. Queued responses are flushed with writev scatter-gather, one
// syscall per batch of pipelined responses.
//
// Overload and failure map onto the protocol instead of hiding behind it:
// the handler surfaces util::Status codes that the service layer renders as
// 429/503/504 JSON (see service.h), oversized or malformed requests get
// 400/431/413 from the parser, a full connection table answers 503 before
// closing, and an idle half-read request gets a best-effort 408. Fault
// points server.accept / server.read / server.write let the chaos tests
// inject failures at each socket boundary.
//
// Shutdown is a graceful drain: Stop() (or the SIGTERM handler in
// cnprobase_serve calling it) closes the listening socket, lets in-flight
// requests finish and their responses flush within `drain_deadline`, then
// closes everything that remains (half-read requests get a best-effort
// 504). Stop() only initiates the drain; Wait() joins it.
class HttpServer {
 public:
  // Event notification backend. kAuto picks epoll on Linux and poll
  // elsewhere. Nothing in the repo forces kPoll any more; the poll loop and
  // this enum stay until perfbench, which sets kEpoll, stops naming them.
  enum class Poller { kAuto, kEpoll, kPoll };

  struct Config {
    std::string host = "127.0.0.1";
    uint16_t port = 0;  // 0 = ephemeral; see port() after Start()
    int num_threads = 4;
    size_t max_connections = 4096;  // over this, accept + answer 503 + close
    RequestParser::Limits parser_limits;
    Poller poller = Poller::kAuto;
    // Reclaim connections with no queued output that have been silent this
    // long (0 disables). Half-read requests get a best-effort 408.
    std::chrono::milliseconds idle_timeout{60000};
    // Reclaim connections whose queued output has made no write progress
    // this long — the peer stopped reading (0 disables).
    std::chrono::milliseconds write_stall_timeout{10000};
    std::chrono::milliseconds drain_deadline{5000};
    // When > 0, SO_SNDBUF for accepted sockets. A test/bench hook: a tiny
    // send buffer makes write stalls reproducible on loopback.
    int so_sndbuf = 0;
  };

  // Counters are cumulative since Start() (open_connections is a gauge);
  // exposed for tests and the bench without going through the registry.
  struct Stats {
    uint64_t connections_accepted = 0;
    uint64_t connections_rejected = 0;  // 503: connection table full
    uint64_t requests = 0;              // complete requests handled
    uint64_t parse_errors = 0;          // 4xx answered by the parser
    uint64_t io_errors = 0;             // read/write failures (EPIPE, faults)
    uint64_t idle_timeouts = 0;         // reclaimed by the wheel: silent
    uint64_t write_stall_timeouts = 0;  // reclaimed by the wheel: stalled
    size_t open_connections = 0;        // currently open, across all loops
  };

  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  HttpServer(const Config& config, Handler handler);
  ~HttpServer();  // implies Stop() + Wait()

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  // Binds, listens, and launches the event loops. After an ok() return,
  // port() is the bound port and the server is accepting. Fails with
  // FailedPrecondition when Poller::kEpoll is forced on a non-Linux build.
  util::Status Start();

  // Initiates graceful drain (idempotent, safe from a signal-watcher
  // thread): stop accepting, finish in-flight work within drain_deadline.
  void Stop();

  // Blocks until every event loop has exited. Safe to call once.
  void Wait();

  uint16_t port() const { return port_; }
  bool running() const { return state_.load() == kRunning; }
  // "epoll" or "poll"; resolved from Config::poller at construction.
  const char* poller_name() const;
  Stats stats() const;

 private:
  enum State : int { kIdle, kRunning, kDraining, kStopped };

  struct Connection;
  struct Loop;

  void RunLoop(size_t index);
  void RunPollLoop(Loop* loop);
#ifdef __linux__
  void RunEpollLoop(Loop* loop);
  util::Status SetupEpoll(Loop* loop);
#endif

  // Drains the kernel accept queue into `loop`. Safe when the listening
  // socket has already been closed by Stop().
  void AcceptPending(Loop* loop, std::chrono::steady_clock::time_point now);
  // One drain-state pass; returns true when the loop should exit.
  bool DrainPass(Loop* loop, std::chrono::steady_clock::time_point now);
  // The instant the timer wheel must reclaim `conn` if nothing changes.
  std::chrono::steady_clock::time_point DeadlineFor(
      const Connection& conn,
      std::chrono::steady_clock::time_point now) const;
  // Advances the wheel to `now`: expired connections are reclaimed, still-
  // live ones are rescheduled at their current deadline.
  void ExpireTimers(Loop* loop, std::chrono::steady_clock::time_point now);
  // Re-schedules `conn` in the wheel when its effective deadline moved
  // earlier than the entry the wheel holds (e.g. output was just queued, so
  // the short write-stall timeout now governs instead of idle_timeout).
  void TightenDeadline(Loop* loop, Connection* conn,
                       std::chrono::steady_clock::time_point now);
  // Dispatches one readiness notification. Returns false when the
  // connection must be closed.
  bool ServiceConnection(Connection* conn, bool readable, bool writable);
  // Reads until the socket drains (mandatory under edge-triggered epoll);
  // parses and answers every complete request.
  bool ServiceRead(Connection* conn);
  // writev-flushes the queued responses until done or the socket is full.
  bool FlushWrites(Connection* conn);
  void HandleParsed(Connection* conn);
  void CloseConnection(Loop* loop, Connection* conn);

  Config config_;
  Handler handler_;
  bool use_epoll_ = false;
  // Atomic: Stop() closes it while event loops are still reading it for
  // their wait sets (see the drain protocol in DESIGN.md §9/§11).
  std::atomic<int> listen_fd_{-1};
  uint16_t port_ = 0;
  std::atomic<int> state_{kIdle};
  std::mutex stop_mu_;  // serialises Stop(); guards drain_started_ write
  std::chrono::steady_clock::time_point drain_started_;

  // One pool lane per event loop; the dedicated serve thread contributes
  // the remaining lane via ParallelFor (see Start()).
  std::unique_ptr<util::ThreadPool> pool_;
  std::thread serve_thread_;
  std::vector<std::unique_ptr<Loop>> loops_;

  std::atomic<size_t> open_connections_{0};
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> parse_errors_{0};
  std::atomic<uint64_t> io_errors_{0};
  std::atomic<uint64_t> idle_timeouts_{0};
  std::atomic<uint64_t> stall_timeouts_{0};

  // Registry instruments (looked up once; written on the serving path).
  obs::Counter* const m_accepted_ =
      obs::MetricsRegistry::Global().counter("http.connections.accepted");
  obs::Counter* const m_closed_ =
      obs::MetricsRegistry::Global().counter("http.connections.closed");
  obs::Counter* const m_rejected_ =
      obs::MetricsRegistry::Global().counter("http.connections.rejected");
  obs::Counter* const m_requests_ =
      obs::MetricsRegistry::Global().counter("http.requests");
  obs::Counter* const m_parse_errors_ =
      obs::MetricsRegistry::Global().counter("http.parse_errors");
  obs::Counter* const m_io_errors_ =
      obs::MetricsRegistry::Global().counter("http.io_errors");
  obs::Counter* const m_idle_timeouts_ =
      obs::MetricsRegistry::Global().counter("http.connections.idle_timeout");
  obs::Counter* const m_stall_timeouts_ = obs::MetricsRegistry::Global()
      .counter("http.connections.write_stall_timeout");
};

}  // namespace cnpb::server

#endif  // CNPROBASE_SERVER_SERVER_H_
