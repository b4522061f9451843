// net::FusionServer — the hardened socket front-end over FusionEngine.
//
// One server owns one engine reference and serves the MCFN protocol
// (net/protocol.hpp) on a Unix-domain socket, a TCP loopback socket, or
// both.  Design rules, in the order they matter:
//
//   * Robust by construction.  Every read and write runs under a
//     deadline (per-frame io_timeout_s; idle connections are closed
//     after idle_timeout_s); malformed, oversized, truncated, or
//     slow-written frames are answered with a structured Error or a
//     clean close — never a crash, never a wedged accept loop.
//   * Overload maps onto the engine's admission control.  A connection
//     above max_connections is refused with Error{Overloaded}; a
//     FuseChain request is submitted through try_submit(), so a full
//     bounded queue sheds as FusionStatus::Rejected — memory stays
//     bounded no matter how hard clients push.
//   * Every accepted request resolves.  A request that outlives its
//     budget is cancelled through its ticket and waited for, so the
//     EngineStats accounting identity (submitted == completed +
//     rejected + cancelled + deadline_exceeded) survives any flood or
//     drain — the chaos suite pins this.
//   * Graceful drain.  stop() (the CLI wires SIGTERM to it) stops
//     accepting, nudges idle connections closed, lets in-flight
//     requests finish inside drain_deadline_s, then cancels the
//     stragglers' tickets and joins every thread.  stop() is idempotent
//     and also runs from the destructor.
//
// Threading: one accept thread plus one thread per live connection
// (bounded by max_connections).  All shared state lives behind the
// annotated "net.server" mutex; counters the hot paths touch are
// relaxed atomics mirrored into ServerStats.
//
// See docs/service.md for the wire format, failure taxonomy, drain
// semantics and the env-knob table.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "support/mutex.hpp"

namespace mcf {
namespace net {

struct ServerOptions {
  /// Unix-domain socket path; empty = no unix listener.  An existing
  /// file at the path is unlinked at bind time (the path belongs to the
  /// server) and removed again on stop.
  std::string unix_path;
  /// TCP port on 127.0.0.1; -1 = no TCP listener, 0 = ephemeral (read
  /// the bound port back through port()).  Loopback only — this is a
  /// same-host front door, not an internet-facing one.
  int tcp_port = -1;
  /// Hard cap on concurrently served connections; the next accept is
  /// refused with Error{Overloaded} and closed.
  int max_connections = 64;
  /// Per-frame read/write budget: once a frame's first byte arrives (or
  /// a response write starts), the whole frame must complete within
  /// this window — a slowloris peer costs at most idle + io per frame.
  double io_timeout_s = 10.0;
  /// How long a connection may sit between requests before the server
  /// closes it.
  double idle_timeout_s = 60.0;
  /// Default per-request budget when the request carries timeout_s = 0.
  /// On expiry the ticket is cancelled and waited for — the request
  /// resolves (usually Cancelled), it is never abandoned.
  double request_timeout_s = 300.0;
  /// Drain budget of stop(): in-flight requests that have not resolved
  /// when it expires get their tickets cancelled.
  double drain_deadline_s = 10.0;
};

/// Monotonic counters (plus the `active` gauge) since start().
struct ServerStats {
  std::uint64_t accepted = 0;          ///< connections accepted
  std::size_t active = 0;              ///< connections currently served
  std::uint64_t overload_sheds = 0;    ///< refused at max_connections
  std::uint64_t protocol_errors = 0;   ///< malformed frames/headers/bodies
  std::uint64_t version_mismatches = 0;///< refused with Error{BadVersion}
  std::uint64_t oversized_frames = 0;  ///< refused with Error{FrameTooLarge}
  std::uint64_t idle_closes = 0;       ///< closed at idle_timeout_s
  std::uint64_t io_timeouts = 0;       ///< frames abandoned mid-read/write
  std::uint64_t requests = 0;          ///< FuseChain requests admitted
  std::uint64_t requests_ok = 0;       ///< ... resolved FusionStatus::Ok
  std::uint64_t requests_shed = 0;     ///< ... resolved Rejected (admission)

  /// Every field as one JSON object, keys named as the fields.
  [[nodiscard]] std::string to_json() const;
};

class FusionServer {
 public:
  /// The engine must outlive the server.
  explicit FusionServer(FusionEngine& engine, ServerOptions opt = {});
  ~FusionServer();  ///< stop()s if still running

  FusionServer(const FusionServer&) = delete;
  FusionServer& operator=(const FusionServer&) = delete;

  /// Binds the configured listeners and starts the accept thread.
  /// False (with `err` set) when no listener was configured or a
  /// bind/listen failed; a half-configured start is fully rolled back.
  [[nodiscard]] bool start(std::string* err);

  /// Graceful drain (see file comment); blocks until every connection
  /// thread has been joined.  Safe to call twice and from a signal-
  /// handling thread (never from an async signal handler directly).
  void stop();

  [[nodiscard]] bool running() const;
  /// The bound TCP port (useful with tcp_port = 0); 0 when TCP is off.
  [[nodiscard]] int port() const;
  [[nodiscard]] const ServerOptions& options() const noexcept { return opt_; }
  [[nodiscard]] ServerStats stats() const;
  /// True from the moment stop() begins; new work is refused with
  /// Error{Draining} while existing requests run out.
  [[nodiscard]] bool draining() const noexcept {
    return draining_.load(std::memory_order_relaxed);
  }

 private:
  struct Conn;

  void accept_loop();
  void handle_connection(Conn* conn);
  /// One decoded FuseChain request end-to-end; false closes the
  /// connection.
  [[nodiscard]] bool handle_fuse(int fd, const std::string& payload);
  [[nodiscard]] bool send_frame(int fd, const std::string& frame);
  void reap_finished_locked() MCF_REQUIRES(mu_);

  FusionEngine& engine_;
  ServerOptions opt_;

  mutable Mutex mu_{"net.server"};
  std::vector<std::unique_ptr<Conn>> conns_ MCF_GUARDED_BY(mu_);
  bool running_ MCF_GUARDED_BY(mu_) = false;
  std::thread accept_thread_ MCF_GUARDED_BY(mu_);

  int unix_fd_ = -1;    ///< listeners; owned by the accept thread after
  int tcp_fd_ = -1;     ///< start(), closed as it exits
  int wake_rd_ = -1;    ///< self-pipe: stop() wakes the accept poll
  int wake_wr_ = -1;
  int bound_port_ = 0;

  std::atomic<bool> draining_{false};
  /// Set by stop(): when in-flight waits pass this point they cancel.
  std::atomic<std::int64_t> drain_hard_ns_{0};

  std::atomic<std::size_t> active_{0};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> overload_sheds_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> version_mismatches_{0};
  std::atomic<std::uint64_t> oversized_frames_{0};
  std::atomic<std::uint64_t> idle_closes_{0};
  std::atomic<std::uint64_t> io_timeouts_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> requests_ok_{0};
  std::atomic<std::uint64_t> requests_shed_{0};
};

}  // namespace net
}  // namespace mcf
