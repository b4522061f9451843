// net::FusionClient — the MCFN client library.
//
// One client talks to one endpoint (Unix-domain path or loopback
// host:port) with a fresh connection per call: connect under
// connect_timeout_s, one request frame out, one response frame back
// under io_timeout_s, close.
// Stateless calls keep the failure model simple — there is no sticky
// half-dead connection to reason about.
//
// Retry policy (the part worth reading twice): a failed call is retried
// at most max_retries times with capped exponential backoff plus
// deterministic jitter, and ONLY for failures that are idempotent-safe
// because the request provably never entered the engine:
//
//   * connect refused / connect timeout   (no bytes ever sent)
//   * Error{BadVersion}                   (the frame header's version
//                                          byte was refused before the
//                                          request reached the engine)
//   * Error{Draining}                     (server refused the request
//                                          while shutting down)
//
// Everything else — including Overloaded, Timeout mid-request, and
// protocol errors — is surfaced to the caller exactly once: the server
// may have (or may yet) run the request, and "run the tuner twice" is
// not this layer's call to make.
//
// See docs/service.md for the wire format and retry guidance.
#pragma once

#include <cstdint>
#include <string>

#include "ir/chain.hpp"
#include "net/protocol.hpp"

namespace mcf {
namespace net {

struct ClientOptions {
  /// Budget for one connect(2) (per attempt, not across retries).
  double connect_timeout_s = 5.0;
  /// Per-frame read/write budget once connected.
  double io_timeout_s = 30.0;
  /// Default FuseRequest::timeout_s when the request carries 0; 0 keeps
  /// the server's own default.
  double request_timeout_s = 0.0;
  /// Retries AFTER the first attempt, for idempotent-safe failures only.
  int max_retries = 3;
  /// Backoff ladder: min(backoff_max_s, backoff_initial_s * 2^attempt),
  /// scaled by a jitter in [0.5, 1.0] seeded from the endpoint.
  double backoff_initial_s = 0.05;
  double backoff_max_s = 2.0;
};

/// The client's failure taxonomy.  Engine-level failures (Rejected,
/// DeadlineExceeded, MeasureFailed, ...) are NOT RpcStatus values — they
/// arrive as RpcStatus::Ok with the FusionStatus inside the response.
enum class RpcStatus : std::uint8_t {
  Ok = 0,           ///< got a FuseResult/StatsResult; see response.status
  ConnectFailed,    ///< connect refused/timed out (after retries)
  Timeout,          ///< connected, but a frame missed io_timeout_s
  ProtocolError,    ///< malformed/unexpected bytes from the server
  VersionMismatch,  ///< server refused our protocol revision
  Overloaded,       ///< Error{Overloaded}: connection cap hit
  ServerDraining,   ///< Error{Draining} (after retries)
  ServerError,      ///< any other structured Error from the server
};

[[nodiscard]] const char* rpc_status_name(RpcStatus s) noexcept;

struct RpcResult {
  RpcStatus status = RpcStatus::Ok;
  /// Connection attempts spent (1 = first try succeeded).
  int attempts = 0;
  /// Failure detail: errno text, server Error detail, parse context.
  std::string detail;
  /// Valid when status == Ok and the call was a fuse.
  FuseResponse response;
};

class FusionClient {
 public:
  /// `endpoint` is either a Unix-domain path ("unix:/run/mcf.sock", or
  /// any string containing '/') or a loopback TCP "host:port" /
  /// ":port" / "port" (host, when given, must be 127.0.0.1 or
  /// localhost).
  explicit FusionClient(std::string endpoint, ClientOptions opt = {});

  /// Tunes one chain through the remote engine.  Blocks for up to
  /// (connect + request budget + io) per attempt.
  [[nodiscard]] RpcResult fuse(const ChainSpec& chain);
  /// Same, with explicit wire-level control (correlation id, timeout).
  [[nodiscard]] RpcResult fuse_request(FuseRequest req);
  /// Fetches the server's stats JSON (engine + server sections).
  [[nodiscard]] RpcResult query_stats(std::string* stats_json);

  [[nodiscard]] const std::string& endpoint() const noexcept {
    return endpoint_;
  }
  [[nodiscard]] const ClientOptions& options() const noexcept { return opt_; }

 private:
  /// One full call with retry loop around `once`.
  RpcResult call(const std::string& request_frame, MsgType expect,
                 std::string* payload_out);
  /// One connection lifetime: connect, send, receive.
  RpcResult once(const std::string& request_frame, MsgType expect,
                 std::string* payload_out);
  [[nodiscard]] int connect_fd(std::string* err) const;
  [[nodiscard]] double backoff_delay(int attempt);

  std::string endpoint_;
  ClientOptions opt_;
  std::uint64_t jitter_state_ = 0;
  std::uint64_t next_id_ = 1;
};

}  // namespace net
}  // namespace mcf
