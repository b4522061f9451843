#include "net/client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>
#include <utility>

#include "support/framing.hpp"
#include "support/rng.hpp"

namespace mcf {
namespace net {

namespace {

using framing::Deadline;
using framing::IoStatus;

void ignore_sigpipe_once() {
  static std::once_flag once;
  std::call_once(once, [] { ::signal(SIGPIPE, SIG_IGN); });
}

[[nodiscard]] std::string errno_text(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// Only these failures are idempotent-safe to retry (see client.hpp).
[[nodiscard]] bool retryable(RpcStatus s) noexcept {
  return s == RpcStatus::ConnectFailed || s == RpcStatus::VersionMismatch ||
         s == RpcStatus::ServerDraining;
}

/// Maps a structured server Error onto the client taxonomy.
[[nodiscard]] RpcStatus status_from_error(const ErrorMsg& err) noexcept {
  switch (err.code) {
    case ErrorCode::BadVersion: return RpcStatus::VersionMismatch;
    case ErrorCode::Overloaded: return RpcStatus::Overloaded;
    case ErrorCode::Draining: return RpcStatus::ServerDraining;
    case ErrorCode::BadMagic:
    case ErrorCode::BadFrame:
    case ErrorCode::FrameTooLarge:
    case ErrorCode::UnknownType:
    case ErrorCode::Internal: return RpcStatus::ServerError;
  }
  return RpcStatus::ServerError;
}

/// Finishes a non-blocking connect under a deadline; 0 on success, else
/// an errno value.
[[nodiscard]] int await_connect(int fd, const Deadline& dl) {
  for (;;) {
    pollfd p{};
    p.fd = fd;
    p.events = POLLOUT;
    const auto now = std::chrono::steady_clock::now();
    if (now >= dl) return ETIMEDOUT;
    const auto left =
        std::chrono::duration_cast<std::chrono::milliseconds>(dl - now);
    const int rc = ::poll(&p, 1, static_cast<int>(left.count()) + 1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return errno;
    }
    if (rc == 0) continue;  // re-check the deadline
    int soerr = 0;
    socklen_t len = sizeof(soerr);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &len) != 0) {
      return errno;
    }
    return soerr;
  }
}

}  // namespace

const char* rpc_status_name(RpcStatus s) noexcept {
  switch (s) {
    case RpcStatus::Ok: return "ok";
    case RpcStatus::ConnectFailed: return "connect-failed";
    case RpcStatus::Timeout: return "timeout";
    case RpcStatus::ProtocolError: return "protocol-error";
    case RpcStatus::VersionMismatch: return "version-mismatch";
    case RpcStatus::Overloaded: return "overloaded";
    case RpcStatus::ServerDraining: return "server-draining";
    case RpcStatus::ServerError: return "server-error";
  }
  return "unknown";
}

FusionClient::FusionClient(std::string endpoint, ClientOptions opt)
    : endpoint_(std::move(endpoint)),
      opt_(opt),
      jitter_state_(hash_combine(hash_string(endpoint_), 0x6d63666eULL)) {}

int FusionClient::connect_fd(std::string* err) const {
  std::string target = endpoint_;
  const bool unix_prefixed = target.rfind("unix:", 0) == 0;
  if (unix_prefixed) target = target.substr(5);
  const bool is_unix = unix_prefixed || target.find('/') != std::string::npos;

  int fd = -1;
  if (is_unix) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (target.empty() || target.size() >= sizeof(addr.sun_path)) {
      *err = "bad unix socket path '" + target + "'";
      return -1;
    }
    std::memcpy(addr.sun_path, target.c_str(), target.size() + 1);
    fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
    if (fd < 0) {
      *err = errno_text("socket");
      return -1;
    }
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 &&
        errno != EINPROGRESS && errno != EAGAIN) {
      *err = errno_text("connect");
      ::close(fd);
      return -1;
    }
  } else {
    // "host:port", ":port" or bare "port"; host must be loopback.
    std::string host = "127.0.0.1";
    std::string port_str = target;
    const std::size_t colon = target.rfind(':');
    if (colon != std::string::npos) {
      host = target.substr(0, colon);
      port_str = target.substr(colon + 1);
      if (host.empty()) host = "127.0.0.1";
    }
    if (host != "127.0.0.1" && host != "localhost") {
      *err = "refusing non-loopback host '" + host + "'";
      return -1;
    }
    char* end = nullptr;
    const long port = std::strtol(port_str.c_str(), &end, 10);
    if (port_str.empty() || end == nullptr || *end != '\0' || port <= 0 ||
        port > 65535) {
      *err = "bad port '" + port_str + "'";
      return -1;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
    if (fd < 0) {
      *err = errno_text("socket");
      return -1;
    }
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 &&
        errno != EINPROGRESS) {
      *err = errno_text("connect");
      ::close(fd);
      return -1;
    }
  }

  const Deadline dl = framing::deadline_after(opt_.connect_timeout_s);
  const int soerr = await_connect(fd, dl);
  if (soerr != 0) {
    *err = std::string("connect: ") + std::strerror(soerr);
    ::close(fd);
    return -1;
  }
  return fd;
}

double FusionClient::backoff_delay(int attempt) {
  double base = opt_.backoff_initial_s;
  for (int i = 0; i < attempt && base < opt_.backoff_max_s; ++i) base *= 2.0;
  if (base > opt_.backoff_max_s) base = opt_.backoff_max_s;
  jitter_state_ = splitmix64(jitter_state_);
  const double u = static_cast<double>(jitter_state_ >> 11) * 0x1.0p-53;
  return base * (0.5 + 0.5 * u);
}

RpcResult FusionClient::once(const std::string& request_frame, MsgType expect,
                             std::string* payload_out) {
  ignore_sigpipe_once();
  RpcResult res;

  std::string err;
  const int fd = connect_fd(&err);
  if (fd < 0) {
    res.status = RpcStatus::ConnectFailed;
    res.detail = err;
    return res;
  }

  const auto fail = [&](RpcStatus s, std::string detail) {
    ::close(fd);
    res.status = s;
    res.detail = std::move(detail);
    return res;
  };

  const Deadline wdl = framing::deadline_after(opt_.io_timeout_s);
  if (framing::write_all(fd, request_frame.data(), request_frame.size(),
                         &wdl) != IoStatus::Ok) {
    return fail(RpcStatus::Timeout, "request: send stalled");
  }

  // A fuse may legitimately take the whole server-side request budget
  // before its result frame appears; wait generously past io_timeout_s.
  const double extra =
      opt_.request_timeout_s > 0.0 ? opt_.request_timeout_s : 600.0;
  const Deadline rdl = framing::deadline_after(opt_.io_timeout_s + extra);
  std::string payload;
  const IoStatus rs = framing::read_frame(
      fd, &payload, framing::default_max_frame_bytes(), &rdl);
  if (rs == IoStatus::Timeout) {
    return fail(RpcStatus::Timeout, "request: no reply in time");
  }
  if (rs != IoStatus::Ok) {
    return fail(RpcStatus::ProtocolError,
                std::string("request: ") + framing::io_status_name(rs) +
                    " while reading reply");
  }

  // Error frames and version skew map onto the client taxonomy.
  MsgType type{};
  std::uint8_t seen = 0;
  switch (decode_header(payload, &type, &seen)) {
    case HeaderStatus::Ok: break;
    case HeaderStatus::BadVersion:
      return fail(RpcStatus::VersionMismatch,
                  "request: server speaks MCFN v" + std::to_string(int{seen}) +
                      ", this client v" + std::to_string(int{kProtocolVersion}));
    default:
      return fail(RpcStatus::ProtocolError,
                  "request: reply is not an MCFN frame");
  }
  if (type == MsgType::Error) {
    ErrorMsg em;
    if (!decode_error(payload, &em)) {
      return fail(RpcStatus::ProtocolError, "request: undecodable Error frame");
    }
    return fail(status_from_error(em),
                std::string(error_code_name(em.code)) + ": " + em.detail);
  }
  if (type != expect) {
    return fail(RpcStatus::ProtocolError,
                std::string("request: unexpected ") + msg_type_name(type));
  }

  ::close(fd);
  res.status = RpcStatus::Ok;
  *payload_out = std::move(payload);
  return res;
}

RpcResult FusionClient::call(const std::string& request_frame, MsgType expect,
                             std::string* payload_out) {
  RpcResult res;
  for (int attempt = 0;; ++attempt) {
    res = once(request_frame, expect, payload_out);
    res.attempts = attempt + 1;
    if (res.status == RpcStatus::Ok || !retryable(res.status) ||
        attempt >= opt_.max_retries) {
      return res;
    }
    const double delay = backoff_delay(attempt);
    std::this_thread::sleep_for(std::chrono::duration<double>(delay));
  }
}

RpcResult FusionClient::fuse(const ChainSpec& chain) {
  FuseRequest req = request_from_chain(chain);
  req.timeout_s = opt_.request_timeout_s;
  return fuse_request(std::move(req));
}

RpcResult FusionClient::fuse_request(FuseRequest req) {
  if (req.id == 0) req.id = next_id_++;
  if (req.timeout_s <= 0.0) req.timeout_s = opt_.request_timeout_s;
  std::string payload;
  RpcResult res =
      call(encode_fuse_request(req), MsgType::FuseResult, &payload);
  if (res.status != RpcStatus::Ok) return res;
  if (!decode_fuse_response(payload, &res.response)) {
    res.status = RpcStatus::ProtocolError;
    res.detail = "undecodable FuseResult frame";
  }
  return res;
}

RpcResult FusionClient::query_stats(std::string* stats_json) {
  std::string payload;
  RpcResult res = call(encode_stats_query(), MsgType::StatsResult, &payload);
  if (res.status != RpcStatus::Ok) return res;
  if (!decode_stats_result(payload, stats_json)) {
    res.status = RpcStatus::ProtocolError;
    res.detail = "undecodable StatsResult frame";
  }
  return res;
}

}  // namespace net
}  // namespace mcf
