#include "net/server.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "net/protocol.hpp"
#include "support/framing.hpp"
#include "support/json.hpp"
#include "support/logging.hpp"

namespace mcf {
namespace net {

namespace {

using framing::Deadline;
using framing::IoStatus;

[[nodiscard]] std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void ignore_sigpipe_once() {
  // A peer that disconnects mid-write must surface as EPIPE, not kill
  // the process (same contract as the sandbox pipes).
  static const int installed = [] {
    ::signal(SIGPIPE, SIG_IGN);
    return 0;
  }();
  (void)installed;
}

}  // namespace

struct FusionServer::Conn {
  /// Owned for the Conn's whole lifetime and closed only here, after the
  /// handler thread was joined — so stop()'s shutdown() nudge can never
  /// hit a recycled fd number.
  int fd = -1;
  std::thread th;
  std::atomic<bool> done{false};

  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
};

FusionServer::FusionServer(FusionEngine& engine, ServerOptions opt)
    : engine_(engine), opt_(std::move(opt)) {
  if (opt_.max_connections < 1) opt_.max_connections = 1;
}

FusionServer::~FusionServer() { stop(); }

bool FusionServer::start(std::string* err) {
  ignore_sigpipe_once();
  {
    const LockGuard lock(mu_);
    if (running_) {
      if (err != nullptr) *err = "server already running";
      return false;
    }
  }
  if (opt_.unix_path.empty() && opt_.tcp_port < 0) {
    if (err != nullptr) *err = "no listener configured (unix path or tcp port)";
    return false;
  }

  const auto fail = [&](const std::string& what) {
    if (err != nullptr) *err = what + ": " + std::strerror(errno);
    if (unix_fd_ >= 0) ::close(unix_fd_);
    if (tcp_fd_ >= 0) ::close(tcp_fd_);
    if (wake_rd_ >= 0) ::close(wake_rd_);
    if (wake_wr_ >= 0) ::close(wake_wr_);
    unix_fd_ = tcp_fd_ = wake_rd_ = wake_wr_ = -1;
    return false;
  };

  if (!opt_.unix_path.empty()) {
    if (opt_.unix_path.size() >= sizeof(sockaddr_un{}.sun_path)) {
      if (err != nullptr) *err = "unix socket path too long";
      return false;
    }
    unix_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (unix_fd_ < 0) return fail("socket(unix)");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, opt_.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(opt_.unix_path.c_str());  // the path belongs to this server
    if (::bind(unix_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      return fail("bind(" + opt_.unix_path + ")");
    }
    if (::listen(unix_fd_, 64) != 0) return fail("listen(unix)");
  }
  if (opt_.tcp_port >= 0) {
    tcp_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (tcp_fd_ < 0) return fail("socket(tcp)");
    const int one = 1;
    (void)::setsockopt(tcp_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(opt_.tcp_port));
    if (::bind(tcp_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      return fail("bind(127.0.0.1:" + std::to_string(opt_.tcp_port) + ")");
    }
    if (::listen(tcp_fd_, 64) != 0) return fail("listen(tcp)");
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(tcp_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
        0) {
      bound_port_ = static_cast<int>(ntohs(bound.sin_port));
    }
  }
  int wake[2];
  if (::pipe2(wake, O_CLOEXEC) != 0) return fail("pipe2(wake)");
  wake_rd_ = wake[0];
  wake_wr_ = wake[1];

  draining_.store(false, std::memory_order_relaxed);
  {
    const LockGuard lock(mu_);
    running_ = true;
    accept_thread_ = std::thread([this] { accept_loop(); });
  }
  return true;
}

void FusionServer::stop() {
  std::thread acceptor;
  {
    const LockGuard lock(mu_);
    if (!running_) return;
    running_ = false;
    acceptor = std::move(accept_thread_);
  }
  draining_.store(true, std::memory_order_relaxed);
  const double drain_s = opt_.drain_deadline_s > 0 ? opt_.drain_deadline_s : 0;
  drain_hard_ns_.store(
      now_ns() + static_cast<std::int64_t>(drain_s * 1e9),
      std::memory_order_relaxed);
  // Wake the accept poll; it closes the listeners and exits.
  if (wake_wr_ >= 0) {
    const char b = 1;
    while (::write(wake_wr_, &b, 1) < 0 && errno == EINTR) {
    }
  }
  if (acceptor.joinable()) acceptor.join();

  // Nudge every connection: SHUT_RD wakes idle readers with EOF without
  // disturbing an in-flight response write.
  {
    const LockGuard lock(mu_);
    for (const auto& c : conns_) {
      if (c->fd >= 0) (void)::shutdown(c->fd, SHUT_RD);
    }
  }
  // Connection threads bound their own exit (in-flight waits cancel at
  // drain_hard_ns_); join them all.
  std::vector<std::unique_ptr<Conn>> finished;
  {
    const LockGuard lock(mu_);
    finished.swap(conns_);
  }
  for (const auto& c : finished) {
    if (c->th.joinable()) c->th.join();
  }
  if (wake_rd_ >= 0) ::close(wake_rd_);
  if (wake_wr_ >= 0) ::close(wake_wr_);
  wake_rd_ = wake_wr_ = -1;
  if (!opt_.unix_path.empty()) ::unlink(opt_.unix_path.c_str());
  // The engine may still be settling cancelled jobs; wait for the queue
  // to quiesce so a post-stop stats() snapshot is stable.  Bounded: the
  // tickets above were all resolved or cancelled.
  (void)engine_.wait_idle(drain_s > 0 ? drain_s : 10.0);
}

bool FusionServer::running() const {
  const LockGuard lock(mu_);
  return running_;
}

int FusionServer::port() const { return bound_port_; }

ServerStats FusionServer::stats() const {
  ServerStats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.active = active_.load(std::memory_order_relaxed);
  s.overload_sheds = overload_sheds_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  s.version_mismatches = version_mismatches_.load(std::memory_order_relaxed);
  s.oversized_frames = oversized_frames_.load(std::memory_order_relaxed);
  s.idle_closes = idle_closes_.load(std::memory_order_relaxed);
  s.io_timeouts = io_timeouts_.load(std::memory_order_relaxed);
  s.requests = requests_.load(std::memory_order_relaxed);
  s.requests_ok = requests_ok_.load(std::memory_order_relaxed);
  s.requests_shed = requests_shed_.load(std::memory_order_relaxed);
  return s;
}

void FusionServer::reap_finished_locked() {
  // Joining a finished thread is instant; live connections stay.
  std::erase_if(conns_, [](const std::unique_ptr<Conn>& c) {
    if (!c->done.load(std::memory_order_acquire)) return false;
    if (c->th.joinable()) c->th.join();
    return true;
  });
}

void FusionServer::accept_loop() {
  for (;;) {
    struct pollfd pfds[3];
    nfds_t n = 0;
    int unix_idx = -1;
    int tcp_idx = -1;
    if (unix_fd_ >= 0) {
      unix_idx = static_cast<int>(n);
      pfds[n++] = {unix_fd_, POLLIN, 0};
    }
    if (tcp_fd_ >= 0) {
      tcp_idx = static_cast<int>(n);
      pfds[n++] = {tcp_fd_, POLLIN, 0};
    }
    const int wake_idx = static_cast<int>(n);
    pfds[n++] = {wake_rd_, POLLIN, 0};

    const int rc = ::poll(pfds, n, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      MCF_LOG(Warn) << "server accept poll failed: " << std::strerror(errno);
      break;
    }
    if ((pfds[wake_idx].revents & (POLLIN | POLLERR | POLLHUP)) != 0) break;

    for (const int idx : {unix_idx, tcp_idx}) {
      if (idx < 0 || (pfds[idx].revents & POLLIN) == 0) continue;
      const int lfd = pfds[idx].fd;
      const int cfd = ::accept4(lfd, nullptr, nullptr, SOCK_CLOEXEC);
      if (cfd < 0) continue;  // transient (ECONNABORTED, EMFILE, ...)
      accepted_.fetch_add(1, std::memory_order_relaxed);
      set_nonblocking(cfd);

      if (active_.load(std::memory_order_relaxed) >=
          static_cast<std::size_t>(opt_.max_connections)) {
        // Best-effort refusal under a short deadline; a peer that will
        // not even read two dozen bytes just gets the close.
        overload_sheds_.fetch_add(1, std::memory_order_relaxed);
        const std::string frame = encode_error(
            ErrorCode::Overloaded,
            "connection limit " + std::to_string(opt_.max_connections) +
                " reached; retry with backoff");
        const Deadline dl = framing::deadline_after(1.0);
        (void)framing::write_all(cfd, frame.data(), frame.size(), &dl);
        ::close(cfd);
        continue;
      }

      active_.fetch_add(1, std::memory_order_relaxed);
      auto conn = std::make_unique<Conn>();
      conn->fd = cfd;
      Conn* raw = conn.get();
      {
        const LockGuard lock(mu_);
        reap_finished_locked();
        conns_.push_back(std::move(conn));
      }
      raw->th = std::thread([this, raw] { handle_connection(raw); });
    }
  }
  if (unix_fd_ >= 0) ::close(unix_fd_);
  if (tcp_fd_ >= 0) ::close(tcp_fd_);
  unix_fd_ = tcp_fd_ = -1;
}

bool FusionServer::send_frame(int fd, const std::string& frame) {
  const Deadline dl = framing::deadline_after(opt_.io_timeout_s);
  const IoStatus ws = framing::write_all(fd, frame.data(), frame.size(), &dl);
  if (ws == IoStatus::Timeout) {
    io_timeouts_.fetch_add(1, std::memory_order_relaxed);
  }
  return ws == IoStatus::Ok;
}

void FusionServer::handle_connection(Conn* conn) {
  const int fd = conn->fd;
  const std::size_t frame_cap = framing::default_max_frame_bytes();
  bool open = true;
  while (open) {
    // Idle phase: wait for the first byte (or EOF) of the next frame.
    const Deadline idle_dl = framing::deadline_after(opt_.idle_timeout_s);
    const IoStatus ready = framing::wait_readable(fd, &idle_dl);
    if (ready == IoStatus::Timeout) {
      idle_closes_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    if (ready != IoStatus::Ok) break;

    // Frame phase: the whole frame must arrive within io_timeout_s — a
    // slowloris writer costs idle + io per frame, never a wedged thread.
    const Deadline frame_dl = framing::deadline_after(opt_.io_timeout_s);
    std::string payload;
    std::uint32_t announced = 0;
    const IoStatus rs =
        framing::read_frame(fd, &payload, frame_cap, &frame_dl, &announced);
    if (rs == IoStatus::Eof) break;  // peer finished cleanly
    if (rs == IoStatus::Timeout) {
      io_timeouts_.fetch_add(1, std::memory_order_relaxed);
      break;  // mid-frame: the stream cannot be resynced
    }
    if (rs == IoStatus::TooLarge) {
      oversized_frames_.fetch_add(1, std::memory_order_relaxed);
      (void)send_frame(fd, encode_error(ErrorCode::FrameTooLarge,
                                        "frame too large: " +
                                            std::to_string(announced) + " > " +
                                            std::to_string(frame_cap)));
      break;  // the oversized payload was never consumed
    }
    if (rs != IoStatus::Ok) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      break;  // truncated or errno-level failure
    }

    MsgType type{};
    std::uint8_t seen_version = 0;
    switch (decode_header(payload, &type, &seen_version)) {
      case HeaderStatus::Ok:
        break;
      case HeaderStatus::BadFrame:
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        (void)send_frame(fd,
                         encode_error(ErrorCode::BadFrame,
                                      "payload shorter than the MCFN header"));
        open = false;
        break;
      case HeaderStatus::BadMagic:
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        (void)send_frame(
            fd, encode_error(ErrorCode::BadMagic, "not an MCFN frame"));
        open = false;
        break;
      case HeaderStatus::BadVersion:
        version_mismatches_.fetch_add(1, std::memory_order_relaxed);
        (void)send_frame(
            fd, encode_error(
                    ErrorCode::BadVersion,
                    "server speaks MCFN v" +
                        std::to_string(int{kProtocolVersion}) +
                        ", peer sent v" + std::to_string(int{seen_version})));
        open = false;
        break;
    }
    if (!open) break;

    switch (type) {
      case MsgType::StatsQuery:
        open = send_frame(fd, encode_stats_result(
            JsonWriter().object()
                .key("engine").raw(engine_.stats().to_json())
                .key("server").raw(stats().to_json())
                .end().str()));
        break;
      case MsgType::FuseChain:
        open = handle_fuse(fd, payload);
        break;
      default:
        // Server->client types and unassigned bytes: a confused or
        // hostile peer; refuse and close.
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        (void)send_frame(
            fd, encode_error(ErrorCode::UnknownType,
                             std::string("unexpected message type ") +
                                 msg_type_name(type)));
        open = false;
        break;
    }
  }
  // Close-for-business; the fd itself is closed by ~Conn after the join
  // (stop() may still be aiming a shutdown() at this fd number).
  (void)::shutdown(fd, SHUT_RDWR);
  active_.fetch_sub(1, std::memory_order_relaxed);
  conn->done.store(true, std::memory_order_release);
}

bool FusionServer::handle_fuse(int fd, const std::string& payload) {
  FuseRequest req;
  std::string why;
  if (!decode_fuse_request(payload, &req, &why)) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    (void)send_frame(fd, encode_error(ErrorCode::BadFrame, why, req.id));
    return false;
  }
  if (draining()) {
    // Idempotent-safe refusal: the request never reached the engine.
    (void)send_frame(
        fd, encode_error(ErrorCode::Draining, "server is draining", req.id));
    return false;
  }
  std::optional<ChainSpec> chain = chain_from_request(req, &why);
  if (!chain.has_value()) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    (void)send_frame(fd, encode_error(ErrorCode::BadFrame, why, req.id));
    return false;
  }

  requests_.fetch_add(1, std::memory_order_relaxed);
  // submit() never waits: a full bounded queue sheds as Rejected
  // immediately — overload maps onto the engine's admission control, the
  // server never queues unboundedly on its own.
  FusionTicket ticket = engine_.submit(*chain);

  const double budget =
      req.timeout_s > 0 ? req.timeout_s : opt_.request_timeout_s;
  const std::int64_t deadline_ns =
      now_ns() + static_cast<std::int64_t>(
                     (budget > 0 && budget < 1e9 ? budget : 1e9) * 1e9);
  // Slice the wait so a drain (or the request deadline) interrupts it;
  // on expiry cancel-and-wait, so this ticket ALWAYS resolves and the
  // engine's accounting identity holds through floods and drains.
  for (;;) {
    if (ticket.wait_for(0.05)) break;
    const std::int64_t t = now_ns();
    const std::int64_t drain_ns =
        draining() ? drain_hard_ns_.load(std::memory_order_relaxed)
                   : INT64_MAX;
    if (t >= deadline_ns || t >= drain_ns) {
      (void)ticket.cancel();
      ticket.wait();
      break;
    }
  }

  const FusionResult& r = ticket.get();
  if (r.status == FusionStatus::Ok) {
    requests_ok_.fetch_add(1, std::memory_order_relaxed);
  } else if (r.status == FusionStatus::Rejected) {
    requests_shed_.fetch_add(1, std::memory_order_relaxed);
  }
  FuseResponse resp;
  resp.id = req.id;
  resp.status = static_cast<std::uint8_t>(r.status);
  resp.reason = r.reason;
  resp.time_s = r.time_s();
  JsonWriter report;
  r.write_report(report.object(), chain->name());
  resp.json = report.end().str();
  return send_frame(fd, encode_fuse_response(resp));
}

std::string ServerStats::to_json() const {
  return JsonWriter().object()
      .field("accepted", accepted).field("active", active)
      .field("overload_sheds", overload_sheds)
      .field("protocol_errors", protocol_errors)
      .field("version_mismatches", version_mismatches)
      .field("oversized_frames", oversized_frames)
      .field("idle_closes", idle_closes).field("io_timeouts", io_timeouts)
      .field("requests", requests).field("requests_ok", requests_ok)
      .field("requests_shed", requests_shed)
      .end().str();
}

}  // namespace net
}  // namespace mcf
