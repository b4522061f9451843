// net::FusionServer chaos suite — the protocol-abuse and lifecycle
// tests the hardened front-end is built around.  Every scenario asserts
// two things: the abusive peer gets a structured answer (or a clean
// close), and the server stays fully serviceable afterwards.  The
// drain tests additionally pin the EngineStats accounting identity
// (submitted == completed + rejected + cancelled + deadline_exceeded)
// through a SIGTERM-style stop() in the middle of a flood.
//
// Runs in all three CI lanes (Release, ASan/UBSan, TSan) — everything
// here is sim-backend, no fork, no dlopen.
#include "net/server.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "gtest/gtest.h"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "support/framing.hpp"

namespace mcf {
namespace net {
namespace {

using framing::Deadline;
using framing::IoStatus;

ChainSpec small_chain(const std::string& name = "net") {
  return ChainSpec::gemm_chain(name, 2, 128, 96, 64, 80);
}

/// Small search budget: these tests exercise the socket layer, not
/// search quality.
FusionEngineOptions cheap_options() {
  FusionEngineOptions o;
  o.tuner.population = 16;
  o.tuner.topk = 2;
  o.tuner.min_generations = 1;
  o.tuner.max_generations = 2;
  return o;
}

/// A unique short Unix-socket path (sun_path is ~108 bytes, so /tmp).
std::string fresh_socket_path() {
  static std::atomic<int> counter{0};
  return "/tmp/mcf-test-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

/// Server + engine with tight-but-serviceable timeouts for tests.
struct TestService {
  explicit TestService(ServerOptions opt = {},
                       FusionEngineOptions eopt = cheap_options())
      : engine(gpu_by_name("a100"), eopt) {
    if (opt.unix_path.empty() && opt.tcp_port < 0) {
      opt.unix_path = fresh_socket_path();
    }
    opt.drain_deadline_s = 5.0;
    server = std::make_unique<FusionServer>(engine, opt);
    std::string err;
    started = server->start(&err);
    EXPECT_TRUE(started) << err;
  }
  ~TestService() {
    server->stop();
    check_identity();
  }
  void check_identity() {
    const EngineStats st = engine.stats();
    EXPECT_EQ(st.submitted,
              st.completed + st.rejected + st.cancelled + st.deadline_exceeded)
        << "accounting identity broken: submitted=" << st.submitted
        << " completed=" << st.completed << " rejected=" << st.rejected
        << " cancelled=" << st.cancelled
        << " deadline_exceeded=" << st.deadline_exceeded;
  }
  [[nodiscard]] std::string endpoint() const {
    return server->options().unix_path.empty()
               ? "127.0.0.1:" + std::to_string(server->port())
               : server->options().unix_path;
  }
  [[nodiscard]] ClientOptions client_options() const {
    ClientOptions c;
    c.connect_timeout_s = 5.0;
    c.io_timeout_s = 10.0;
    c.max_retries = 0;
    return c;
  }

  FusionEngine engine;
  std::unique_ptr<FusionServer> server;
  bool started = false;
};

/// A raw blocking socket to the server's unix path — the abusive peer.
struct RawConn {
  int fd = -1;
  explicit RawConn(const std::string& path) { open(path); }
  // gtest ASSERTs need a void function; the ctor delegates.
  void open(const std::string& path) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    ASSERT_LT(path.size(), sizeof(addr.sun_path));
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0)
        << std::strerror(errno);
  }
  ~RawConn() {
    if (fd >= 0) ::close(fd);
  }
  void send(const void* data, std::size_t n) const {
    ASSERT_EQ(framing::write_all(fd, data, n, nullptr), IoStatus::Ok);
  }
  void send(const std::string& bytes) const { send(bytes.data(), bytes.size()); }
  /// Reads one frame; Timeout after 10s means the server went mute.
  IoStatus read_frame(std::string* payload) const {
    const Deadline dl = framing::deadline_after(10.0);
    return framing::read_frame(fd, payload,
                               framing::default_max_frame_bytes(), &dl);
  }
  /// Expects a structured Error frame with the given code.
  void expect_error(ErrorCode code) const {
    std::string payload;
    ASSERT_EQ(read_frame(&payload), IoStatus::Ok);
    MsgType type{};
    ASSERT_EQ(decode_header(payload, &type), HeaderStatus::Ok);
    ASSERT_EQ(type, MsgType::Error);
    ErrorMsg err;
    ASSERT_TRUE(decode_error(payload, &err));
    EXPECT_EQ(err.code, code) << err.detail;
    EXPECT_FALSE(err.detail.empty());
  }
};

// ---- happy paths ------------------------------------------------------------

TEST(NetServer, UnixRoundTrip) {
  TestService svc;
  FusionClient client(svc.endpoint(), svc.client_options());
  const RpcResult res = client.fuse(small_chain());
  ASSERT_EQ(res.status, RpcStatus::Ok) << res.detail;
  EXPECT_EQ(res.attempts, 1);
  EXPECT_EQ(static_cast<FusionStatus>(res.response.status), FusionStatus::Ok)
      << res.response.reason;
  EXPECT_GT(res.response.time_s, 0.0);
  // The chain report speaks FusionResult::write_report's vocabulary, as
  // `mcfuser fuse --json` and GraphFusionReport's chains do.
  for (const char* key :
       {"{\"name\":\"net\",\"status\":\"ok\",\"reason\":\"\",\"time_us\":",
        "\"measurements\":", "\"generations\":", "\"space_size\":",
        "\"best_expr\":", "\"best_tiles\":["}) {
    EXPECT_NE(res.response.json.find(key), std::string::npos)
        << key << " in " << res.response.json;
  }
}

TEST(NetServer, ReportTimeKeepsItsPrecision) {
  // The JSON report carries the binary time_s to six significant
  // digits, not %f's six decimals (a microsecond chain would read
  // 0.000006 seconds).
  TestService svc;
  FusionClient client(svc.endpoint(), svc.client_options());
  const RpcResult res = client.fuse(small_chain("precision"));
  ASSERT_EQ(res.status, RpcStatus::Ok) << res.detail;
  const double want = res.response.time_s * 1e6;
  ASSERT_GT(want, 0.0);
  const std::string& json = res.response.json;
  const std::string key = "\"time_us\":";
  const std::size_t at = json.find(key);
  ASSERT_NE(at, std::string::npos) << json;
  const double got = std::strtod(json.c_str() + at + key.size(), nullptr);
  EXPECT_NEAR(got, want, 1e-5 * want) << json;
}

TEST(NetServer, TcpEphemeralRoundTrip) {
  ServerOptions opt;
  opt.tcp_port = 0;  // ephemeral
  TestService svc(opt);
  ASSERT_GT(svc.server->port(), 0);
  FusionClient client(svc.endpoint(), svc.client_options());
  const RpcResult res = client.fuse(small_chain("tcp"));
  ASSERT_EQ(res.status, RpcStatus::Ok) << res.detail;
  EXPECT_EQ(static_cast<FusionStatus>(res.response.status), FusionStatus::Ok);
}

TEST(NetServer, StatsQueryReportsBothLayers) {
  TestService svc;
  FusionClient client(svc.endpoint(), svc.client_options());
  ASSERT_EQ(client.fuse(small_chain()).status, RpcStatus::Ok);
  std::string json;
  const RpcResult res = client.query_stats(&json);
  ASSERT_EQ(res.status, RpcStatus::Ok) << res.detail;
  EXPECT_NE(json.find("\"engine\""), std::string::npos);
  EXPECT_NE(json.find("\"server\""), std::string::npos);
  EXPECT_NE(json.find("\"submitted\""), std::string::npos);
}

TEST(NetServer, InvalidChainResolvesAsInvalidChainNotError) {
  TestService svc;
  FusionClient client(svc.endpoint(), svc.client_options());
  FuseRequest req;
  req.name = "bad";
  req.batch = -1;  // invalid geometry travels to the engine's taxonomy
  req.m = 128;
  req.inner = {64, 64, 64};
  const RpcResult res = client.fuse_request(req);
  ASSERT_EQ(res.status, RpcStatus::Ok) << res.detail;
  EXPECT_EQ(static_cast<FusionStatus>(res.response.status),
            FusionStatus::InvalidChain);
  EXPECT_FALSE(res.response.reason.empty());
}

// ---- protocol abuse ---------------------------------------------------------

TEST(NetServer, BadMagicGetsStructuredRefusal) {
  TestService svc;
  RawConn raw(svc.endpoint());
  framing::FrameWriter w;
  w.u32(0x51554143);  // not the MCFN magic
  w.u8(kProtocolVersion);
  w.u8(1);
  raw.send(w.framed());
  raw.expect_error(ErrorCode::BadMagic);
  // The server refused the peer but must stay fully serviceable.
  FusionClient client(svc.endpoint(), svc.client_options());
  EXPECT_EQ(client.fuse(small_chain()).status, RpcStatus::Ok);
  EXPECT_GE(svc.server->stats().protocol_errors, 1u);
}

TEST(NetServer, VersionMismatchIsRefusedNamingBothVersions) {
  TestService svc;
  RawConn raw(svc.endpoint());
  framing::FrameWriter w;
  w.u32(kMagic);
  w.u8(kProtocolVersion + 9);
  w.u8(static_cast<std::uint8_t>(MsgType::StatsQuery));
  raw.send(w.framed());
  std::string payload;
  ASSERT_EQ(raw.read_frame(&payload), IoStatus::Ok);
  ErrorMsg err;
  ASSERT_TRUE(decode_error(payload, &err));
  EXPECT_EQ(err.code, ErrorCode::BadVersion);
  const std::string ours = "MCFN v" + std::to_string(int{kProtocolVersion});
  const std::string theirs = "sent v" + std::to_string(kProtocolVersion + 9);
  EXPECT_NE(err.detail.find(ours), std::string::npos) << err.detail;
  EXPECT_NE(err.detail.find(theirs), std::string::npos) << err.detail;
  EXPECT_GE(svc.server->stats().version_mismatches, 1u);
  // A same-version client is still served.
  FusionClient client(svc.endpoint(), svc.client_options());
  EXPECT_EQ(client.fuse(small_chain()).status, RpcStatus::Ok);
}

TEST(NetServer, TruncatedPayloadIsBadFrame) {
  TestService svc;
  RawConn raw(svc.endpoint());
  // A 3-byte payload cannot even hold the header.
  framing::FrameWriter w;
  w.u8(1);
  w.u8(2);
  w.u8(3);
  raw.send(w.framed());
  raw.expect_error(ErrorCode::BadFrame);
}

TEST(NetServer, UnknownTypeIsRefused) {
  TestService svc;
  RawConn raw(svc.endpoint());
  framing::FrameWriter w;
  w.u32(kMagic);
  w.u8(kProtocolVersion);
  w.u8(0x50);  // unassigned type
  raw.send(w.framed());
  raw.expect_error(ErrorCode::UnknownType);
}

TEST(NetServer, OversizedFrameIsRefusedWithTheCapInTheDetail) {
  TestService svc;
  RawConn raw(svc.endpoint());
  // Announce a frame beyond the cap; send no body — the server must
  // refuse on the prefix alone, never allocate, never hang.
  const std::uint32_t huge =
      static_cast<std::uint32_t>(framing::default_max_frame_bytes()) + 1;
  raw.send(&huge, sizeof(huge));
  std::string payload;
  ASSERT_EQ(raw.read_frame(&payload), IoStatus::Ok);
  ErrorMsg err;
  ASSERT_TRUE(decode_error(payload, &err));
  EXPECT_EQ(err.code, ErrorCode::FrameTooLarge);
  EXPECT_NE(err.detail.find("frame too large"), std::string::npos)
      << err.detail;
  EXPECT_GE(svc.server->stats().oversized_frames, 1u);
  // ... and the server keeps serving well-formed peers.
  FusionClient client(svc.endpoint(), svc.client_options());
  EXPECT_EQ(client.fuse(small_chain()).status, RpcStatus::Ok);
}

TEST(NetServer, GarbageBodyAfterValidHeaderIsBadFrame) {
  TestService svc;
  RawConn raw(svc.endpoint());
  framing::FrameWriter w;
  w.u32(kMagic);
  w.u8(kProtocolVersion);
  w.u8(static_cast<std::uint8_t>(MsgType::FuseChain));
  w.u8(0xFF);  // not a decodable FuseChain body
  raw.send(w.framed());
  raw.expect_error(ErrorCode::BadFrame);
}

TEST(NetServer, SlowlorisIdleConnectionIsClosed) {
  ServerOptions opt;
  opt.unix_path = fresh_socket_path();
  opt.idle_timeout_s = 0.2;
  TestService svc(opt);
  RawConn raw(svc.endpoint());
  // Write nothing; within the idle budget the server must close us —
  // the read sees EOF rather than hanging for the 10s test deadline.
  std::string payload;
  EXPECT_EQ(raw.read_frame(&payload), IoStatus::Eof);
  EXPECT_GE(svc.server->stats().idle_closes, 1u);
}

TEST(NetServer, SlowlorisMidFrameHitsTheIoTimeout) {
  ServerOptions opt;
  opt.unix_path = fresh_socket_path();
  opt.io_timeout_s = 0.2;
  TestService svc(opt);
  RawConn raw(svc.endpoint());
  // First bytes of a frame, then silence: the per-frame budget closes
  // the connection; the accept loop keeps serving others meanwhile.
  const std::uint32_t len = 1000;
  raw.send(&len, sizeof(len));
  raw.send("ab", 2);
  std::string payload;
  EXPECT_EQ(raw.read_frame(&payload), IoStatus::Eof);
  EXPECT_GE(svc.server->stats().io_timeouts, 1u);
  FusionClient client(svc.endpoint(), svc.client_options());
  EXPECT_EQ(client.fuse(small_chain()).status, RpcStatus::Ok);
}

TEST(NetServer, MidRequestDisconnectDoesNotPoisonAccounting) {
  TestService svc;
  {
    RawConn raw(svc.endpoint());
    const FuseRequest req = request_from_chain(small_chain("bail"));
    raw.send(encode_fuse_request(req));
    // Disconnect immediately — the server still resolves the admitted
    // ticket (the response write just fails); ~TestService pins the
    // accounting identity.
  }
  FusionClient client(svc.endpoint(), svc.client_options());
  EXPECT_EQ(client.fuse(small_chain()).status, RpcStatus::Ok);
}

TEST(NetServer, ByteAtATimeRequestStillServed) {
  TestService svc;
  RawConn raw(svc.endpoint());
  const std::string frame = encode_stats_query();
  for (const char c : frame) {
    raw.send(&c, 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::string payload;
  ASSERT_EQ(raw.read_frame(&payload), IoStatus::Ok);
  MsgType type{};
  ASSERT_EQ(decode_header(payload, &type), HeaderStatus::Ok);
  EXPECT_EQ(type, MsgType::StatsResult);
  std::string json;
  ASSERT_TRUE(decode_stats_result(payload, &json));
  EXPECT_NE(json.find("\"engine\":{"), std::string::npos) << json;
}

// ---- overload ---------------------------------------------------------------

TEST(NetServer, ConnectionCapShedsWithOverloaded) {
  ServerOptions opt;
  opt.unix_path = fresh_socket_path();
  opt.max_connections = 1;
  TestService svc(opt);
  RawConn occupant(svc.endpoint());  // holds the only slot
  ClientOptions copt = svc.client_options();
  copt.max_retries = 0;
  FusionClient client(svc.endpoint(), copt);
  const RpcResult res = client.fuse(small_chain());
  EXPECT_EQ(res.status, RpcStatus::Overloaded) << res.detail;
  EXPECT_GE(svc.server->stats().overload_sheds, 1u);
}

TEST(NetServer, EngineQueueOverflowShedsAsRejected) {
  FusionEngineOptions eopt = cheap_options();
  eopt.jobs = 1;
  eopt.queue.max_in_flight = 1;  // one running, zero waiting
  ServerOptions opt;
  opt.unix_path = fresh_socket_path();
  TestService svc(opt, eopt);

  constexpr int kClients = 8;
  std::atomic<int> ok{0}, rejected{0}, other{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      ClientOptions copt;
      copt.max_retries = 0;
      FusionClient client(svc.endpoint(), copt);
      // A distinct digest per client (the batch dimension differs): every
      // request needs the one engine slot, none is a store hit.
      const RpcResult res = client.fuse(ChainSpec::gemm_chain(
          "flood-" + std::to_string(i), 2 + i, 128, 96, 64, 80));
      if (res.status != RpcStatus::Ok) {
        other.fetch_add(1);
        return;
      }
      const auto status = static_cast<FusionStatus>(res.response.status);
      if (status == FusionStatus::Ok) ok.fetch_add(1);
      else if (status == FusionStatus::Rejected) rejected.fetch_add(1);
      else other.fetch_add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  // Every response resolved through the taxonomy: nothing crashed, and
  // with 8 concurrent one-slot requests at least one was shed.
  EXPECT_EQ(ok.load() + rejected.load() + other.load(), kClients);
  EXPECT_GE(ok.load(), 1);
  EXPECT_GE(rejected.load(), 1);
  EXPECT_EQ(other.load(), 0);
  svc.check_identity();
}

// ---- drain ------------------------------------------------------------------

TEST(NetServer, StopIsIdempotentAndRefusesNewWork) {
  TestService svc;
  const std::string endpoint = svc.endpoint();
  svc.server->stop();
  svc.server->stop();  // second stop is a no-op
  EXPECT_FALSE(svc.server->running());
  // The listener is gone: connects now fail (retried, then surfaced).
  ClientOptions copt = svc.client_options();
  copt.max_retries = 1;
  copt.backoff_initial_s = 0.01;
  FusionClient client(endpoint, copt);
  const RpcResult res = client.fuse(small_chain());
  EXPECT_EQ(res.status, RpcStatus::ConnectFailed);
  EXPECT_EQ(res.attempts, 2);  // connect-refused is retried
}

TEST(NetServer, DrainMidFloodKeepsTheAccountingIdentity) {
  FusionEngineOptions eopt = cheap_options();
  eopt.jobs = 2;
  eopt.queue.max_queued = 4;
  ServerOptions opt;
  opt.unix_path = fresh_socket_path();
  TestService svc(opt, eopt);

  constexpr int kClients = 6;
  std::atomic<bool> flood{true};
  std::atomic<int> sent{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      ClientOptions copt;
      copt.max_retries = 0;
      copt.io_timeout_s = 5.0;
      FusionClient client(svc.endpoint(), copt);
      int n = 0;
      while (flood.load(std::memory_order_relaxed) && n < 50) {
        // Any outcome is legal mid-drain (Ok result, Draining refusal,
        // connect failure once the listener is gone) — what must hold
        // is: no crash, and the identity after the join.
        // A distinct digest per request keeps real work in flight.
        (void)client.fuse(ChainSpec::gemm_chain(
            "drain-" + std::to_string(i) + "-" + std::to_string(n),
            2 + i * 50 + n, 128, 96, 64, 80));
        ++n;
        sent.fetch_add(1);
      }
    });
  }
  // Let the flood build up real in-flight work, then drain through it.
  while (sent.load() < kClients) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  svc.server->stop();
  flood.store(false);
  for (std::thread& t : threads) t.join();

  EXPECT_FALSE(svc.server->running());
  svc.check_identity();
  const EngineStats st = svc.engine.stats();
  EXPECT_GT(st.submitted, 0u);
}

TEST(NetServer, StartFailsCleanlyOnUnbindablePath) {
  FusionEngine engine(gpu_by_name("a100"), cheap_options());
  ServerOptions opt;
  opt.unix_path = "/nonexistent-dir-mcf/x.sock";
  FusionServer server(engine, opt);
  std::string err;
  EXPECT_FALSE(server.start(&err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(server.running());
}

TEST(NetServer, StartRequiresAListener) {
  FusionEngine engine(gpu_by_name("a100"), cheap_options());
  FusionServer server(engine, ServerOptions{});  // no unix, no tcp
  std::string err;
  EXPECT_FALSE(server.start(&err));
  EXPECT_FALSE(err.empty());
}

// ---- client-side policy -----------------------------------------------------

TEST(NetClient, ConnectRefusedIsRetriedThenSurfaced) {
  ClientOptions copt;
  copt.max_retries = 2;
  copt.backoff_initial_s = 0.01;
  copt.backoff_max_s = 0.02;
  copt.connect_timeout_s = 1.0;
  FusionClient client(fresh_socket_path(), copt);  // nobody listening
  const RpcResult res = client.fuse(small_chain());
  EXPECT_EQ(res.status, RpcStatus::ConnectFailed);
  EXPECT_EQ(res.attempts, 3);  // 1 + 2 retries
  EXPECT_FALSE(res.detail.empty());
}

TEST(NetClient, VersionRefusalIsRetriedAsVersionMismatch) {
  // A peer of another protocol revision answers the request frame
  // itself, under its own header version; the client needs no
  // handshake to classify that as a retryable VersionMismatch.
  const std::string path = fresh_socket_path();
  const int lfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(lfd, 4), 0);
  std::thread peer([lfd] {
    for (int fd; (fd = ::accept(lfd, nullptr, nullptr)) >= 0; ::close(fd)) {
      std::string request;
      const Deadline dl = framing::deadline_after(10.0);
      (void)framing::read_frame(fd, &request,
                                framing::default_max_frame_bytes(), &dl);
      framing::FrameWriter w;
      w.u32(kMagic);
      w.u8(kProtocolVersion + 1);
      w.u8(static_cast<std::uint8_t>(MsgType::Error));
      w.u8(static_cast<std::uint8_t>(ErrorCode::BadVersion));
      w.str("server speaks a newer MCFN");
      w.u64(0);
      const std::string reply = w.framed();
      (void)framing::write_all(fd, reply.data(), reply.size(), nullptr);
    }
  });
  ClientOptions copt;
  copt.max_retries = 1;
  copt.backoff_initial_s = 0.01;
  FusionClient client(path, copt);
  std::string json;
  const RpcResult res = client.query_stats(&json);
  ::shutdown(lfd, SHUT_RDWR);  // wakes the peer's accept
  peer.join();
  ::close(lfd);
  ::unlink(path.c_str());
  EXPECT_EQ(res.status, RpcStatus::VersionMismatch) << res.detail;
  EXPECT_EQ(res.attempts, 2);
}

TEST(NetClient, RejectsNonLoopbackHosts) {
  ClientOptions copt;
  copt.max_retries = 0;
  FusionClient client("10.1.2.3:4444", copt);
  const RpcResult res = client.fuse(small_chain());
  EXPECT_EQ(res.status, RpcStatus::ConnectFailed);
  EXPECT_NE(res.detail.find("loopback"), std::string::npos) << res.detail;
}

TEST(NetClient, BackoffIsCappedAndJittered) {
  // White-box-ish: with retries against a dead endpoint the elapsed time
  // must reflect capped backoff (not exponential blow-up, not zero).
  ClientOptions copt;
  copt.max_retries = 3;
  copt.backoff_initial_s = 0.02;
  copt.backoff_max_s = 0.04;
  FusionClient client(fresh_socket_path(), copt);
  const auto t0 = std::chrono::steady_clock::now();
  const RpcResult res = client.fuse(small_chain());
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(res.status, RpcStatus::ConnectFailed);
  EXPECT_EQ(res.attempts, 4);
  // 3 delays, each in [0.5, 1.0] x min(cap, initial*2^k): total within
  // [0.03, ~0.12] plus connect overhead; 2s is the generous ceiling.
  EXPECT_GE(elapsed, 0.03);
  EXPECT_LT(elapsed, 2.0);
}

}  // namespace
}  // namespace net
}  // namespace mcf
