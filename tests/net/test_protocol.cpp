// The MCFN wire protocol codec (net/protocol.hpp) — pure byte-level
// tests, no sockets.  Deterministic fuzz-style: every message type
// round-trips, every truncation prefix of every message fails cleanly,
// bad magic / bad version / lying counts are classified (never crash,
// never allocate from a hostile count).
#include "net/protocol.hpp"

#include <cstring>
#include <string>

#include "engine/status.hpp"
#include "gtest/gtest.h"
#include "support/framing.hpp"

namespace mcf {
namespace net {
namespace {

/// Strips the u32 length prefix from an encode_* result, leaving the
/// payload the server-side decoders consume.
std::string payload_of(const std::string& frame) {
  EXPECT_GE(frame.size(), 4u);
  return frame.substr(4);
}

FuseRequest sample_request() {
  FuseRequest req;
  req.id = 77;
  req.name = "attn";
  req.batch = 8;
  req.m = 512;
  req.inner = {64, 512, 64};
  req.epilogues = {static_cast<std::uint8_t>(Epilogue::OnlineSoftmax),
                   static_cast<std::uint8_t>(Epilogue::None)};
  req.softmax_scale = 0.125;
  req.timeout_s = 30.0;
  return req;
}

TEST(NetProtocol, HeaderRoundTripsForEveryType) {
  for (const std::string frame :
       {encode_stats_query(), encode_fuse_request(sample_request()),
        encode_stats_result("{}"),
        encode_error(ErrorCode::Draining, "bye", 3)}) {
    const std::string payload = payload_of(frame);
    MsgType type{};
    EXPECT_EQ(decode_header(payload, &type), HeaderStatus::Ok);
  }
}

TEST(NetProtocol, FuseRequestRoundTrips) {
  const FuseRequest req = sample_request();
  const std::string payload = payload_of(encode_fuse_request(req));
  FuseRequest out;
  std::string why;
  ASSERT_TRUE(decode_fuse_request(payload, &out, &why)) << why;
  EXPECT_EQ(out.id, req.id);
  EXPECT_EQ(out.name, req.name);
  EXPECT_EQ(out.batch, req.batch);
  EXPECT_EQ(out.m, req.m);
  EXPECT_EQ(out.inner, req.inner);
  EXPECT_EQ(out.epilogues, req.epilogues);
  EXPECT_EQ(out.softmax_scale, req.softmax_scale);
  EXPECT_EQ(out.timeout_s, req.timeout_s);
}

TEST(NetProtocol, FuseResponseRoundTrips) {
  FuseResponse resp;
  resp.id = 9;
  resp.status = static_cast<std::uint8_t>(FusionStatus::Rejected);
  resp.reason = "queue full";
  resp.time_s = 0.0025;
  resp.json = "{\"status\": \"rejected\"}";
  const std::string payload = payload_of(encode_fuse_response(resp));
  FuseResponse out;
  ASSERT_TRUE(decode_fuse_response(payload, &out));
  EXPECT_EQ(out.id, resp.id);
  EXPECT_EQ(out.status, resp.status);
  EXPECT_EQ(out.reason, resp.reason);
  EXPECT_EQ(out.time_s, resp.time_s);
  EXPECT_EQ(out.json, resp.json);
}

TEST(NetProtocol, ErrorAndStatsRoundTrip) {
  ErrorMsg err;
  ASSERT_TRUE(decode_error(
      payload_of(encode_error(ErrorCode::FrameTooLarge, "2097152 > cap", 5)),
      &err));
  EXPECT_EQ(err.code, ErrorCode::FrameTooLarge);
  EXPECT_EQ(err.detail, "2097152 > cap");
  EXPECT_EQ(err.id, 5u);

  std::string stats;
  ASSERT_TRUE(
      decode_stats_result(payload_of(encode_stats_result("{\"x\":1}")), &stats));
  EXPECT_EQ(stats, "{\"x\":1}");
}

TEST(NetProtocol, EveryTruncationPrefixFailsCleanly) {
  const std::string full = payload_of(encode_fuse_request(sample_request()));
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    const std::string prefix = full.substr(0, cut);
    MsgType type{};
    if (decode_header(prefix, &type) != HeaderStatus::Ok) continue;
    FuseRequest out;
    std::string why;
    EXPECT_FALSE(decode_fuse_request(prefix, &out, &why))
        << "decoded a " << cut << "-byte prefix";
    EXPECT_FALSE(why.empty());
  }
}

TEST(NetProtocol, BadMagicIsClassified) {
  std::string payload = payload_of(encode_stats_query());
  payload[0] = 'X';  // corrupt the magic
  MsgType type{};
  EXPECT_EQ(decode_header(payload, &type), HeaderStatus::BadMagic);
}

TEST(NetProtocol, BadVersionIsClassifiedAndReported) {
  std::string payload = payload_of(encode_stats_query());
  payload[4] = static_cast<char>(kProtocolVersion + 1);
  MsgType type{};
  std::uint8_t seen = 0;
  EXPECT_EQ(decode_header(payload, &type, &seen), HeaderStatus::BadVersion);
  EXPECT_EQ(seen, kProtocolVersion + 1);
}

TEST(NetProtocol, ShortHeaderIsBadFrame) {
  MsgType type{};
  EXPECT_EQ(decode_header("", &type), HeaderStatus::BadFrame);
  EXPECT_EQ(decode_header("MCF", &type), HeaderStatus::BadFrame);
}

TEST(NetProtocol, LyingInnerCountIsRejectedWithoutAllocating) {
  // Hand-craft a request announcing 3 billion inner dims; the cap check
  // must fire on the count alone.
  framing::FrameWriter w;
  w.u32(kMagic);
  w.u8(kProtocolVersion);
  w.u8(static_cast<std::uint8_t>(MsgType::FuseChain));
  w.u64(1);
  w.str("liar");
  w.i64(1);
  w.i64(1);
  w.u32(3000000000u);  // inner count
  FuseRequest out;
  std::string why;
  EXPECT_FALSE(decode_fuse_request(w.payload(), &out, &why));
  EXPECT_NE(why.find("inner count"), std::string::npos) << why;
}

TEST(NetProtocol, LyingEpilogueCountIsRejected) {
  // Hand-craft a request with a hostile epilogue count.
  framing::FrameWriter w;
  w.u32(kMagic);
  w.u8(kProtocolVersion);
  w.u8(static_cast<std::uint8_t>(MsgType::FuseChain));
  w.u64(1);
  w.str("liar");
  w.i64(1);
  w.i64(1);
  w.u32(0);            // no inner dims
  w.u32(0xFFFFFFFFu);  // epilogue count
  FuseRequest out;
  std::string why;
  EXPECT_FALSE(decode_fuse_request(w.payload(), &out, &why));
  EXPECT_NE(why.find("epilogue count"), std::string::npos) << why;
}

TEST(NetProtocol, ErrorCodeOutsideEnumFailsDecode) {
  framing::FrameWriter w;
  w.u32(kMagic);
  w.u8(kProtocolVersion);
  w.u8(static_cast<std::uint8_t>(MsgType::Error));
  w.u8(200);  // not an ErrorCode
  w.str("detail");
  w.u64(0);
  ErrorMsg err;
  EXPECT_FALSE(decode_error(w.payload(), &err));
}

TEST(NetProtocol, ChainBridgeRoundTrips) {
  const ChainSpec chain = ChainSpec::attention("rt", 2, 128, 128, 64, 64);
  const FuseRequest req = request_from_chain(chain);
  std::string why;
  const auto back = chain_from_request(req, &why);
  ASSERT_TRUE(back.has_value()) << why;
  EXPECT_TRUE(back->valid()) << back->validation_error();
  EXPECT_EQ(back->name(), chain.name());
  EXPECT_EQ(back->batch(), chain.batch());
  EXPECT_EQ(back->m(), chain.m());
  EXPECT_EQ(back->inner(), chain.inner());
  EXPECT_EQ(back->num_ops(), chain.num_ops());
  for (int op = 0; op < chain.num_ops(); ++op) {
    EXPECT_EQ(back->epilogue(op), chain.epilogue(op));
  }
}

TEST(NetProtocol, UnknownEpilogueByteIsRefusedByTheBridge) {
  FuseRequest req = sample_request();
  req.epilogues = {250};
  std::string why;
  EXPECT_FALSE(chain_from_request(req, &why).has_value());
  EXPECT_NE(why.find("epilogue"), std::string::npos) << why;
}

TEST(NetProtocol, InvalidGeometryReachesChainValidationNotAbort) {
  FuseRequest req = sample_request();
  req.batch = -3;  // invalid, but decode/bridge must not abort
  std::string why;
  const auto chain = chain_from_request(req, &why);
  ASSERT_TRUE(chain.has_value());
  EXPECT_FALSE(chain->valid());
  EXPECT_FALSE(chain->validation_error().empty());
}

TEST(NetProtocol, DirectionsCannotAlias) {
  // Client->server types live in 0x01..0x7F, server->client in 0x81+.
  for (const MsgType t : {MsgType::FuseChain, MsgType::StatsQuery}) {
    EXPECT_LT(static_cast<std::uint8_t>(t), 0x80);
  }
  for (const MsgType t :
       {MsgType::FuseResult, MsgType::StatsResult, MsgType::Error}) {
    EXPECT_GE(static_cast<std::uint8_t>(t), 0x80);
  }
}

}  // namespace
}  // namespace net
}  // namespace mcf
