#include "net/protocol.hpp"

#include "support/framing.hpp"

namespace mcf {
namespace net {

using framing::FrameReader;
using framing::FrameWriter;

const char* msg_type_name(MsgType t) noexcept {
  switch (t) {
    case MsgType::FuseChain: return "fuse-chain";
    case MsgType::StatsQuery: return "stats-query";
    case MsgType::FuseResult: return "fuse-result";
    case MsgType::StatsResult: return "stats-result";
    case MsgType::Error: return "error";
  }
  return "unknown";
}

const char* error_code_name(ErrorCode c) noexcept {
  switch (c) {
    case ErrorCode::BadMagic: return "bad-magic";
    case ErrorCode::BadVersion: return "bad-version";
    case ErrorCode::BadFrame: return "bad-frame";
    case ErrorCode::FrameTooLarge: return "frame-too-large";
    case ErrorCode::UnknownType: return "unknown-type";
    case ErrorCode::Overloaded: return "overloaded";
    case ErrorCode::Draining: return "draining";
    case ErrorCode::Internal: return "internal";
  }
  return "unknown";
}

namespace {

void put_header(FrameWriter* w, MsgType type) {
  w->u32(kMagic);
  w->u8(kProtocolVersion);
  w->u8(static_cast<std::uint8_t>(type));
}

/// Consumes the header fields; callers already validated them through
/// decode_header, so this only advances the read position.
[[nodiscard]] bool skip_header(FrameReader* r) {
  std::uint32_t magic = 0;
  std::uint8_t version = 0;
  std::uint8_t type = 0;
  return r->u32(&magic) && r->u8(&version) && r->u8(&type);
}

}  // namespace

std::string encode_fuse_request(const FuseRequest& req) {
  FrameWriter w;
  put_header(&w, MsgType::FuseChain);
  w.u64(req.id);
  w.str(req.name);
  w.i64(req.batch);
  w.i64(req.m);
  w.u32(static_cast<std::uint32_t>(req.inner.size()));
  for (const std::int64_t d : req.inner) w.i64(d);
  w.u32(static_cast<std::uint32_t>(req.epilogues.size()));
  for (const std::uint8_t e : req.epilogues) w.u8(e);
  w.f64(req.softmax_scale);
  w.f64(req.timeout_s);
  return w.framed();
}

std::string encode_stats_query() {
  FrameWriter w;
  put_header(&w, MsgType::StatsQuery);
  return w.framed();
}

std::string encode_fuse_response(const FuseResponse& resp) {
  FrameWriter w;
  put_header(&w, MsgType::FuseResult);
  w.u64(resp.id);
  w.u8(resp.status);
  w.str(resp.reason);
  w.f64(resp.time_s);
  w.str(resp.json);
  return w.framed();
}

std::string encode_stats_result(const std::string& stats_json) {
  FrameWriter w;
  put_header(&w, MsgType::StatsResult);
  w.str(stats_json);
  return w.framed();
}

std::string encode_error(ErrorCode code, const std::string& detail,
                         std::uint64_t id) {
  FrameWriter w;
  put_header(&w, MsgType::Error);
  w.u8(static_cast<std::uint8_t>(code));
  w.str(detail);
  w.u64(id);
  return w.framed();
}

HeaderStatus decode_header(const std::string& payload, MsgType* type,
                           std::uint8_t* seen_version) {
  FrameReader r(payload);
  std::uint32_t magic = 0;
  std::uint8_t version = 0;
  std::uint8_t raw_type = 0;
  if (!r.u32(&magic) || !r.u8(&version) || !r.u8(&raw_type)) {
    return HeaderStatus::BadFrame;
  }
  if (magic != kMagic) return HeaderStatus::BadMagic;
  if (seen_version != nullptr) *seen_version = version;
  if (version != kProtocolVersion) return HeaderStatus::BadVersion;
  *type = static_cast<MsgType>(raw_type);
  return HeaderStatus::Ok;
}

bool decode_fuse_request(const std::string& payload, FuseRequest* req,
                         std::string* why) {
  FrameReader r(payload);
  if (!skip_header(&r)) {
    *why = "truncated header";
    return false;
  }
  std::uint32_t n_inner = 0;
  std::uint32_t n_epi = 0;
  if (!r.u64(&req->id) || !r.str(&req->name) || !r.i64(&req->batch) ||
      !r.i64(&req->m) || !r.u32(&n_inner)) {
    *why = "truncated request";
    return false;
  }
  if (n_inner > kMaxInnerDims) {
    *why = "inner count " + std::to_string(n_inner) + " > " +
           std::to_string(kMaxInnerDims);
    return false;
  }
  req->inner.resize(n_inner);
  for (std::int64_t& d : req->inner) {
    if (!r.i64(&d)) {
      *why = "truncated request";
      return false;
    }
  }
  if (!r.u32(&n_epi)) {
    *why = "truncated request";
    return false;
  }
  if (n_epi > kMaxInnerDims) {
    *why = "epilogue count " + std::to_string(n_epi) + " > " +
           std::to_string(kMaxInnerDims);
    return false;
  }
  req->epilogues.resize(n_epi);
  for (std::uint8_t& e : req->epilogues) {
    if (!r.u8(&e)) {
      *why = "truncated request";
      return false;
    }
  }
  if (!r.f64(&req->softmax_scale) || !r.f64(&req->timeout_s)) {
    *why = "truncated request";
    return false;
  }
  return true;
}

bool decode_fuse_response(const std::string& payload, FuseResponse* resp) {
  FrameReader r(payload);
  if (!skip_header(&r)) return false;
  return r.u64(&resp->id) && r.u8(&resp->status) && r.str(&resp->reason) &&
         r.f64(&resp->time_s) && r.str(&resp->json);
}

bool decode_stats_result(const std::string& payload, std::string* stats_json) {
  FrameReader r(payload);
  if (!skip_header(&r)) return false;
  return r.str(stats_json);
}

bool decode_error(const std::string& payload, ErrorMsg* err) {
  FrameReader r(payload);
  if (!skip_header(&r)) return false;
  std::uint8_t code = 0;
  if (!r.u8(&code) || !r.str(&err->detail) || !r.u64(&err->id)) return false;
  if (code < static_cast<std::uint8_t>(ErrorCode::BadMagic) ||
      code > static_cast<std::uint8_t>(ErrorCode::Internal)) {
    return false;
  }
  err->code = static_cast<ErrorCode>(code);
  return true;
}

std::optional<ChainSpec> chain_from_request(const FuseRequest& req,
                                            std::string* why) {
  std::vector<Epilogue> epis;
  epis.reserve(req.epilogues.size());
  for (const std::uint8_t e : req.epilogues) {
    if (e > static_cast<std::uint8_t>(Epilogue::OnlineSoftmax)) {
      *why = "unknown epilogue value " + std::to_string(e);
      return std::nullopt;
    }
    epis.push_back(static_cast<Epilogue>(e));
  }
  // Geometry validation (dims >= 1, inner count bounds) is the ChainSpec
  // constructor's non-aborting job; the engine reports InvalidChain.
  return ChainSpec(req.name, req.batch, req.m, req.inner, std::move(epis),
                   static_cast<float>(req.softmax_scale));
}

FuseRequest request_from_chain(const ChainSpec& chain) {
  FuseRequest req;
  req.name = chain.name();
  req.batch = chain.batch();
  req.m = chain.m();
  req.inner = chain.inner();
  const int ops = chain.num_ops();
  req.epilogues.reserve(ops > 0 ? static_cast<std::size_t>(ops) : 0);
  for (int op = 0; op < ops; ++op) {
    req.epilogues.push_back(static_cast<std::uint8_t>(chain.epilogue(op)));
  }
  req.softmax_scale = static_cast<double>(chain.softmax_scale());
  return req;
}

}  // namespace net
}  // namespace mcf
