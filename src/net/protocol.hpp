// The MCFN wire protocol — the versioned call boundary between
// net::FusionServer and its clients.
//
// Transport: length-prefixed frames (support/framing.hpp, u32 LE length
// + payload, size-capped by MCFUSER_FRAME_MAX_BYTES).  Every payload
// starts with the same header:
//
//   u32 magic = 0x4D43464E ("MCFN")  |  u8 version  |  u8 type  |  body
//
// The header is checked on EVERY frame — a mid-stream corruption is
// caught at the next message, and a request from a client built against
// a different protocol revision is refused with a structured
// Error{BadVersion} naming both versions before it reaches the engine
// (never answered with silently re-interpreted bytes), so a call needs
// no handshake frame.
//
// Message vocabulary (client -> server 0x01..0x7F, server -> client
// 0x81..0xFF so a direction mix-up can never alias):
//
//   FuseChain   -> FuseResult    one ChainSpec tuned through the engine;
//                                the response carries the FusionStatus
//                                taxonomy verbatim plus the chain report
//   StatsQuery  -> StatsResult   EngineStats and ServerStats snapshots
//                                as one JSON object (`engine`, `server`)
//   (any)       -> Error         structured refusal: code + detail + the
//                                request id when one was parsed
//
// Failure taxonomy: FuseResult reuses engine/status.hpp FusionStatus
// (Rejected = admission shed, DeadlineExceeded, MeasureFailed, ...);
// Error covers what never reached the engine (BadMagic, BadVersion,
// BadFrame, FrameTooLarge, UnknownType, Overloaded, Draining, Internal).
// docs/service.md is the authoritative prose spec.
//
// Version policy: kProtocolVersion bumps on ANY layout change (there is
// one version for the whole vocabulary, mirroring the sandbox protocol).
// Servers refuse newer AND older clients — with one binary per deploy
// there is no skew window worth a compatibility matrix.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ir/chain.hpp"

namespace mcf {
namespace net {

constexpr std::uint32_t kMagic = 0x4D43464E;  // "MCFN"
constexpr std::uint8_t kProtocolVersion = 2;

/// Hard caps on request vectors, far above any real chain (a chain has a
/// handful of ops) — a lying count fails the decode, it never allocates.
constexpr std::uint32_t kMaxInnerDims = 64;

enum class MsgType : std::uint8_t {
  FuseChain = 0x02,
  StatsQuery = 0x03,
  FuseResult = 0x82,
  StatsResult = 0x83,
  Error = 0x84,
};

[[nodiscard]] const char* msg_type_name(MsgType t) noexcept;

/// Refusals that never reached (or never came back from) the engine.
enum class ErrorCode : std::uint8_t {
  BadMagic = 1,      ///< payload header magic mismatch (not an MCFN peer)
  BadVersion = 2,    ///< protocol revision mismatch; detail names both
  BadFrame = 3,      ///< header/body failed to decode (truncated, lying)
  FrameTooLarge = 4, ///< announced length above the frame cap
  UnknownType = 5,   ///< valid header, unassigned message type
  Overloaded = 6,    ///< connection cap hit; retry-after-backoff is safe
  Draining = 7,      ///< server is shutting down; retry elsewhere is safe
  Internal = 8,      ///< server-side invariant failure
};

[[nodiscard]] const char* error_code_name(ErrorCode c) noexcept;

/// One FuseChain request — a ChainSpec by value plus per-request control.
struct FuseRequest {
  /// Client-chosen correlation id, echoed on the response verbatim.
  std::uint64_t id = 0;
  std::string name;
  std::int64_t batch = 1;
  std::int64_t m = 1;
  std::vector<std::int64_t> inner;
  /// Epilogue enum values, one per op (None-padded server-side like the
  /// ChainSpec constructor); values above OnlineSoftmax fail the decode.
  std::vector<std::uint8_t> epilogues;
  double softmax_scale = 1.0;
  /// Per-request wall-clock budget; 0 = the server's default.  A request
  /// that exceeds it is cancelled and resolves through the engine's
  /// ticket taxonomy (Cancelled/DeadlineExceeded), never left dangling.
  double timeout_s = 0.0;
};

struct FuseResponse {
  std::uint64_t id = 0;
  std::uint8_t status = 0;  ///< FusionStatus, verbatim
  std::string reason;       ///< failure detail; empty on Ok
  double time_s = 0.0;      ///< best fused time (Ok only)
  std::string json;         ///< chain report (FusionResult::write_report)
};

struct ErrorMsg {
  ErrorCode code = ErrorCode::Internal;
  std::string detail;
  /// Correlation id when one was parsed before the failure, else 0.
  std::uint64_t id = 0;
};

// ---- encoders (full frames, ready for write_all) ---------------------------

[[nodiscard]] std::string encode_fuse_request(const FuseRequest& req);
[[nodiscard]] std::string encode_stats_query();
[[nodiscard]] std::string encode_fuse_response(const FuseResponse& resp);
[[nodiscard]] std::string encode_stats_result(const std::string& stats_json);
[[nodiscard]] std::string encode_error(ErrorCode code,
                                       const std::string& detail,
                                       std::uint64_t id = 0);

// ---- decoders ---------------------------------------------------------------

/// Header verdict for one received payload.
enum class HeaderStatus : std::uint8_t {
  Ok,
  BadMagic,
  BadVersion,
  BadFrame,  ///< shorter than a header
};

/// Checks magic + version and extracts the type.  `seen_version`
/// (optional) reports the peer's version on BadVersion for the
/// structured refusal.
[[nodiscard]] HeaderStatus decode_header(const std::string& payload,
                                         MsgType* type,
                                         std::uint8_t* seen_version = nullptr);

/// Body decoders assume decode_header returned Ok for the matching type;
/// they re-skip the header and bounds-check every field.  `why` gets the
/// parse failure ("truncated request", "inner count 900 > 64", ...).
[[nodiscard]] bool decode_fuse_request(const std::string& payload,
                                       FuseRequest* req, std::string* why);
[[nodiscard]] bool decode_fuse_response(const std::string& payload,
                                        FuseResponse* resp);
[[nodiscard]] bool decode_stats_result(const std::string& payload,
                                       std::string* stats_json);
[[nodiscard]] bool decode_error(const std::string& payload, ErrorMsg* err);

// ---- ChainSpec bridging -----------------------------------------------------

/// Request -> ChainSpec.  Geometry validation is the ChainSpec
/// constructor's job (non-aborting); this only maps the epilogue bytes,
/// rejecting values outside the enum (nullopt + `why`).
[[nodiscard]] std::optional<ChainSpec> chain_from_request(
    const FuseRequest& req, std::string* why);

/// ChainSpec -> request (the client library's send path).
[[nodiscard]] FuseRequest request_from_chain(const ChainSpec& chain);

}  // namespace net
}  // namespace mcf
