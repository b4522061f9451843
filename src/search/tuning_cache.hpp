// Tuning-cache file codec: the on-disk image of FusionEngine's result
// store, so a deployment skips re-tuning — the repo's analogue of TVM's
// tuning logs.  This file owns the format; FusionEngine's
// load_tuning_cache / save_tuning_cache decide which records it serves.
//
// Format: the line kTuningCacheHeader, then one record per line:
//   <chain> <gpu> <backend> <measure> <host> <expr> <tiles> <time_s>
// chain_cache_key, GpuSpec::name, MeasureBackend::name() and its
// options_digest of the tuner's MeasureOptions, exec/jit's host_key for
// wall-clock backends ("-" otherwise), then the winner: its
// TileExpr::structure_key(), comma-separated tile sizes, and measured
// time (printed to round-trip bit-exactly).  The first five fields are
// the record's key.  A file without the header — every file written
// before records named their backend — loads nothing.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ir/chain.hpp"

namespace mcf {

/// Canonical shape key of a chain (name-independent: batch, dims,
/// epilogues).
[[nodiscard]] std::string chain_cache_key(const ChainSpec& chain);

/// First line of every tuning-cache file.
inline constexpr std::string_view kTuningCacheHeader =
    "# mcfuser tuning cache v2: chain gpu backend measure host expr tiles "
    "time_s";

/// One tuned winner and who measured it.
struct TuningRecord {
  std::string chain;  ///< chain_cache_key
  /// "<gpu> <backend> <measure> <host>": an engine serves a record only
  /// when this equals its own.
  std::string producer;
  std::string expr_key;  ///< TileExpr::structure_key()
  std::vector<std::int64_t> tiles;
  double time_s = 0.0;
};

/// One record line (no newline); nullopt when the line is malformed.
[[nodiscard]] std::optional<TuningRecord> parse_tuning_record(
    std::string_view line);
[[nodiscard]] std::string format_tuning_record(const TuningRecord& r);

/// Appends the record lines of `path` (comments and blank lines
/// skipped) to `lines`.  False when the file is absent or lacks
/// kTuningCacheHeader (nothing is read), or when its last line was cut
/// short of its newline (that line is dropped).
bool read_tuning_cache(const std::string& path,
                       std::vector<std::string>* lines);

/// Writes the header and `lines`, sorted so save -> load -> save is
/// byte-stable, atomically (tmp + rename): a crash mid-save leaves the
/// previous file intact, and a failed save leaves no temporary behind.
[[nodiscard]] bool write_tuning_cache(const std::string& path,
                                      std::vector<std::string> lines);

}  // namespace mcf
