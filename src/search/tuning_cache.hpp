// Persistent tuning cache: tuned candidates keyed by (chain shape, GPU),
// serialised to a plain-text file so deployments skip re-tuning — the
// repo's analogue of TVM's tuning logs (and the practical complement of
// the paper's "rapid" claim: zero seconds is faster than 35).
//
// File format, one record per line:
//   <chain-key> <gpu-name> <expr-structure-key> <tile0,tile1,...> <time_s>
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "gpu/spec.hpp"
#include "ir/chain.hpp"
#include "search/space.hpp"

namespace mcf {

/// Canonical shape key of a chain (name-independent: batch, dims,
/// epilogues).
[[nodiscard]] std::string chain_cache_key(const ChainSpec& chain);

/// One cached tuning result.
struct CachedSchedule {
  std::string expr_key;               ///< TileExpr::structure_key()
  std::vector<std::int64_t> tiles;
  double time_s = 0.0;
};

class TuningCache {
 public:
  TuningCache() = default;

  /// Loads records from `path`; returns false when the file is absent or
  /// malformed lines were skipped.
  bool load(const std::string& path);
  /// Writes all records to `path` atomically (tmp + rename): a crash
  /// mid-save leaves the previous file intact.
  [[nodiscard]] bool save(const std::string& path) const;

  void put(const ChainSpec& chain, const GpuSpec& gpu, CachedSchedule entry);
  [[nodiscard]] std::optional<CachedSchedule> get(const ChainSpec& chain,
                                                  const GpuSpec& gpu) const;

  /// Resolves a cached entry against a freshly built search space,
  /// returning the matching candidate when the entry is still valid
  /// (expression class present, tiles still on the rule-checked grid —
  /// SearchSpace::contains).
  [[nodiscard]] std::optional<CandidateConfig> resolve(
      const ChainSpec& chain, const GpuSpec& gpu,
      const SearchSpace& space) const;

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

 private:
  std::map<std::string, CachedSchedule> entries_;  ///< key: chain|gpu
};

}  // namespace mcf
