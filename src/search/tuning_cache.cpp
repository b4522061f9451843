#include "search/tuning_cache.hpp"

#include <cstdio>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>

#include "support/atomic_file.hpp"
#include "support/logging.hpp"

namespace mcf {

std::string chain_cache_key(const ChainSpec& chain) {
  std::ostringstream os;
  os << "b" << chain.batch() << "m" << chain.m();
  for (const auto d : chain.inner()) os << "x" << d;
  bool has_softmax = false;
  for (int op = 0; op < chain.num_ops(); ++op) {
    os << ":" << epilogue_name(chain.epilogue(op));
    has_softmax |= chain.epilogue(op) == Epilogue::OnlineSoftmax;
  }
  // The softmax scale changes the computed kernel, so same-shape chains
  // with different scales must not share a cache entry or dedup digest.
  // Appended only for softmax chains, keeping every other key unchanged;
  // %.9g round-trips floats exactly and contains no whitespace or '|'.
  if (has_softmax) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), ":s%.9g",
                  static_cast<double>(chain.softmax_scale()));
    os << buf;
  }
  return os.str();
}

namespace {
std::string record_key(const ChainSpec& chain, const GpuSpec& gpu) {
  return chain_cache_key(chain) + "|" + gpu.name;
}
}  // namespace

bool TuningCache::load(const std::string& path) {
  std::ifstream f(path);
  if (!f) return false;
  bool clean = true;
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty() || line.front() == '#') continue;
    std::istringstream is(line);
    std::string chain_key;
    std::string gpu_name;
    CachedSchedule entry;
    std::string tiles;
    if (!(is >> chain_key >> gpu_name >> entry.expr_key >> tiles >>
          entry.time_s)) {
      clean = false;
      continue;
    }
    std::istringstream ts(tiles);
    std::string tok;
    bool tiles_ok = true;
    while (std::getline(ts, tok, ',')) {
      std::size_t used = 0;
      std::int64_t value = 0;
      try {
        value = std::stoll(tok, &used);
      } catch (const std::exception&) {
        used = 0;
      }
      if (used != tok.size() || tok.empty()) {
        tiles_ok = false;  // non-numeric tile token: skip the whole line
        break;
      }
      entry.tiles.push_back(value);
    }
    if (!tiles_ok) {
      clean = false;
      continue;
    }
    entries_[chain_key + "|" + gpu_name] = std::move(entry);
  }
  return clean;
}

bool TuningCache::save(const std::string& path) const {
  std::ostringstream f;
  // max_digits10: times round-trip bit-exactly through the text format
  // (the golden round-trip test pins this).
  f << std::setprecision(std::numeric_limits<double>::max_digits10);
  f << "# mcfuser tuning cache: chain gpu expr tiles time_s\n";
  for (const auto& [key, entry] : entries_) {
    const auto sep = key.find('|');
    f << key.substr(0, sep) << " " << key.substr(sep + 1) << " "
      << entry.expr_key << " ";
    for (std::size_t i = 0; i < entry.tiles.size(); ++i) {
      if (i) f << ",";
      f << entry.tiles[i];
    }
    f << " " << entry.time_s << "\n";
  }
  // tmp + rename: a crash mid-save leaves the previous cache intact.
  return write_file_atomic(path, f.str());
}

void TuningCache::put(const ChainSpec& chain, const GpuSpec& gpu,
                      CachedSchedule entry) {
  entries_[record_key(chain, gpu)] = std::move(entry);
}

std::optional<CachedSchedule> TuningCache::get(const ChainSpec& chain,
                                               const GpuSpec& gpu) const {
  const auto it = entries_.find(record_key(chain, gpu));
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

std::optional<CandidateConfig> TuningCache::resolve(
    const ChainSpec& chain, const GpuSpec& gpu,
    const SearchSpace& space) const {
  const auto entry = get(chain, gpu);
  if (!entry) return std::nullopt;
  for (int e = 0; e < static_cast<int>(space.expressions().size()); ++e) {
    if (space.expressions()[static_cast<std::size_t>(e)].structure_key() !=
        entry->expr_key) {
      continue;
    }
    CandidateConfig c;
    c.expr_id = e;
    c.tiles.assign(entry->tiles.begin(), entry->tiles.end());
    if (static_cast<int>(c.tiles.size()) != chain.num_loops()) return std::nullopt;
    // Grid membership, not passes_rules: every entry this cache records
    // came off the enumeration grid, so a miss means the space's rules or
    // options changed under the entry — reject it and re-tune.
    if (!space.contains(c)) return std::nullopt;
    return c;
  }
  return std::nullopt;
}

}  // namespace mcf
