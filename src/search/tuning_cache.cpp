#include "search/tuning_cache.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>

#include "support/atomic_file.hpp"

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

/// Whole-token number parse: false on trailing junk or overflow.
template <typename T>
bool parse_number(std::string_view tok, T* out) {
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

std::optional<TuningRecord> parse_tuning_record(std::string_view line) {
  std::istringstream is{std::string(line)};
  std::vector<std::string> tok;
  for (std::string t; is >> t;) tok.push_back(std::move(t));
  if (tok.size() != 8) return std::nullopt;
  TuningRecord r;
  r.chain = tok[0];
  r.producer = tok[1] + " " + tok[2] + " " + tok[3] + " " + tok[4];
  r.expr_key = tok[5];
  std::istringstream tiles(tok[6]);
  for (std::string t; std::getline(tiles, t, ',');) {
    std::int64_t tile = 0;
    if (!parse_number(t, &tile) || tile <= 0) return std::nullopt;
    r.tiles.push_back(tile);
  }
  if (tok[6].back() == ',' || !parse_number(tok[7], &r.time_s) ||
      !(r.time_s > 0.0 && std::isfinite(r.time_s))) {
    return std::nullopt;
  }
  return r;
}

std::string format_tuning_record(const TuningRecord& r) {
  std::ostringstream os;
  // max_digits10: times round-trip bit-exactly through the text format.
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << r.chain << " " << r.producer << " " << r.expr_key << " ";
  for (std::size_t i = 0; i < r.tiles.size(); ++i) {
    os << (i ? "," : "") << r.tiles[i];
  }
  os << " " << r.time_s;
  return os.str();
}

bool read_tuning_cache(const std::string& path,
                       std::vector<std::string>* lines) {
  std::ifstream f(path);
  std::string line;
  if (!std::getline(f, line) || line != kTuningCacheHeader) return false;
  while (std::getline(f, line)) {
    // A last line cut short of its newline: never trust its numbers.
    if (f.eof()) return false;
    if (!line.empty() && line.front() != '#') lines->push_back(line);
  }
  return true;
}

bool write_tuning_cache(const std::string& path,
                        std::vector<std::string> lines) {
  std::sort(lines.begin(), lines.end());
  std::string out = std::string(kTuningCacheHeader) + "\n";
  for (const std::string& line : lines) out += line + "\n";
  return write_file_atomic(path, out);
}

}  // namespace mcf
