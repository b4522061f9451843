#include "support/atomic_file.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>

namespace mcf {

bool write_file_atomic(const std::string& path, const std::string& contents) {
  // Same directory as the target so rename() stays on one filesystem;
  // pid + counter keep concurrent writers (threads or processes) apart.
  static std::atomic<unsigned long> counter{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(counter.fetch_add(1));
  bool ok = false;
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (f) {
      f << contents;
      f.flush();
      ok = static_cast<bool>(f);
    }
  }
  if (ok) ok = std::rename(tmp.c_str(), path.c_str()) == 0;
  if (!ok) std::remove(tmp.c_str());
  return ok;
}

}  // namespace mcf
