// Crash-consistent file publish: readers of `path` see either the old
// contents or the new, never a torn write — even if the writer is killed
// mid-write.  Used for every piece of persistent state (the tuning cache,
// the jit's per-kernel index files).
#pragma once

#include <string>

namespace mcf {

/// Writes `contents` to a unique temporary file in `path`'s directory,
/// checks the stream, then rename()s it over `path`.  On any failure the
/// temporary is removed, `path` is left untouched and false is returned.
[[nodiscard]] bool write_file_atomic(const std::string& path,
                                     const std::string& contents);

}  // namespace mcf
