// Whole-file reads and atomic whole-file writes.
#pragma once

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

namespace rop {

/// The file's bytes into `out`; false when it cannot be opened.
[[nodiscard]] inline bool read_file(const std::string& path,
                                    std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = std::move(ss).str();
  return true;
}

/// Write `bytes` to PATH.tmp and rename it over `path`, so a reader never
/// sees a half-written file even if the process dies mid-write. On any
/// failure PATH.tmp is removed and `path` is left as it was.
[[nodiscard]] inline bool write_file_atomic(const std::string& path,
                                            std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  // `out` holds only if the file was opened, written, flushed and closed.
  std::error_code ec;
  if (out) std::filesystem::rename(tmp, path, ec);
  if (out && !ec) return true;
  std::filesystem::remove(tmp, ec);
  return false;
}

}  // namespace rop
