// 64-bit FNV-1a: the one hash behind snapshot checksums, spec fingerprints
// and the golden stats digests.
#pragma once

#include <cstdint>
#include <string_view>

namespace rop {

[[nodiscard]] constexpr std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ULL;  // offset basis
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;  // FNV prime
  }
  return h;
}

}  // namespace rop
