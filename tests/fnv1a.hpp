// 64-bit FNV-1a, the pinned tests' compact fingerprint of a byte stream
// (traces, response streams, WAL files). Streaming: hashing a second
// buffer from the first one's result equals hashing their concatenation.
#pragma once

#include <cstdint>
#include <string_view>

namespace resched::fnv {

inline constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ull;

inline std::uint64_t fnv1a(std::string_view bytes,
                           std::uint64_t h = kOffsetBasis) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace resched::fnv
