// FNV-1a over 64-bit words: the digest the pinned-behaviour tests compare
// against a recorded value. A change that moves a digest changed what the
// code computes, not just how fast it computes it.
#pragma once

#include <bit>
#include <cstdint>
#include <string_view>

namespace wehey::pinned {

struct Digest {
  std::uint64_t h = 14695981039346656037ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  /// The length, then one word per character.
  void add(std::string_view s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) {
      add(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
    }
  }
};

}  // namespace wehey::pinned
