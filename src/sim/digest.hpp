// FNV-1a over 64-bit words, folded one little-endian byte at a time: the
// one fold behind every pinned state digest (session store, exchange,
// load generator, sharded market). Folding values rather than raw memory
// keeps a digest independent of struct layout and padding.
#pragma once

#include <cstdint>

namespace tsn::sim {

struct Digest {
  static constexpr std::uint64_t kOffset = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;

  std::uint64_t hash = kOffset;

  constexpr void mix(std::uint64_t value) noexcept {
    for (int i = 0; i < 8; ++i) {
      hash ^= (value >> (i * 8)) & 0xffU;
      hash *= kPrime;
    }
  }
};

}  // namespace tsn::sim
