// hash.hpp -- deterministic 64-bit mixing for checksums and seeded streams.
//
// The wire codec's frame checksums (dist/wire.hpp) and the fault layer's
// seeded decisions (dist/fault.hpp) need a fast, seedable,
// platform-independent hash.  std::hash is none of those (identity on
// integers under libstdc++, unspecified elsewhere), so we use the splitmix64
// finalizer as the mixer.  Nothing here is cryptographic.
#pragma once

#include <bit>
#include <cstdint>

namespace locmm {

// splitmix64 finalizer: a fast, well-distributed 64 -> 64 bijection.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Sequential combiner: order-sensitive (hash_combine(a, b) != of (b, a)),
// which is what port-ordered structures need.
inline std::uint64_t hash_combine(std::uint64_t seed, std::uint64_t value) {
  return mix64(seed ^ (value + 0x9e3779b97f4a7c15ull + (seed << 6) +
                       (seed >> 2)));
}

// Raw bit pattern of a double, -0.0 kept distinct from +0.0.  This is the
// fold for *wire checksums* (dist/fault.hpp: message_checksum), where the
// sign of zero is a payload bit like any other and a single-bit corruption
// must always change the digest.
inline std::uint64_t payload_bits(double c) {
  return std::bit_cast<std::uint64_t>(c);
}

}  // namespace locmm
