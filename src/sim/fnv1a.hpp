// FNV-1a (64-bit): the order-sensitive digest behind the CDG
// certificate (noc/network/routing.cpp) and the golden report digests
// under tests/golden/.
#pragma once

#include <cstdint>
#include <string_view>

namespace mango::sim {

inline constexpr std::uint64_t kFnv1aBasis = 1469598103934665603ull;

/// Folds one value into an FNV-1a digest.
constexpr std::uint64_t fnv1a_step(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 1099511628211ull;
}

/// FNV-1a over a byte string.
constexpr std::uint64_t fnv1a_bytes(std::string_view bytes) {
  std::uint64_t h = kFnv1aBasis;
  for (const char c : bytes) h = fnv1a_step(h, static_cast<unsigned char>(c));
  return h;
}

}  // namespace mango::sim
