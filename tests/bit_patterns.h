#pragma once
// Operand sets shared by the bit-identity suites (test_simd, test_batch,
// test_datapath): the random-bit-pattern recipe with the IEEE special
// values mixed in, the exhaustive 16-bit-pattern pairs, and the grid of
// every special value against every other.
#include <cstddef>
#include <cstdint>
#include <limits>
#include <random>
#include <utility>
#include <vector>

#include "fpcore/float_bits.h"

namespace ihw::test_operands {

/// Zeros, infinities, NaN, the smallest subnormals and the extreme normals
/// of both signs, and a few plain values.
template <typename T>
std::vector<T> special_values() {
  using L = std::numeric_limits<T>;
  return {T(0.0),          T(-0.0),        L::infinity(), -L::infinity(),
          L::quiet_NaN(),  L::denorm_min(), -L::denorm_min(), L::max(),
          L::min(),        T(1.0),          T(-1.0),          T(1.5)};
}

/// Random bit patterns with a special value in one slot of eight.
template <typename T>
std::vector<T> fuzz_operands(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const std::vector<T> specials = special_values<T>();
  std::vector<T> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng() % 8 == 0) {
      v[i] = specials[rng() % specials.size()];
    } else {
      v[i] = fp::from_bits<T>(static_cast<fp::BitsOf<T>>(rng()));
    }
  }
  return v;
}

/// Every special value against every special value, as two spans.
template <typename T>
std::pair<std::vector<T>, std::vector<T>> special_grid() {
  const std::vector<T> s = special_values<T>();
  std::pair<std::vector<T>, std::vector<T>> grid;
  for (T x : s) {
    for (T y : s) {
      grid.first.push_back(x);
      grid.second.push_back(y);
    }
  }
  return grid;
}

/// Every 16-bit pattern, twice: in the high half of the word (all sign and
/// exponent combinations of binary32, plus the upper fraction bits -- every
/// special class; binary64's sign, exponent and top four fraction bits) and
/// in the low half under the exponent field of 0.5 (low-fraction and
/// tail-bit behaviour). Calls `check(a, b)` on span pairs in which each
/// a-class meets aligned, sign-flipped and distant-exponent partners, and
/// stops early when `check` returns false.
template <typename T, typename Check>
void for_each_exhaustive_pair(Check&& check) {
  using Tr = fp::FloatTraits<T>;
  using B = fp::BitsOf<T>;
  constexpr std::size_t kN = std::size_t{1} << 16;
  constexpr int kHiShift = static_cast<int>(sizeof(B) * 8) - 16;
  std::vector<B> hi(kN), lo(kN);
  for (std::size_t p = 0; p < kN; ++p) {
    hi[p] = static_cast<B>(p) << kHiShift;
    lo[p] = (static_cast<B>(Tr::bias - 1) << Tr::frac_bits) | static_cast<B>(p);
  }
  const auto values = [](const std::vector<B>& bits, std::size_t rot) {
    std::vector<T> v(bits.size());
    for (std::size_t i = 0; i < bits.size(); ++i)
      v[i] = fp::from_bits<T>(bits[(i + rot) % bits.size()]);
    return v;
  };
  for (std::size_t rot : {std::size_t{1}, std::size_t{0x8000},
                          std::size_t{257}}) {
    if (!check(values(hi, 0), values(hi, rot))) return;
    if (!check(values(lo, 0), values(lo, rot))) return;
    // High half against low half: large exponent gaps feed the adder's
    // vanishing-operand select and the multipliers' clamp windows.
    if (!check(values(hi, 0), values(lo, rot))) return;
  }
}

}  // namespace ihw::test_operands
