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

/// Fraction fields for operands built at chosen exponent fields: zero, the
/// lowest and highest bit, all ones, and every 4099th 16-bit pattern placed
/// in the top and in the bottom of the field (the two halves of
/// for_each_exhaustive_pair).
template <typename T>
std::vector<fp::BitsOf<T>> edge_fractions() {
  using Tr = fp::FloatTraits<T>;
  using B = fp::BitsOf<T>;
  std::vector<B> f = {0, 1, Tr::hidden_bit >> 1, (Tr::hidden_bit >> 1) | 1,
                      Tr::frac_mask, Tr::frac_mask - 1};
  for (B p = 1; p < (B{1} << 16); p += 4099) {
    f.push_back(p << (Tr::frac_bits - 16));
    f.push_back(p);
  }
  return f;
}

/// Every operand with an exponent field from `fields`, either sign and a
/// fraction from edge_fractions.
template <typename T>
std::vector<T> field_operands(const std::vector<int>& fields) {
  using Tr = fp::FloatTraits<T>;
  using B = fp::BitsOf<T>;
  std::vector<T> v;
  for (int e : fields)
    for (B sign : {B{0}, Tr::sign_mask})
      for (B frac : edge_fractions<T>())
        v.push_back(fp::from_bits<T>(
            sign | (static_cast<B>(e) << Tr::frac_bits) | frac));
  return v;
}

/// Every pair of field_operands(fa) x field_operands(fb), as two spans.
template <typename T>
std::pair<std::vector<T>, std::vector<T>> field_pairs(
    const std::vector<int>& fa, const std::vector<int>& fb) {
  const std::vector<T> xs = field_operands<T>(fa), ys = field_operands<T>(fb);
  std::pair<std::vector<T>, std::vector<T>> pairs;
  for (T x : xs) {
    for (T y : ys) {
      pairs.first.push_back(x);
      pairs.second.push_back(y);
    }
  }
  return pairs;
}

/// The multipliers' carry edge, as significand pairs (ma, mb): 24-bit
/// integers 2^23 + f, so that 1.fa x 1.fb = ma * mb / 2^46 and the product
/// carries (reaches 2) at ma * mb = 2^47. For `n` values of ma -- fa = 0,
/// fa all ones, then draws from `seed` -- the pairs are every mb with
/// ma * mb in [2^47 - 2^24, 2^47), the top two ulps below 2, whose upper
/// part rounds to nearest as exactly 2.0 although it does not carry; the
/// first mb with ma * mb >= 2^47 (no 24-bit pair makes 2^47 itself, so
/// these two bracket the boundary); mb = 2^23 (fb = 0), an exact product;
/// and one random mb.
inline std::vector<std::pair<std::uint32_t, std::uint32_t>>
carry_edge_significands(std::size_t n, std::uint64_t seed) {
  constexpr std::uint64_t kLo = std::uint64_t{1} << 23, kHi = kLo << 1;
  constexpr std::uint64_t kTwo = std::uint64_t{1} << 47;
  std::mt19937_64 rng(seed);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t ma = i == 0 ? kLo : i == 1 ? kHi - 1 : kLo + rng() % kLo;
    const auto add = [&](std::uint64_t mb) {
      if (mb < kHi) pairs.emplace_back(std::uint32_t(ma), std::uint32_t(mb));
    };
    const std::uint64_t carry = (kTwo + ma - 1) / ma;
    for (std::uint64_t mb = (kTwo - kHi + ma - 1) / ma; mb <= carry; ++mb)
      add(mb);
    add(kLo);
    add(kLo + rng() % kLo);
  }
  return pairs;
}

/// carry_edge_significands as float operand pairs, two spans: each
/// significand with a random sign and an exponent within 2^+-20, so that
/// every product stays inside the normal range.
inline std::pair<std::vector<float>, std::vector<float>> carry_edge_operands(
    std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed + 1);
  const auto operand = [&](std::uint32_t m) {
    const auto e = static_cast<std::uint32_t>(127 - 20 + rng() % 41);
    return fp::from_bits<float>(static_cast<std::uint32_t>(rng() << 31) |
                                (e << 23) | (m & 0x7FFFFFu));
  };
  std::pair<std::vector<float>, std::vector<float>> spans;
  for (const auto& [ma, mb] : carry_edge_significands(n, seed)) {
    spans.first.push_back(operand(ma));
    spans.second.push_back(operand(mb));
  }
  return spans;
}

}  // namespace ihw::test_operands
