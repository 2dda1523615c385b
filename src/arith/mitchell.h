#pragma once
// Mitchell's algorithm (MA) for approximate fixed-point multiplication
// (Ch. 3.2.1, Fig. 6). Operands are unsigned integers; the result is the
// piecewise-linear log/antilog approximation of eq. (12):
//
//   D1*D2 ~ 2^(k1+k2)   * (1 + x1 + x2)   when x1+x2 in [0,1)
//   D1*D2 ~ 2^(k1+k2+1) * (x1 + x2)       when x1+x2 in [1,2)
//
// where ki is the leading-one position and xi the normalized fraction.
// The relative error is always <= 1/9 (11.11%), proven in [Mitchell 1962]
// and re-derived in Ch. 4 of the paper.
#include <cstdint>

namespace ihw::arith {

using u128 = unsigned __int128;

/// Intermediate values of one MA multiplication, exposed so tests and the
/// structural datapath model can check stage-by-stage agreement.
struct MitchellTrace {
  int k1 = 0, k2 = 0;          // leading-one positions
  u128 x1 = 0, x2 = 0;         // fractions, kFracBits wide
  u128 log_sum = 0;            // (k1+k2)<<kFracBits | fraction sum
  bool carry = false;          // fraction sum overflowed into the characteristic
  u128 product = 0;            // approximated product
};

/// Fraction width of the internal fixed-point log representation. 60 bits
/// covers both binary32 (24-bit) and binary64 (53-bit) significands exactly.
inline constexpr int kMaFracBits = 60;

/// Approximates a*b with Mitchell's algorithm. Exact zeros propagate.
/// Both operands must fit in 61 bits (leading-one position <= kMaFracBits).
u128 mitchell_mul(std::uint64_t a, std::uint64_t b);

/// Same, but also reports the datapath trace.
u128 mitchell_mul_traced(std::uint64_t a, std::uint64_t b, MitchellTrace* trace);

/// Exact product for reference (widening multiply).
inline u128 exact_mul(std::uint64_t a, std::uint64_t b) {
  return static_cast<u128>(a) * static_cast<u128>(b);
}

}  // namespace ihw::arith
