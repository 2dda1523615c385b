#pragma once
// The original imprecise floating-point multiplier of Table 1 (Ch. 3.1):
// the 24x24-bit mantissa multiplication is replaced by a 25-bit addition,
//
//   (1+Ma)(1+Mb) ~ 1 + Ma + Mb          (Ma + Mb <  1)
//                ~ (1 + Ma + Mb) / 2    (Ma + Mb >= 1, exponent carry-in)
//
// i.e. the Ma*Mb cross term is dropped. Maximum relative error is 25%
// (at Ma = Mb -> 1). No rounding unit; subnormals flush to zero; infinities
// and NaNs are preserved.
#include "fpcore/float_bits.h"
#include "ihw/lanes.h"

namespace ihw {

/// a * b through the imprecise multiplier: lanes::ifp_mul_core for normal
/// operands with an in-range product, lanes::ifp_mul_lane otherwise.
template <typename T>
inline T ifp_mul(T a, T b) {
  const auto ab = fp::to_bits(a), bb = fp::to_bits(b);
  return lanes::mul_unit<T, &lanes::ifp_mul_lane<T>>(
      ab, bb, lanes::ifp_mul_core<T>(ab, bb));
}

}  // namespace ihw
