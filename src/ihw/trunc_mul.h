#pragma once
// "Intuitive" bit-truncation baseline multiplier (the conventional technique
// the paper argues against, cf. Wires et al. / Gupta et al.): the mantissa
// product is computed exactly, then the result fraction is truncated to
// (frac_bits - trunc) bits. The IEEE-754 exponent/normalization
// infrastructure is retained (which is why its power saving saturates --
// see the power model). trunc = 0 with round-to-nearest-even gives the
// DesignWare-equivalent precise multiplier used as the reference.
#include "fpcore/float_bits.h"
#include "ihw/lanes.h"

namespace ihw {

/// a * b through the bit-truncation multiplier, `trunc` clamped to
/// [0, frac_bits]: lanes::trunc_mul_core for normal operands with an
/// in-range product, lanes::trunc_mul_lane otherwise.
template <typename T>
inline T trunc_mul(T a, T b, int trunc) {
  const auto ab = fp::to_bits(a), bb = fp::to_bits(b);
  const fp::BitsOf<T> keep = lanes::frac_keep<T>(trunc);
  return lanes::mul_unit<T, &lanes::trunc_mul_lane<T>>(
      ab, bb, lanes::trunc_mul_core<T>(ab, bb, keep), keep);
}

}  // namespace ihw
