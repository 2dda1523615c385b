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
/// [0, frac_bits] (lanes::trunc_mul_lane).
template <typename T>
T trunc_mul(T a, T b, int trunc) {
  return fp::from_bits<T>(lanes::trunc_mul_lane<T>(
      fp::to_bits(a), fp::to_bits(b), lanes::frac_keep<T>(trunc)));
}

extern template float trunc_mul<float>(float, float, int);
extern template double trunc_mul<double>(double, double, int);

}  // namespace ihw
