#pragma once
// Imprecise floating-point adder/subtractor with structural threshold TH
// (Ch. 3.1). During mantissa alignment, if the exponent difference d exceeds
// TH the smaller operand is dropped entirely; otherwise both aligned
// significands pass through a (TH+1)-bit datapath (1 integer bit + TH
// fraction bits), so fraction bits below weight 2^-TH (relative to the larger
// exponent) are truncated. No IEEE-754 rounding; subnormals flush to zero.
//
// Error bounds (Ch. 4.1.1, effective addition, TH=8): < 0.78%.
#include "fpcore/float_bits.h"
#include "ihw/lanes.h"

namespace ihw {

/// Computes a + b through the TH-threshold imprecise adder, TH clamped to
/// [1, frac_bits+4] (lanes::ifp_add_lane). Set `subtract` to compute a - b
/// (the unit negates b's sign, exactly as hardware does).
template <typename T>
T ifp_add(T a, T b, int th, bool subtract = false) {
  const fp::BitsOf<T> flip =
      subtract ? fp::FloatTraits<T>::sign_mask : fp::BitsOf<T>{0};
  return fp::from_bits<T>(lanes::ifp_add_lane<T>(
      fp::to_bits(a), fp::to_bits(b) ^ flip, lanes::add_th<T>(th)));
}

/// a - b through the imprecise adder.
template <typename T>
T ifp_sub(T a, T b, int th) {
  return ifp_add(a, b, th, /*subtract=*/true);
}

extern template float ifp_add<float>(float, float, int, bool);
extern template double ifp_add<double>(double, double, int, bool);

}  // namespace ihw
