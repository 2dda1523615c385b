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
/// [1, frac_bits+4]. Set `subtract` to compute a - b (the unit negates b's
/// sign, exactly as hardware does). Two normal operands take the adder's
/// core (lanes::ifp_add_core); any other pair runs the whole lane
/// (lanes::ifp_add_lane) out of line.
template <typename T>
inline T ifp_add(T a, T b, int th, bool subtract = false) {
  using B = fp::BitsOf<T>;
  const B ab = fp::to_bits(a);
  const B bb =
      fp::to_bits(b) ^ (subtract ? fp::FloatTraits<T>::sign_mask : B{0});
  th = lanes::add_th<T>(th);
  if (lanes::both_normal<T>(ab, bb)) [[likely]]
    return fp::from_bits<T>(lanes::ifp_add_core<T>(ab, bb, th));
  return fp::from_bits<T>(
      lanes::out_of_line<&lanes::ifp_add_lane<T>>(ab, bb, th));
}

/// a - b through the imprecise adder.
template <typename T>
inline T ifp_sub(T a, T b, int th) {
  return ifp_add(a, b, th, /*subtract=*/true);
}

}  // namespace ihw
