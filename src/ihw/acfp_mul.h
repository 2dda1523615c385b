#pragma once
// Low-power accuracy-configurable floating-point multiplier based on
// Mitchell's algorithm (Ch. 3.2.2, Fig. 7). Two datapaths:
//
//  * Log path:  the whole mantissa product (1+Ma)(1+Mb) goes through the MA
//    multiplier. Because normalized significands have their leading one at a
//    fixed position, the MA characteristic is constant and the datapath
//    reduces to one fraction adder. emax = 11.11%.
//  * Full path: (1+Ma)(1+Mb) = 1 + Ma + Mb + Ma*Mb, where 1+Ma+Mb comes from
//    Add1 and the small cross term Ma*Mb from the MA multiplier (Add2),
//    summed by Add3. emax = 2.04% (derived in Ch. 4.1.2).
//
// On top of either path, `trunc` LSBs of the fractions entering the MA/adder
// stage are truncated, trading accuracy for adder width (and thus power).
// No rounding unit; subnormals flush to zero.
#include "fpcore/float_bits.h"
#include "ihw/lanes.h"

namespace ihw {

enum class AcfpPath { Log, Full };

/// a * b through the Mitchell multiplier's `path`, `trunc` clamped to
/// [0, frac_bits]: the path's core (lanes::acfp_log_core,
/// lanes::acfp_full_core) for normal operands with an in-range product, its
/// lane otherwise.
template <typename T>
inline T acfp_mul(T a, T b, AcfpPath path, int trunc = 0) {
  const auto ab = fp::to_bits(a), bb = fp::to_bits(b);
  const fp::BitsOf<T> keep = lanes::frac_keep<T>(trunc);
  if (path == AcfpPath::Full) {
    return lanes::mul_unit<T, &lanes::acfp_full_lane<T>>(
        ab, bb, lanes::acfp_full_core<T>(ab, bb, keep), keep);
  }
  return lanes::mul_unit<T, &lanes::acfp_log_lane<T>>(
      ab, bb, lanes::acfp_log_core<T>(ab, bb, keep), keep);
}

}  // namespace ihw
