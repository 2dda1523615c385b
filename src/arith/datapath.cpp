#include "arith/datapath.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "fpcore/float_bits.h"

namespace ihw::arith {
namespace {

std::uint64_t mask_n(int width) {
  return width >= 64 ? ~0ull : ((1ull << width) - 1);
}

}  // namespace

int priority_encode(std::uint64_t v, int width) {
  v &= mask_n(width);
  if (v == 0) return -1;
  return 63 - std::countl_zero(v);
}

std::uint64_t barrel_shift_right(std::uint64_t v, int shift, int width) {
  v &= mask_n(width);
  if (shift >= width || shift >= 64) return 0;
  if (shift < 0) return barrel_shift_left(v, -shift, width);
  return v >> shift;
}

std::uint64_t barrel_shift_left(std::uint64_t v, int shift, int width) {
  v &= mask_n(width);
  if (shift >= width || shift >= 64) return 0;
  if (shift < 0) return barrel_shift_right(v, -shift, width);
  return (v << shift) & mask_n(width);
}

AdderResult add_n(std::uint64_t a, std::uint64_t b, bool cin, int width) {
  assert(width >= 1 && width <= 63);
  const std::uint64_t m = mask_n(width);
  const std::uint64_t s = (a & m) + (b & m) + (cin ? 1 : 0);
  return AdderResult{s & m, (s >> width) != 0};
}

unsigned __int128 array_multiply(std::uint64_t a, std::uint64_t b, int n_bits,
                                 int m_bits, int drop_columns) {
  // One partial-product row a_i * b per set bit of a, without the cells
  // a_i * b_j the truncated array does not form: j < drop_columns - i.
  b &= mask_n(m_bits);
  unsigned __int128 acc = 0;
  for (int i = 0; i < n_bits; ++i) {
    if (!((a >> i) & 1ull)) continue;
    const std::uint64_t row = b & ~mask_n(std::clamp(drop_columns - i, 0, 64));
    acc += static_cast<unsigned __int128>(row) << i;
  }
  return acc;
}

long long array_cell_count(int n_bits, int m_bits, int drop_columns) {
  long long count = 0;
  for (int i = 0; i < n_bits; ++i)
    for (int j = 0; j < m_bits; ++j)
      if (i + j >= drop_columns) ++count;
  return count;
}

namespace {

/// Fraction keep mask of the truncating multipliers: the low `trunc` of
/// `frac_bits` fraction bits cleared, `trunc` clamped to [0, frac_bits].
std::uint64_t keep_mask(int trunc, int frac_bits) {
  trunc = std::clamp(trunc, 0, frac_bits);
  return (mask_n(frac_bits) >> trunc) << trunc;
}

/// Operand stage shared by the multiplier mirrors: the IEEE special cases
/// (NaN in -> qNaN; inf * 0 -> qNaN; inf -> signed inf; subnormals flushed;
/// 0 -> signed 0). Empty when both operands are normal.
template <typename T>
std::optional<T> mul_special(T a, T b) {
  const bool sign = std::signbit(a) != std::signbit(b);
  if (std::isnan(a) || std::isnan(b)) return std::numeric_limits<T>::quiet_NaN();
  a = fp::flush_subnormal(a);
  b = fp::flush_subnormal(b);
  if (std::isinf(a) || std::isinf(b)) {
    if (a == T(0) || b == T(0)) return std::numeric_limits<T>::quiet_NaN();
    return sign ? -std::numeric_limits<T>::infinity()
                : std::numeric_limits<T>::infinity();
  }
  if (a == T(0) || b == T(0)) return sign ? -T(0) : T(0);
  return std::nullopt;
}

}  // namespace

template <typename T>
T structural_ifp_add(T a, T b, int th, bool subtract) {
  using Tr = fp::FloatTraits<T>;
  constexpr int FB = Tr::frac_bits;

  if (subtract) b = -b;
  if (std::isnan(a) || std::isnan(b)) return std::numeric_limits<T>::quiet_NaN();
  if (std::isinf(a) || std::isinf(b)) {
    if (std::isinf(a) && std::isinf(b) && (std::signbit(a) != std::signbit(b)))
      return std::numeric_limits<T>::quiet_NaN();
    return std::isinf(a) ? a : b;
  }
  a = fp::flush_subnormal(a);
  b = fp::flush_subnormal(b);
  // IEEE-754 sum-of-zeros sign: -0 only when both addends are -0.
  if (a == T(0) && b == T(0))
    return std::signbit(a) && std::signbit(b) ? -T(0) : T(0);
  if (a == T(0)) return b;
  if (b == T(0)) return a;

  auto fa = fp::decompose(a);
  auto fb = fp::decompose(b);
  if (fb.biased_exp > fa.biased_exp ||
      (fb.biased_exp == fa.biased_exp && fb.frac > fa.frac)) {
    std::swap(fa, fb);
  }
  const int d = fa.biased_exp - fb.biased_exp;
  th = std::clamp(th, 1, FB + 4);
  if (d >= th) return fp::compose<T>(fa.sign, fa.biased_exp, fa.frac);

  // Alignment stage: TH-bit shifter. Datapath width is th+2 bits (1 integer
  // bit, th fraction bits, 1 carry bit).
  const int w = th + 2;
  const int drop = FB - th;
  std::uint64_t sa, sb;
  if (drop >= 0) {
    sa = barrel_shift_right(fa.significand(), drop, FB + 1);
    sb = barrel_shift_right(fb.significand(), drop + d, FB + 1);
  } else {
    sa = barrel_shift_left(fa.significand(), -drop, FB + 1 - drop);
    sb = (d + drop) >= 0
             ? barrel_shift_right(fb.significand(), d + drop, FB + 1)
             : barrel_shift_left(fb.significand(), -(d + drop), FB + 1 - drop);
  }

  const bool effective_sub = fa.sign != fb.sign;
  AdderResult r = effective_sub ? add_n(sa, ~sb & mask_n(w), true, w)
                                : add_n(sa, sb, false, w);
  const std::uint64_t s = r.sum;  // sa >= sb, so the two's-complement wrap is exact
  if (s == 0) return T(0);

  const int p = priority_encode(s, w);
  const int expz = fa.biased_exp - Tr::bias + (p - th);
  const std::uint64_t body = s ^ (1ull << p);
  const std::uint64_t frac = p <= FB ? barrel_shift_left(body, FB - p, FB + 1)
                                     : barrel_shift_right(body, p - FB, w);
  return fp::compose_flushing<T>(fa.sign, expz, static_cast<fp::BitsOf<T>>(frac));
}

template <typename T>
T structural_ifp_mul(T a, T b) {
  constexpr int FB = fp::FloatTraits<T>::frac_bits;
  if (const auto special = mul_special(a, b)) return *special;

  const auto fa = fp::decompose(a);
  const auto fb = fp::decompose(b);
  int expz = fa.unbiased_exp() + fb.unbiased_exp();
  // Ma + Mb on one FB-bit adder. Its carry-out is the cin of eq. (6):
  // (1 + Ma + Mb) / 2 = 1 + (Ma + Mb - 1) / 2, one right shift.
  const AdderResult r = add_n(fa.frac, fb.frac, false, FB);
  std::uint64_t frac = r.sum;
  if (r.carry_out) {
    expz += 1;
    frac = barrel_shift_right(r.sum, 1, FB);
  }
  return fp::compose_flushing<T>(std::signbit(a) != std::signbit(b), expz,
                                 static_cast<fp::BitsOf<T>>(frac));
}

template <typename T>
T structural_acfp_mul(T a, T b, ihw::AcfpPath path, int trunc) {
  constexpr int FB = fp::FloatTraits<T>::frac_bits;
  if (const auto special = mul_special(a, b)) return *special;

  const std::uint64_t keep = keep_mask(trunc, FB);
  const auto fa = fp::decompose(a);
  const auto fb = fp::decompose(b);
  int expz = fa.unbiased_exp() + fb.unbiased_exp();
  const std::uint64_t ma = fa.frac & keep;
  const std::uint64_t mb = fb.frac & keep;
  std::uint64_t frac;

  if (path == ihw::AcfpPath::Log) {
    // Add2 alone: the characteristic of a normalized significand is fixed,
    // so the log path is one FB-bit fraction adder with its carry feeding
    // the exponent.
    AdderResult r = add_n(ma, mb, false, FB);
    frac = r.sum;
    if (r.carry_out) expz += 1;
  } else {
    // Full path. MA multiplier on the fraction pair, with F fraction bits in
    // the log domain: every fraction of both formats has its leading one at
    // k <= FB-1 < F, so the binary-to-log conversion is exact.
    constexpr int F = 60;
    std::uint64_t cross;  // MA(Ma*Mb) >> FB, aligned to the 2^-FB scale
    if (ma == 0 || mb == 0) {
      cross = 0;
    } else {
      const int k1 = priority_encode(ma, FB);
      const int k2 = priority_encode(mb, FB);
      const std::uint64_t x1 =
          barrel_shift_left(ma ^ (1ull << k1), F - k1, F + 1);
      const std::uint64_t x2 =
          barrel_shift_left(mb ^ (1ull << k2), F - k2, F + 1);
      AdderResult r2 = add_n(x1, x2, false, F);  // Add2
      const int k = k1 + k2 + (r2.carry_out ? 1 : 0);
      // Antilog 2^k * 1.f is a shift of 1.f (scale 2^-F); Add3's >> FB
      // alignment folds into the same shifter. k <= 2FB-1, so the shift
      // F + FB - k is always to the right.
      const std::uint64_t antilog = (1ull << F) + r2.sum;
      cross = barrel_shift_right(antilog, F + FB - k, F + 1);
    }
    // Add1: 1 + Ma + Mb; Add3: + aligned cross term.
    const std::uint64_t one = 1ull << FB;
    const std::uint64_t S = one + ma + mb + cross;
    if (S < (one << 1)) {
      frac = S - one;
    } else {
      expz += 1;
      frac = (S >> 1) - one;
    }
  }
  return fp::compose_flushing<T>(std::signbit(a) != std::signbit(b), expz,
                                 static_cast<fp::BitsOf<T>>(frac));
}

template <typename T>
T structural_trunc_mul(T a, T b, int trunc) {
  constexpr int FB = fp::FloatTraits<T>::frac_bits;
  if (const auto special = mul_special(a, b)) return *special;

  const auto fa = fp::decompose(a);
  const auto fb = fp::decompose(b);
  int expz = fa.unbiased_exp() + fb.unbiased_exp();
  // Exact (FB+1) x (FB+1) array: the product has 2FB fraction bits and lies
  // in [1, 4); a product in [2, 4) normalizes by one more right shift.
  const unsigned __int128 p =
      array_multiply(fa.significand(), fb.significand(), FB + 1, FB + 1, 0);
  const bool cin = (p >> (2 * FB + 1)) != 0;
  if (cin) expz += 1;
  const std::uint64_t frac =
      static_cast<std::uint64_t>(p >> (cin ? FB + 1 : FB)) & mask_n(FB);
  return fp::compose_flushing<T>(std::signbit(a) != std::signbit(b), expz,
                                 static_cast<fp::BitsOf<T>>(
                                     frac & keep_mask(trunc, FB)));
}

template float structural_ifp_add<float>(float, float, int, bool);
template double structural_ifp_add<double>(double, double, int, bool);
template float structural_ifp_mul<float>(float, float);
template double structural_ifp_mul<double>(double, double);
template float structural_acfp_mul<float>(float, float, ihw::AcfpPath, int);
template double structural_acfp_mul<double>(double, double, ihw::AcfpPath,
                                            int);
template float structural_trunc_mul<float>(float, float, int);
template double structural_trunc_mul<double>(double, double, int);

}  // namespace ihw::arith
