#pragma once
// The one definition of each imprecise adder and multiplier datapath: a
// branch-free select chain over the raw bit patterns of one operand pair.
//
//   * The scalar units (ifp_add.h, ifp_mul.h, acfp_mul.h, trunc_mul.h) are
//     these lanes on one element: bit-cast in, clamp the parameter once,
//     bit-cast out.
//   * The span kernels (batch.h) run the same lanes over operand spans with
//     the parameters hoisted out of the loop, so the compiler can
//     if-convert and autovectorize the integer datapath.
//   * The hand-vectorized AVX2/AVX-512 kernels (simd/kernel_body.h) mirror
//     these lanes op for op and are checked against them (test_simd).
//
// The independent oracle is the structural datapath model in arith/datapath
// (priority encoders, barrel shifters, width-masked adders, an array
// multiplier; Fig. 11's VHDL-vs-C++ step), which test_datapath and
// test_batch compare bit-exactly against these lanes, including NaN
// canonicalization, infinity and signed-zero rules, subnormal flushing and
// exponent overflow/underflow.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <type_traits>

#include "fpcore/float_bits.h"

namespace ihw::lanes {

/// Positive canonical quiet NaN bit pattern (what std::numeric_limits<T>::
/// quiet_NaN() is on every platform we target): exponent all-ones, MSB of
/// the fraction set.
template <typename T>
constexpr fp::BitsOf<T> qnan_bits() {
  using Tr = fp::FloatTraits<T>;
  return (Tr::exp_mask << Tr::frac_bits) | (Tr::hidden_bit >> 1);
}

/// The adder's threshold TH clamped into the physically meaningful range
/// [1, frac_bits+4] -- what ifp_add_lane expects.
template <typename T>
constexpr int add_th(int th) {
  return std::clamp(th, 1, fp::FloatTraits<T>::frac_bits + 4);
}

/// Fraction keep-mask of the truncating multipliers: clears the low `trunc`
/// fraction bits, `trunc` clamped to [0, frac_bits].
template <typename T>
constexpr fp::BitsOf<T> frac_keep(int trunc) {
  using Tr = fp::FloatTraits<T>;
  using B = fp::BitsOf<T>;
  trunc = std::clamp(trunc, 0, Tr::frac_bits);
  return trunc == Tr::frac_bits ? B{0} : (~B{0} << trunc) & Tr::frac_mask;
}

/// One lane of the TH-threshold imprecise adder (ifp_add). `th` is
/// pre-clamped by add_th.
template <typename T>
inline fp::BitsOf<T> ifp_add_lane(fp::BitsOf<T> ab, fp::BitsOf<T> bb, int th) {
  using Tr = fp::FloatTraits<T>;
  using B = fp::BitsOf<T>;
  constexpr int FB = Tr::frac_bits;
  constexpr int kW = static_cast<int>(sizeof(B) * 8);
  constexpr B kInf = Tr::exp_mask << FB;

  const B ea = (ab >> FB) & Tr::exp_mask;
  const B eb = (bb >> FB) & Tr::exp_mask;
  const B fa0 = ab & Tr::frac_mask;
  const B fb0 = bb & Tr::frac_mask;
  // Subnormal flush: a zero exponent field means the (flushed) value is zero.
  const bool a_zero = ea == 0;
  const bool b_zero = eb == 0;
  const B fa = a_zero ? B{0} : fa0;
  const B fb = b_zero ? B{0} : fb0;
  const B sa = ab & Tr::sign_mask;
  const B sb = bb & Tr::sign_mask;

  // Compare-and-swap so x is the larger magnitude (by exponent field, then
  // fraction field). Bitwise | / & on the bools: the short-circuit forms
  // introduce control flow that blocks if-conversion of the whole loop.
  const bool swap = (eb > ea) | ((eb == ea) & (fb > fa));
  const B ex = swap ? eb : ea;
  const B ey = swap ? ea : eb;
  const B fx = swap ? fb : fa;
  const B fy = swap ? fa : fb;
  const B sx = swap ? sb : sa;
  const B sy = swap ? sa : sb;
  const int d = static_cast<int>(ex - ey);

  // The (TH+1)-bit datapath: align both significands to the larger exponent
  // truncated to `th` fraction bits. Both are first widened by the at most
  // 4 bits TH may exceed FB, so every alignment is a right shift, clamped
  // into the type width (out-of-range lanes are overridden by the select
  // chain below). No shift count depends on a sign, which keeps the loop
  // body free of control flow so it can if-convert and vectorize.
  const int drop = FB - th;                     // >= -4
  const int dpos = std::max(drop, 0);           // loop-invariant
  const int dneg = std::max(-drop, 0);          // loop-invariant, <= 4
  const B saligned = ((Tr::hidden_bit | fx) << dneg) >> dpos;
  const B baligned =
      (((Tr::hidden_bit | fy) << dneg) >> std::min(d, kW - 1)) >> dpos;
  const bool esub = sx != sy;
  const B s = esub ? saligned - baligned : saligned + baligned;
  const bool s_zero = s == 0;
  // Leading-one position; the |1 keeps bit_width in range for the dead
  // s == 0 lane (selected away below).
  const int p = std::bit_width(s | B{1}) - 1;  // 0 .. th+1 <= FB+5
  // Normalize into the fraction field, truncating (never rounding) the bits
  // that do not fit: p <= FB+5, so the left shift cannot overflow and the
  // constant right shift floors exactly.
  const B frac = ((s ^ (B{1} << p)) << (FB + 5 - p)) >> 5;
  // Re-pack at exponent ex + (p - th), flushing underflow to the signed
  // zero and saturating overflow to the signed infinity.
  const int biased = static_cast<int>(ex) + (p - th);
  B core = sx | ((static_cast<B>(biased) & Tr::exp_mask) << FB) |
           (frac & Tr::frac_mask);
  core = biased <= 0 ? sx : core;
  core = biased >= static_cast<int>(Tr::exp_mask) ? (sx | kInf) : core;

  const bool a_nan = ea == Tr::exp_mask && fa0 != 0;
  const bool b_nan = eb == Tr::exp_mask && fb0 != 0;
  const bool a_inf = ea == Tr::exp_mask && fa0 == 0;
  const bool b_inf = eb == Tr::exp_mask && fb0 == 0;

  // Select chain, lowest to highest precedence. IEEE special values are
  // still honoured: the imprecise unit only touches the significand
  // datapath.
  B r = core;
  r = s_zero ? B{0} : r;                     // exact cancellation -> +0
  r = d >= th ? (sx | (ex << FB) | fx) : r;  // small operand vanishes
  r = b_zero ? ab : r;                       // b == 0 -> a
  r = a_zero ? bb : r;                       // a == 0 -> b
  r = (a_zero && b_zero) ? (sa & sb) : r;    // -0 only when both are -0
  r = b_inf ? bb : r;
  r = a_inf ? ab : r;
  r = (a_inf && b_inf && sa != sb) ? qnan_bits<T>() : r;
  r = (a_nan || b_nan) ? qnan_bits<T>() : r;
  return r;
}

/// Shared special-value select chain of the multiplier datapaths: NaN in ->
/// qNaN; inf * 0 -> qNaN; inf -> signed inf; 0 (subnormals flushed) ->
/// signed 0; else `core`.
template <typename T>
inline fp::BitsOf<T> mul_specials(fp::BitsOf<T> ab, fp::BitsOf<T> bb,
                                  fp::BitsOf<T> core) {
  using Tr = fp::FloatTraits<T>;
  using B = fp::BitsOf<T>;
  constexpr int FB = Tr::frac_bits;
  constexpr B kInf = Tr::exp_mask << FB;

  const B ea = (ab >> FB) & Tr::exp_mask;
  const B eb = (bb >> FB) & Tr::exp_mask;
  const B fa0 = ab & Tr::frac_mask;
  const B fb0 = bb & Tr::frac_mask;
  const bool a_nan = ea == Tr::exp_mask && fa0 != 0;
  const bool b_nan = eb == Tr::exp_mask && fb0 != 0;
  const bool a_inf = ea == Tr::exp_mask && fa0 == 0;
  const bool b_inf = eb == Tr::exp_mask && fb0 == 0;
  const bool a_zero = ea == 0;  // after subnormal flush
  const bool b_zero = eb == 0;
  const B sign = (ab ^ bb) & Tr::sign_mask;

  B r = core;
  r = (a_zero || b_zero) ? sign : r;
  r = (a_inf || b_inf) ? (sign | kInf) : r;
  r = ((a_inf || b_inf) && (a_zero || b_zero)) ? qnan_bits<T>() : r;
  r = (a_nan || b_nan) ? qnan_bits<T>() : r;
  return r;
}

/// Multiplier tail shared by the four datapaths: sign | biased | frac with
/// underflow (biased <= 0) flushed to the signed zero and overflow
/// saturated to the signed infinity, then the special-value select chain.
template <typename T>
inline fp::BitsOf<T> mul_result(fp::BitsOf<T> ab, fp::BitsOf<T> bb,
                                int biased, fp::BitsOf<T> frac) {
  using Tr = fp::FloatTraits<T>;
  using B = fp::BitsOf<T>;
  constexpr int FB = Tr::frac_bits;
  const B sign = (ab ^ bb) & Tr::sign_mask;
  B core = sign | ((static_cast<B>(biased) & Tr::exp_mask) << FB) | frac;
  core = biased <= 0 ? sign : core;
  core = biased >= static_cast<int>(Tr::exp_mask)
             ? (sign | (Tr::exp_mask << FB))
             : core;
  return mul_specials<T>(ab, bb, core);
}

/// Exponent fields of a and b, and the (flushed) fractions masked by keep.
template <typename T>
struct MulFields {
  int ea, eb;
  fp::BitsOf<T> fa, fb;
};

template <typename T>
inline MulFields<T> mul_fields(fp::BitsOf<T> ab, fp::BitsOf<T> bb,
                               fp::BitsOf<T> keep_mask) {
  using Tr = fp::FloatTraits<T>;
  using B = fp::BitsOf<T>;
  constexpr int FB = Tr::frac_bits;
  const B ea = (ab >> FB) & Tr::exp_mask;
  const B eb = (bb >> FB) & Tr::exp_mask;
  return {static_cast<int>(ea), static_cast<int>(eb),
          (ea == 0 ? B{0} : (ab & Tr::frac_mask)) & keep_mask,
          (eb == 0 ? B{0} : (bb & Tr::frac_mask)) & keep_mask};
}

/// Tail of ifp_mul and the Mitchell full path: the significand sum
/// 2^FB + s normalizes by one right shift when it reaches 2^(FB+1).
template <typename T>
inline fp::BitsOf<T> carry_mul_result(fp::BitsOf<T> ab, fp::BitsOf<T> bb,
                                      const MulFields<T>& m, fp::BitsOf<T> s) {
  using Tr = fp::FloatTraits<T>;
  const bool cin = s >= Tr::hidden_bit;
  const fp::BitsOf<T> frac = cin ? (s - Tr::hidden_bit) >> 1 : s;
  return mul_result<T>(ab, bb, m.ea + m.eb - Tr::bias + static_cast<int>(cin),
                       frac);
}

/// One lane of the Table 1 imprecise multiplier (ifp_mul): the mantissa
/// product collapses to a fraction add.
template <typename T>
inline fp::BitsOf<T> ifp_mul_lane(fp::BitsOf<T> ab, fp::BitsOf<T> bb) {
  const auto m = mul_fields<T>(ab, bb, ~fp::BitsOf<T>{0});
  return carry_mul_result<T>(ab, bb, m, m.fa + m.fb);
}

/// One lane of the Mitchell log-path ACFP multiplier: like ifp_mul but with
/// the fractions masked by `keep_mask` (frac_keep) and no carry
/// normalization shift (the 2^x ~ 1+x antilog segment re-interprets the
/// overflowed sum).
template <typename T>
inline fp::BitsOf<T> acfp_log_lane(fp::BitsOf<T> ab, fp::BitsOf<T> bb,
                                   fp::BitsOf<T> keep_mask) {
  using Tr = fp::FloatTraits<T>;
  const auto m = mul_fields<T>(ab, bb, keep_mask);
  const fp::BitsOf<T> s = m.fa + m.fb;
  const bool cin = s >= Tr::hidden_bit;
  return mul_result<T>(ab, bb, m.ea + m.eb - Tr::bias + static_cast<int>(cin),
                       cin ? s - Tr::hidden_bit : s);
}

/// One lane of the Mitchell full-path ACFP multiplier (acfp_mul with
/// AcfpPath::Full): S = 2^FB + Ma + Mb + (MA(Ma, Mb) >> FB) on the
/// keep-masked fractions, normalized like ifp_mul.
///
/// Mitchell's MA (arith::mitchell_mul) on a wide log fraction of F bits
/// gives the same cross term as on FB-1 bits. A fraction m < 2^FB has its
/// leading one at k <= FB-1, so x = (m - 2^k) << (F - k) has no set bit
/// below F - k >= F + 1 - FB and equals x' << (F + 1 - FB) with
/// x' = (m - 2^k) << (FB - 1 - k), an (FB-1)-bit fraction. Carrying that
/// scale through the antilog and the >> FB alignment, the cross term is
/// exactly (2^(FB-1) + f') >> (2FB - 1 - k), where f' = (x1' + x2') mod
/// 2^(FB-1) and k = k1 + k2 + carry (bit FB-1 of x1' + x2'). The shift is
/// at most 2FB - 1; clamping it to FB (which already yields 0) keeps it
/// inside the word. Zero fractions have no leading one, so their cross
/// term is selected to 0.
template <typename T>
inline fp::BitsOf<T> acfp_full_lane(fp::BitsOf<T> ab, fp::BitsOf<T> bb,
                                    fp::BitsOf<T> keep_mask) {
  using B = fp::BitsOf<T>;
  constexpr int FB = fp::FloatTraits<T>::frac_bits;
  constexpr B kHalf = B{1} << (FB - 1);
  const auto m = mul_fields<T>(ab, bb, keep_mask);
  const int k1 = std::bit_width(m.fa | B{1}) - 1;
  const int k2 = std::bit_width(m.fb | B{1}) - 1;
  const B x = ((m.fa ^ (B{1} << k1)) << (FB - 1 - k1)) +
              ((m.fb ^ (B{1} << k2)) << (FB - 1 - k2));
  const int k = k1 + k2 + static_cast<int>(x >> (FB - 1));
  B cross = (kHalf | (x & (kHalf - 1))) >> std::min(2 * FB - 1 - k, FB);
  cross = (m.fa == 0) | (m.fb == 0) ? B{0} : cross;
  return carry_mul_result<T>(ab, bb, m, m.fa + m.fb + cross);
}

/// One lane of the bit-truncation baseline multiplier: exact widened
/// significand product, normalized to [1, 2), then the result fraction
/// masked by `keep_mask` (frac_keep).
template <typename T>
inline fp::BitsOf<T> trunc_mul_lane(fp::BitsOf<T> ab, fp::BitsOf<T> bb,
                                    fp::BitsOf<T> keep_mask) {
  using Tr = fp::FloatTraits<T>;
  using B = fp::BitsOf<T>;
  using Wide = std::conditional_t<sizeof(T) == 4, std::uint64_t,
                                  unsigned __int128>;
  constexpr int FB = Tr::frac_bits;
  const auto m = mul_fields<T>(ab, bb, ~B{0});
  const Wide p = static_cast<Wide>(Tr::hidden_bit | m.fa) *
                 static_cast<Wide>(Tr::hidden_bit | m.fb);
  const bool cin = p >= (static_cast<Wide>(1) << (2 * FB + 1));
  const B frac =
      (static_cast<B>(p >> (cin ? FB + 1 : FB)) & Tr::frac_mask) & keep_mask;
  return mul_result<T>(ab, bb, m.ea + m.eb - Tr::bias + static_cast<int>(cin),
                       frac);
}

}  // namespace ihw::lanes
