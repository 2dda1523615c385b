#pragma once
// The one definition of each imprecise adder and multiplier datapath, split
// in two:
//
//   * a core: what the unit returns when both operands are normal (and, for
//     the multipliers, the result exponent is in range) -- the datapath and
//     nothing else;
//   * the lane: the core under the range clamp and the special-value select
//     chain (zeros and subnormals, infinities, NaNs), branch-free over the
//     raw bit patterns of one operand pair.
//
// Users of the two halves:
//
//   * The scalar units (ifp_add.h, ifp_mul.h, acfp_mul.h, trunc_mul.h) test
//     `both operands normal && result in range` once and return the core,
//     inlined at the call site; every other operand pair runs the lane, out
//     of line (out_of_line below).
//   * The span kernels (batch.h) run the lanes over operand spans with the
//     parameters hoisted out of the loop, so the compiler can if-convert and
//     autovectorize them.
//   * The hand-vectorized AVX2/AVX-512 kernels (simd/kernel_body.h) follow
//     the lanes op for op, and test_simd checks them against these lanes.
//
// The independent oracle is the structural datapath model in arith/datapath
// (priority encoders, barrel shifters, width-masked adders, an array
// multiplier; Fig. 11's VHDL-vs-C++ step), which test_datapath and
// test_batch compare bit-exactly against the units and lanes, including NaN
// canonicalization, infinity and signed-zero rules, subnormal flushing and
// exponent overflow/underflow.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
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
/// [1, frac_bits+4] -- what the adder core and lane expect.
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

/// Biased exponent field of a bit pattern.
template <typename T>
constexpr int exp_field(fp::BitsOf<T> x) {
  using Tr = fp::FloatTraits<T>;
  return static_cast<int>((x >> Tr::frac_bits) & Tr::exp_mask);
}

/// True for the exponent field of a normal number, 1 .. emax-1 (not zero,
/// subnormal, infinite or NaN).
template <typename T>
constexpr bool normal_field(int e) {
  return static_cast<unsigned>(e) - 1u <
         static_cast<unsigned>(fp::FloatTraits<T>::exp_mask) - 1u;
}

/// The scalar adder's fast-path test: both operands are normal.
template <typename T>
constexpr bool both_normal(fp::BitsOf<T> ab, fp::BitsOf<T> bb) {
  return normal_field<T>(exp_field<T>(ab)) & normal_field<T>(exp_field<T>(bb));
}

/// `Lane` on one operand pair, out of line: the scalar units' rare path,
/// kept out of the fast path that is inlined at every call site.
template <auto Lane, typename... A>
[[gnu::noinline]] auto out_of_line(A... a) {
  return Lane(a...);
}

// --- the TH adder -------------------------------------------------------------

/// Core of the TH-threshold imprecise adder (ifp_add), `th` pre-clamped by
/// add_th: its result for any two normal operands, range clamp included.
///
/// The (TH+1)-bit datapath aligns both significands to the larger exponent
/// E and drops every bit below weight 2^(E-th) (there is no rounding unit),
/// adds, and normalizes the sum with the bits that do not fit truncated.
/// That is the exact sum of both operands cut off at that bit -- truncated
/// toward zero, each a multiple of 2^(E-th) -- itself truncated toward zero
/// to FB+1 significant bits. When the exponent gap d reaches th the smaller
/// operand vanishes and the larger passes unchanged (not cut off). A zero
/// sum is +0; a sum below the normal range flushes to the signed zero of
/// the larger operand, and one at or above 2^(emax+1-bias) saturates to its
/// signed infinity.
///
/// th <= FB - 1, either format: both cut operands are multiples of
/// 2^(E-th) below 2^(E+1) in magnitude, so their sum has at most th + 2 <=
/// FB + 1 significant bits and the format's own round-to-nearest add is
/// exact (+-inf where it reaches 2^(emax+1-bias)). Only the flush remains.
///
/// binary32, th >= FB: the cut operands span at most th + 2 <= 29 bits, so
/// their sum in double is exact; clearing the double's low 29 significand
/// bits truncates it to 24, after which the conversion back to float is
/// exact (or +-inf above the float range, or a subnormal to flush).
///
/// binary64, th >= FB: the sum may need th + 2 <= 58 bits. Both cut operands
/// move next to the bias (the larger exponent becomes the bias) by one
/// integer subtract, where neither the rounded sum nor its TwoSum error term
/// can leave the normal range. The error term is nonzero with the opposite
/// sign exactly when round-to-nearest went away from zero; the result then
/// steps one ulp toward zero and moves back by the same subtract, with its
/// exponent checked against the range.
///
/// Every shift count is clamped into the word; operand pairs outside the
/// contract (zeros, subnormals, infinities, NaNs) give bits the lane's
/// select chain overrides.
template <typename T>
inline fp::BitsOf<T> ifp_add_core(fp::BitsOf<T> ab, fp::BitsOf<T> bb,
                                  int th) {
  using Tr = fp::FloatTraits<T>;
  using B = fp::BitsOf<T>;
  constexpr int FB = Tr::frac_bits;
  constexpr int kW = static_cast<int>(sizeof(B) * 8);

  const int ea = exp_field<T>(ab), eb = exp_field<T>(bb);
  const int e = std::max(ea, eb);
  // Each operand keeps its fraction bits of weight >= 2^(E-th).
  const auto cut = [&](B x, int ex) {
    return x & (~B{0} << std::clamp(FB - th + (e - ex), 0, kW - 1));
  };
  const B at = cut(ab, ea), bt = cut(bb, eb);

  // A sum below the normal range flushes to its signed zero.
  const auto flush = [](B x) {
    return exp_field<T>(x) == 0 ? (x & Tr::sign_mask) : x;
  };
  B r;
  if (th <= FB - 1) {
    r = flush(fp::to_bits(fp::from_bits<T>(at) + fp::from_bits<T>(bt)));
  } else if constexpr (std::is_same_v<T, float>) {
    const double s = static_cast<double>(fp::from_bits<float>(at)) +
                     static_cast<double>(fp::from_bits<float>(bt));
    const std::uint64_t rz =
        std::bit_cast<std::uint64_t>(s) & (~std::uint64_t{0} << 29);
    r = flush(fp::to_bits(static_cast<float>(std::bit_cast<double>(rz))));
  } else {
    const B shift = (static_cast<B>(e) - Tr::bias) << FB;
    const T x = fp::from_bits<T>(at - shift), y = fp::from_bits<T>(bt - shift);
    const T s = x + y;
    const T yv = s - x;
    const T err = (x - (s - yv)) + (y - yv);
    const B sb = fp::to_bits(s);
    const B rz = sb - static_cast<B>((err != 0) &
                                     (((fp::to_bits(err) ^ sb) >> (kW - 1)) != 0));
    const B sign = rz & Tr::sign_mask;
    const int biased = exp_field<T>(rz) + (e - Tr::bias);
    r = rz + shift;
    r = (biased <= 0) | (rz == 0) ? sign : r;
    r = biased >= static_cast<int>(Tr::exp_mask)
            ? (sign | (Tr::exp_mask << FB))
            : r;
  }
  // The larger operand by a mask, not a select: GCC turns `ea > eb ? ab :
  // bb` into a branch that random operand order mispredicts.
  const B a_larger = B{0} - static_cast<B>(ea > eb);
  const B larger = (ab & a_larger) | (bb & ~a_larger);
  return std::abs(ea - eb) >= th ? larger : r;
}

/// One lane of the TH adder: the core under the special-value select chain.
/// IEEE special values are still honoured: the imprecise unit only touches
/// the significand datapath.
template <typename T>
inline fp::BitsOf<T> ifp_add_lane(fp::BitsOf<T> ab, fp::BitsOf<T> bb, int th) {
  using Tr = fp::FloatTraits<T>;
  using B = fp::BitsOf<T>;
  const int ea = exp_field<T>(ab), eb = exp_field<T>(bb);
  const B sa = ab & Tr::sign_mask;
  const B sb = bb & Tr::sign_mask;
  // Subnormal flush: a zero exponent field means the (flushed) value is zero.
  const bool a_zero = ea == 0;
  const bool b_zero = eb == 0;
  constexpr int kMax = static_cast<int>(Tr::exp_mask);
  const bool a_inf = ea == kMax && (ab & Tr::frac_mask) == 0;
  const bool b_inf = eb == kMax && (bb & Tr::frac_mask) == 0;
  const bool a_nan = ea == kMax && (ab & Tr::frac_mask) != 0;
  const bool b_nan = eb == kMax && (bb & Tr::frac_mask) != 0;

  // Select chain, lowest to highest precedence. Bitwise | / & on the bools:
  // the short-circuit forms introduce control flow that blocks
  // if-conversion of the span loops.
  B r = ifp_add_core<T>(ab, bb, th);
  r = b_zero ? ab : r;                     // b == 0 -> a
  r = a_zero ? bb : r;                     // a == 0 -> b
  r = (a_zero & b_zero) ? (sa & sb) : r;   // -0 only when both are -0
  r = b_inf ? bb : r;
  r = a_inf ? ab : r;
  r = (a_inf & b_inf & (sa != sb)) ? qnan_bits<T>() : r;
  r = (a_nan | b_nan) ? qnan_bits<T>() : r;
  return r;
}

// --- the multipliers -----------------------------------------------------------

/// A multiplier datapath's result for two normal operands, before the range
/// clamp: sign | biased exponent | fraction, and the biased exponent, which
/// may lie outside 1 .. emax-1.
template <typename T>
struct Core {
  fp::BitsOf<T> bits;
  int biased;
};

/// The scalar multipliers' fast-path test: both operands are normal and the
/// core's result exponent is in range, so the core is the unit's result.
template <typename T>
constexpr bool core_in_range(fp::BitsOf<T> ab, fp::BitsOf<T> bb, Core<T> c) {
  return both_normal<T>(ab, bb) & normal_field<T>(c.biased);
}

/// Packs a multiplier core: the sign of a * b, `biased` (masked to the
/// field) and `frac`.
template <typename T>
inline Core<T> pack(fp::BitsOf<T> ab, fp::BitsOf<T> bb, int biased,
                    fp::BitsOf<T> frac) {
  using Tr = fp::FloatTraits<T>;
  using B = fp::BitsOf<T>;
  return {((ab ^ bb) & Tr::sign_mask) |
              ((static_cast<B>(biased) & Tr::exp_mask) << Tr::frac_bits) | frac,
          biased};
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

/// A multiplier lane from its core: underflow (biased <= 0) flushed to the
/// signed zero and overflow saturated to the signed infinity, then the
/// special-value select chain.
template <typename T>
inline fp::BitsOf<T> mul_lane(fp::BitsOf<T> ab, fp::BitsOf<T> bb, Core<T> c) {
  using Tr = fp::FloatTraits<T>;
  const fp::BitsOf<T> sign = (ab ^ bb) & Tr::sign_mask;
  fp::BitsOf<T> r = c.bits;
  r = c.biased <= 0 ? sign : r;
  r = c.biased >= static_cast<int>(Tr::exp_mask)
          ? (sign | (Tr::exp_mask << Tr::frac_bits))
          : r;
  return mul_specials<T>(ab, bb, r);
}

/// Exponent fields of a and b, and their fractions masked by keep. There is
/// no subnormal flush: the fraction of a zero-field operand never reaches a
/// result, because mul_specials overrides it.
template <typename T>
struct MulFields {
  int ea, eb;
  fp::BitsOf<T> fa, fb;
};

template <typename T>
inline MulFields<T> mul_fields(fp::BitsOf<T> ab, fp::BitsOf<T> bb,
                               fp::BitsOf<T> keep_mask) {
  using Tr = fp::FloatTraits<T>;
  return {exp_field<T>(ab), exp_field<T>(bb), ab & Tr::frac_mask & keep_mask,
          bb & Tr::frac_mask & keep_mask};
}

/// Core of ifp_mul and the Mitchell full path: the significand sum
/// 2^FB + s normalizes by one right shift when it reaches 2^(FB+1). The
/// carry enters as a mask, not a select -- GCC turns selects on it into
/// branches, which random fractions mispredict half the time -- and not as
/// a shift count, which baseline SSE2 cannot vectorize.
template <typename T>
inline Core<T> carry_core(fp::BitsOf<T> ab, fp::BitsOf<T> bb,
                          const MulFields<T>& m, fp::BitsOf<T> s) {
  using Tr = fp::FloatTraits<T>;
  using B = fp::BitsOf<T>;
  const int cin = s >= Tr::hidden_bit;
  const B carry = B{0} - static_cast<B>(cin);
  return pack<T>(ab, bb, m.ea + m.eb - Tr::bias + cin,
                 (s & ~carry) | (((s - Tr::hidden_bit) >> 1) & carry));
}

/// Core of the Table 1 imprecise multiplier (ifp_mul): the mantissa product
/// collapses to a fraction add.
template <typename T>
inline Core<T> ifp_mul_core(fp::BitsOf<T> ab, fp::BitsOf<T> bb) {
  const auto m = mul_fields<T>(ab, bb, ~fp::BitsOf<T>{0});
  return carry_core<T>(ab, bb, m, m.fa + m.fb);
}

/// Core of the Mitchell log-path ACFP multiplier: like ifp_mul but with the
/// fractions masked by `keep_mask` (frac_keep) and no carry normalization
/// shift (the 2^x ~ 1+x antilog segment re-interprets the overflowed sum).
template <typename T>
inline Core<T> acfp_log_core(fp::BitsOf<T> ab, fp::BitsOf<T> bb,
                             fp::BitsOf<T> keep_mask) {
  using Tr = fp::FloatTraits<T>;
  const auto m = mul_fields<T>(ab, bb, keep_mask);
  const fp::BitsOf<T> s = m.fa + m.fb;  // < 2^(FB+1): the carry is bit FB
  return pack<T>(ab, bb, m.ea + m.eb - Tr::bias + static_cast<int>(s >> Tr::frac_bits),
                 s & Tr::frac_mask);
}

/// Core of the Mitchell full-path ACFP multiplier (acfp_mul with
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
inline Core<T> acfp_full_core(fp::BitsOf<T> ab, fp::BitsOf<T> bb,
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
  return carry_core<T>(ab, bb, m, m.fa + m.fb + cross);
}

/// Core of the bit-truncation baseline multiplier: exact widened
/// significand product, normalized to [1, 2), then the result fraction
/// masked by `keep_mask` (frac_keep).
template <typename T>
inline Core<T> trunc_mul_core(fp::BitsOf<T> ab, fp::BitsOf<T> bb,
                              fp::BitsOf<T> keep_mask) {
  using Tr = fp::FloatTraits<T>;
  using B = fp::BitsOf<T>;
  using Wide = std::conditional_t<sizeof(T) == 4, std::uint64_t,
                                  unsigned __int128>;
  constexpr int FB = Tr::frac_bits;
  const auto m = mul_fields<T>(ab, bb, ~B{0});
  const Wide p = static_cast<Wide>(Tr::hidden_bit | m.fa) *
                 static_cast<Wide>(Tr::hidden_bit | m.fb);
  const int cin = static_cast<int>(p >> (2 * FB + 1));  // p < 2^(2FB+2)
  const B frac = (static_cast<B>(p >> (FB + cin)) & Tr::frac_mask) & keep_mask;
  return pack<T>(ab, bb, m.ea + m.eb - Tr::bias + cin, frac);
}

// One lane per multiplier: its core through mul_lane.

template <typename T>
inline fp::BitsOf<T> ifp_mul_lane(fp::BitsOf<T> ab, fp::BitsOf<T> bb) {
  return mul_lane<T>(ab, bb, ifp_mul_core<T>(ab, bb));
}

template <typename T>
inline fp::BitsOf<T> acfp_log_lane(fp::BitsOf<T> ab, fp::BitsOf<T> bb,
                                   fp::BitsOf<T> keep_mask) {
  return mul_lane<T>(ab, bb, acfp_log_core<T>(ab, bb, keep_mask));
}

template <typename T>
inline fp::BitsOf<T> acfp_full_lane(fp::BitsOf<T> ab, fp::BitsOf<T> bb,
                                    fp::BitsOf<T> keep_mask) {
  return mul_lane<T>(ab, bb, acfp_full_core<T>(ab, bb, keep_mask));
}

template <typename T>
inline fp::BitsOf<T> trunc_mul_lane(fp::BitsOf<T> ab, fp::BitsOf<T> bb,
                                    fp::BitsOf<T> keep_mask) {
  return mul_lane<T>(ab, bb, trunc_mul_core<T>(ab, bb, keep_mask));
}

/// A multiplier's scalar unit on one operand pair: the core when
/// core_in_range -- one well-predicted branch -- else `Lane` out of line.
template <typename T, auto Lane, typename... P>
inline T mul_unit(fp::BitsOf<T> ab, fp::BitsOf<T> bb, Core<T> c, P... p) {
  if (core_in_range<T>(ab, bb, c)) [[likely]]
    return fp::from_bits<T>(c.bits);
  return fp::from_bits<T>(out_of_line<Lane>(ab, bb, p...));
}

}  // namespace ihw::lanes
