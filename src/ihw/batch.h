#pragma once
// Span-level batched kernels for the imprecise datapaths: the SoA fast path
// under FpDispatch::add_n/mul_n/... (dispatch.h). Each kernel hoists the
// unit's structural parameters (TH, truncation, multiplier path) out of the
// loop and runs a branch-free, bit-parallel inner loop over the operand
// spans, so per-operation overhead (config resolution, dispatch branching,
// counter bumps) is paid once per span instead of once per element and the
// compiler can autovectorize the integer datapath.
//
// Bit-identity contract: for every element, every kernel here produces
// exactly the bits the scalar unit in ifp_add.h / ifp_mul.h / acfp_mul.h /
// trunc_mul.h / sfu.h produces for the same operands -- including NaN
// canonicalization, infinity and signed-zero rules, subnormal flushing, and
// exponent overflow/underflow. tests/test_batch.cpp sweeps every unit and
// parameter over random bit patterns plus the IEEE special values to enforce
// this. The scalar units remain the reference implementations.
//
// What is vectorized: every multiplier lane (ifp_mul, both Mitchell paths,
// trunc_mul) and the ifp_add lane are pure integer select chains (the
// scalar-ish steps are std::bit_width leading-one searches); float
// trunc_mul widens to 64-bit products which GCC vectorizes with vpmuludq.
// The Mitchell *full* path needs no 128-bit datapath: its cross term is
// exact on FB-1 fraction bits (acfp_full_lane). The SFU and division spans
// call the scalar unit per element; float ircp, irsqrt and isqrt also have
// SIMD kernels (below).
//
// Runtime ISA dispatch (DESIGN.md §15): each float span wrapper first
// consults the active simd::KernelTable; a non-null entry is a hand-
// vectorized AVX2/AVX-512 backend that is bit-identical to the loop below
// and takes over the whole span. A null entry (the scalar table, every
// double lane, non-x86 builds) falls through to the reference loop here.
#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "ihw/acfp_mul.h"
#include "ihw/config.h"
#include "ihw/ifp_add.h"
#include "ihw/ifp_mul.h"
#include "ihw/sfu.h"
#include "ihw/simd/isa.h"
#include "ihw/trunc_mul.h"

namespace ihw::batch {

namespace detail {

/// Positive canonical quiet NaN bit pattern (what std::numeric_limits<T>::
/// quiet_NaN() is on every platform we target): exponent all-ones, MSB of
/// the fraction set.
template <typename T>
constexpr fp::BitsOf<T> qnan_bits() {
  using Tr = fp::FloatTraits<T>;
  return (Tr::exp_mask << Tr::frac_bits) | (Tr::hidden_bit >> 1);
}

/// One lane of the TH-threshold imprecise adder (ifp_add) as a branch-free
/// select chain over the raw bit patterns. `th` is pre-clamped to
/// [1, frac_bits+4] by the span wrapper.
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
  const bool a_nan = ea == Tr::exp_mask && fa0 != 0;
  const bool b_nan = eb == Tr::exp_mask && fb0 != 0;
  const bool a_inf = ea == Tr::exp_mask && fa0 == 0;
  const bool b_inf = eb == Tr::exp_mask && fb0 == 0;
  // Subnormal flush: a zero exponent field means the (flushed) value is zero.
  const B fa = ea == 0 ? B{0} : fa0;
  const B fb = eb == 0 ? B{0} : fb0;
  const bool a_zero = ea == 0;
  const bool b_zero = eb == 0;
  const B sa = ab & Tr::sign_mask;
  const B sb = bb & Tr::sign_mask;

  // Compare-and-swap so x is the larger magnitude (same ordering rule as the
  // scalar unit: by exponent field, then fraction field). Bitwise | / & on
  // the bools: the short-circuit forms introduce control flow that blocks
  // if-conversion of the whole loop.
  const bool swap = (eb > ea) | ((eb == ea) & (fb > fa));
  const B ex = swap ? eb : ea;
  const B ey = swap ? ea : eb;
  const B fx = swap ? fb : fa;
  const B fy = swap ? fa : fb;
  const B sx = swap ? sb : sa;
  const B sy = swap ? sa : sb;
  const int d = static_cast<int>(ex - ey);

  // The (TH+1)-bit datapath: align both significands to the larger exponent
  // truncated to `th` fraction bits. All shift counts are clamped into the
  // type width; out-of-range lanes are overridden by the select chain below.
  // A right/left shift pair replaces the sign branch (one side is always a
  // zero shift), keeping the loop body free of control flow so it can
  // if-convert and vectorize.
  const int drop = FB - th;  // >= -4
  const B sigx = Tr::hidden_bit | fx;
  const B sigy = Tr::hidden_bit | fy;
  const int dpos = std::max(drop, 0);           // loop-invariant
  const int dneg = std::max(-drop, 0);          // loop-invariant, <= 4
  const int sh = d + drop;
  const int shpos = std::min(std::max(sh, 0), kW - 1);
  const int shneg = std::min(std::max(-sh, 0), kW - 1);
  const B saligned = (sigx >> dpos) << dneg;
  const B baligned = (sigy >> shpos) << shneg;
  const bool esub = sx != sy;
  const B s = esub ? saligned - baligned : saligned + baligned;
  const bool s_zero = s == 0;
  // Leading-one position; the |1 keeps bit_width in range for the dead
  // s == 0 lane (selected away below).
  const int p = std::bit_width(s | B{1}) - 1;  // 0 .. th+1
  const B body = s ^ (B{1} << p);
  // Shift pair again (one side always zero): `p` is only bounded by th at
  // runtime, so a two-arm select over unclamped shifts would block
  // if-conversion (the compiler cannot speculate a possibly-out-of-range
  // shift).
  const B frac = (body << std::max(FB - p, 0)) >> std::max(p - FB, 0);
  // compose_flushing(sign_x, ex - bias + (p - th), frac)
  const int biased = static_cast<int>(ex) + (p - th);
  B core = sx | ((static_cast<B>(biased) & Tr::exp_mask) << FB) |
           (frac & Tr::frac_mask);
  core = biased <= 0 ? sx : core;
  core = biased >= static_cast<int>(Tr::exp_mask) ? (sx | kInf) : core;

  // Select chain, lowest to highest precedence (mirrors the scalar unit's
  // early returns in reverse).
  B r = core;
  r = s_zero ? B{0} : r;                     // exact cancellation -> +0
  r = d >= th ? (sx | (ex << FB) | fx) : r;  // small operand vanishes
  r = b_zero ? (a_zero ? sa : ab) : r;       // b == 0 -> flushed a
  r = a_zero ? (b_zero ? sb : bb) : r;       // a == 0 -> flushed b
  r = (a_zero && b_zero) ? (sa & sb) : r;    // -0 only when both are -0
  r = b_inf ? bb : r;
  r = a_inf ? ab : r;
  r = (a_inf && b_inf && sa != sb) ? qnan_bits<T>() : r;
  r = (a_nan || b_nan) ? qnan_bits<T>() : r;
  return r;
}

/// Shared special-value select chain of the three multiplier datapaths
/// (identical early returns in ifp_mul / acfp_mul / trunc_mul): NaN in ->
/// qNaN; inf * 0 -> qNaN; inf -> signed inf; 0 -> signed 0; else `core`.
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
/// `trunc` LSBs masked off the fractions and no carry normalization shift
/// (the 2^x ~ 1+x antilog segment re-interprets the overflowed sum).
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
/// arith::mitchell_mul runs MA on 60 fraction bits in 128-bit integers; its
/// low bits are zero here. A fraction m < 2^FB has its leading one at
/// k <= FB-1, so x = (m - 2^k) << (60 - k) has no set bit below
/// 60 - k >= 61 - FB and equals x' << (61 - FB) with
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
/// significand product, then result-fraction truncation.
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

/// Accumulation stage of the fused multiply-accumulate kernels: one product
/// bit pattern feeding the configured accumulator. `th >= 1` selects the
/// TH-threshold imprecise adder (th pre-clamped to [1, frac_bits+4] by the
/// span wrapper); `th < 1` selects a precise IEEE add whose result keeps
/// only the bits of `acc_keep` -- an RZ truncation of the low result bits
/// modelling a narrowed matrix-unit accumulator (acc_keep == ~B{0} is the
/// plain full-width accumulator). NaN sums canonicalize to qNaN like every
/// other unit here, which also keeps the result independent of how the host
/// commutes the add's NaN operands.
template <typename T>
inline fp::BitsOf<T> acc_lane(fp::BitsOf<T> pb, fp::BitsOf<T> cb, int th,
                              fp::BitsOf<T> acc_keep) {
  if (th >= 1) return ifp_add_lane<T>(pb, cb, th);
  const T s = fp::from_bits<T>(pb) + fp::from_bits<T>(cb);
  if (s != s) return qnan_bits<T>();
  return fp::to_bits(s) & acc_keep;
}

/// Fraction keep-mask of the truncating multipliers: clears the low `trunc`
/// fraction bits, `trunc` clamped to [0, frac_bits] as the scalar units
/// clamp it.
template <typename T>
inline fp::BitsOf<T> frac_keep(int trunc) {
  using Tr = fp::FloatTraits<T>;
  using B = fp::BitsOf<T>;
  trunc = std::clamp(trunc, 0, Tr::frac_bits);
  return trunc == Tr::frac_bits ? B{0} : (~B{0} << trunc) & Tr::frac_mask;
}

}  // namespace detail

/// Clamps the fused-kernel accumulator parameters to the contract of the
/// acc_lane stage and the SIMD table entries: th normalized to 0 (precise
/// accumulate) or [1, frac_bits+4], acc_trunc to [0, frac_bits-1] so a
/// canonical qNaN always survives the keep mask. Returns the keep mask.
template <typename T>
inline fp::BitsOf<T> mac_clamp(int* th, int* acc_trunc) {
  using Tr = fp::FloatTraits<T>;
  using B = fp::BitsOf<T>;
  if (*th >= 1) {
    if (*th > Tr::frac_bits + 4) *th = Tr::frac_bits + 4;
  } else {
    *th = 0;
  }
  if (*acc_trunc < 0) *acc_trunc = 0;
  if (*acc_trunc > Tr::frac_bits - 1) *acc_trunc = Tr::frac_bits - 1;
  return *acc_trunc == 0 ? ~B{0} : (~B{0} << *acc_trunc);
}

// --- span kernels (the FpDispatch *_n backends) ----------------------------

/// out[i] = ifp_add(a[i], b[i], th) (ifp_sub with subtract = true).
template <typename T>
void ifp_add_n(const T* a, const T* b, T* out, std::size_t n, int th,
               bool subtract = false) {
  using Tr = fp::FloatTraits<T>;
  if (th < 1) th = 1;
  if (th > Tr::frac_bits + 4) th = Tr::frac_bits + 4;
  const fp::BitsOf<T> flip = subtract ? Tr::sign_mask : fp::BitsOf<T>{0};
  if constexpr (std::is_same_v<T, float>) {
    if (auto* k = simd::kernels().ifp_add_f32) return k(a, b, out, n, th, flip);
  }
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = fp::from_bits<T>(
        detail::ifp_add_lane<T>(fp::to_bits(a[i]), fp::to_bits(b[i]) ^ flip, th));
  }
}

template <typename T>
void ifp_sub_n(const T* a, const T* b, T* out, std::size_t n, int th) {
  ifp_add_n(a, b, out, n, th, /*subtract=*/true);
}

/// out[i] = ifp_mul(a[i], b[i]).
template <typename T>
void ifp_mul_n(const T* a, const T* b, T* out, std::size_t n) {
  if constexpr (std::is_same_v<T, float>) {
    if (auto* k = simd::kernels().ifp_mul_f32) return k(a, b, out, n);
  }
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = fp::from_bits<T>(
        detail::ifp_mul_lane<T>(fp::to_bits(a[i]), fp::to_bits(b[i])));
  }
}

/// out[i] = acfp_mul(a[i], b[i], path, trunc).
template <typename T>
void acfp_mul_n(const T* a, const T* b, T* out, std::size_t n, AcfpPath path,
                int trunc) {
  const fp::BitsOf<T> keep = detail::frac_keep<T>(trunc);
  const bool full = path == AcfpPath::Full;
  if constexpr (std::is_same_v<T, float>) {
    const simd::KernelTable& t = simd::kernels();
    if (auto* k = full ? t.acfp_full_f32 : t.acfp_log_f32)
      return k(a, b, out, n, keep);
  }
  // One loop per path: a path select inside the loop would keep the log
  // lane from vectorizing.
  if (full) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = fp::from_bits<T>(detail::acfp_full_lane<T>(
          fp::to_bits(a[i]), fp::to_bits(b[i]), keep));
    }
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = fp::from_bits<T>(
        detail::acfp_log_lane<T>(fp::to_bits(a[i]), fp::to_bits(b[i]), keep));
  }
}

/// out[i] = trunc_mul(a[i], b[i], trunc).
template <typename T>
void trunc_mul_n(const T* a, const T* b, T* out, std::size_t n, int trunc) {
  const fp::BitsOf<T> keep = detail::frac_keep<T>(trunc);
  if constexpr (std::is_same_v<T, float>) {
    if (auto* k = simd::kernels().trunc_mul_f32) return k(a, b, out, n, keep);
  }
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = fp::from_bits<T>(
        detail::trunc_mul_lane<T>(fp::to_bits(a[i]), fp::to_bits(b[i]), keep));
  }
}

// --- fused multiply-accumulate spans ---------------------------------------
// out[i] = acc(mul(a[i], b[i]), c[i]): the product never materializes as a
// span, so GEMM inner loops and the app hot loops save a full store/reload
// pass. The accumulator is policy-configurable (see detail::acc_lane): the
// TH-adder when th >= 1, a precise fp add with `acc_trunc` result LSBs
// dropped otherwise. Element-wise bit-identical to the two-pass composition
// mul_n -> add stage by construction (both stages are pure bit functions);
// tests/test_batch.cpp enforces this. `out` may alias `c` (the in-place
// accumulate of a GEMM tile).

/// out[i] = acc(ifp_mul(a[i], b[i]), c[i]).
template <typename T>
void ifp_mac_n(const T* a, const T* b, const T* c, T* out, std::size_t n,
               int th, int acc_trunc = 0) {
  const fp::BitsOf<T> acc_keep = mac_clamp<T>(&th, &acc_trunc);
  if constexpr (std::is_same_v<T, float>) {
    if (auto* k = simd::kernels().ifp_mac_f32)
      return k(a, b, c, out, n, th, acc_keep);
  }
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = fp::from_bits<T>(detail::acc_lane<T>(
        detail::ifp_mul_lane<T>(fp::to_bits(a[i]), fp::to_bits(b[i])),
        fp::to_bits(c[i]), th, acc_keep));
  }
}

/// out[i] = acc(acfp_mul(a[i], b[i], path, trunc), c[i]).
template <typename T>
void acfp_mac_n(const T* a, const T* b, const T* c, T* out, std::size_t n,
                AcfpPath path, int trunc, int th, int acc_trunc = 0) {
  const fp::BitsOf<T> acc_keep = mac_clamp<T>(&th, &acc_trunc);
  const fp::BitsOf<T> keep = detail::frac_keep<T>(trunc);
  const bool full = path == AcfpPath::Full;
  if constexpr (std::is_same_v<T, float>) {
    const simd::KernelTable& t = simd::kernels();
    if (auto* k = full ? t.acfp_full_mac_f32 : t.acfp_log_mac_f32)
      return k(a, b, c, out, n, keep, th, acc_keep);
  }
  if (full) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = fp::from_bits<T>(detail::acc_lane<T>(
          detail::acfp_full_lane<T>(fp::to_bits(a[i]), fp::to_bits(b[i]), keep),
          fp::to_bits(c[i]), th, acc_keep));
    }
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = fp::from_bits<T>(detail::acc_lane<T>(
        detail::acfp_log_lane<T>(fp::to_bits(a[i]), fp::to_bits(b[i]), keep),
        fp::to_bits(c[i]), th, acc_keep));
  }
}

/// out[i] = acc(trunc_mul(a[i], b[i], trunc), c[i]).
template <typename T>
void trunc_mac_n(const T* a, const T* b, const T* c, T* out, std::size_t n,
                 int trunc, int th, int acc_trunc = 0) {
  const fp::BitsOf<T> acc_keep = mac_clamp<T>(&th, &acc_trunc);
  const fp::BitsOf<T> keep = detail::frac_keep<T>(trunc);
  if constexpr (std::is_same_v<T, float>) {
    if (auto* k = simd::kernels().trunc_mac_f32)
      return k(a, b, c, out, n, keep, th, acc_keep);
  }
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = fp::from_bits<T>(detail::acc_lane<T>(
        detail::trunc_mul_lane<T>(fp::to_bits(a[i]), fp::to_bits(b[i]), keep),
        fp::to_bits(c[i]), th, acc_keep));
  }
}

// --- SFU / division spans (scalar unit per element, hoisted dispatch) -------

template <typename T>
void ifp_div_n(const T* a, const T* b, T* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = ifp_div(a[i], b[i]);
}

template <typename T>
void ircp_n(const T* x, T* out, std::size_t n) {
  if constexpr (std::is_same_v<T, float>) {
    if (auto* k = simd::kernels().ircp_f32) return k(x, out, n);
  }
  for (std::size_t i = 0; i < n; ++i) out[i] = ircp(x[i]);
}

template <typename T>
void irsqrt_n(const T* x, T* out, std::size_t n) {
  if constexpr (std::is_same_v<T, float>) {
    if (auto* k = simd::kernels().irsqrt_f32) return k(x, out, n);
  }
  for (std::size_t i = 0; i < n; ++i) out[i] = irsqrt(x[i]);
}

template <typename T>
void isqrt_n(const T* x, T* out, std::size_t n) {
  if constexpr (std::is_same_v<T, float>) {
    if (auto* k = simd::kernels().isqrt_f32) return k(x, out, n);
  }
  for (std::size_t i = 0; i < n; ++i) out[i] = isqrt(x[i]);
}

template <typename T>
void ilog2_n(const T* x, T* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = ilog2(x[i]);
}

template <typename T>
void iexp2_n(const T* x, T* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = iexp2(x[i]);
}

/// out[i] = ifp_fma(a[i], b[i], c[i], th): the imprecise multiplier feeding
/// the TH-adder, now one pass through the fused mac kernel (bit-identical to
/// the old two-pass tile composition because both stages are pure bit
/// functions and the mac kernel chains the same two lanes).
template <typename T>
void ifp_fma_n(const T* a, const T* b, const T* c, T* out, std::size_t n,
               int th) {
  if (th < 1) th = 1;  // the fused kernel reads th < 1 as precise-accumulate
  ifp_mac_n(a, b, c, out, n, th);
}

}  // namespace ihw::batch
