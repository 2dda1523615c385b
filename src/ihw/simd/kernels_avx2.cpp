// AVX2 shim of the span kernels (DESIGN.md §15): 8 float lanes or 4 double
// lanes, compare results as all-ones lane vectors, blendv for every select.
// The kernels themselves are Kernels<T> in kernel_body.h.
//
// Compiled with -mavx2 -mfma plus -ffp-contract=off (the SFU path multiplies
// in double and a contracted fma would change its rounding; the relaxation
// row's fmas are explicit intrinsics), and only ever called after cpuid
// detection admits AVX2 and FMA, so the rest of the library keeps the
// portable baseline ISA.
#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "ihw/simd/kernel_body.h"

namespace ihw::simd {
namespace {

struct Avx2 {
  using V = __m256i;
  using M = __m256i;  // compare result: all ones in each true lane
  static constexpr std::size_t kLanes = 8;

  IHW_SHIM V load(const float* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  IHW_SHIM void store(float* p, V v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  IHW_SHIM V set1(std::uint32_t x) {
    return _mm256_set1_epi32(static_cast<int>(x));
  }
  IHW_SHIM V and_(V a, V b) { return _mm256_and_si256(a, b); }
  IHW_SHIM V or_(V a, V b) { return _mm256_or_si256(a, b); }
  IHW_SHIM V xor_(V a, V b) { return _mm256_xor_si256(a, b); }
  IHW_SHIM V add(V a, V b) { return _mm256_add_epi32(a, b); }
  IHW_SHIM V sub(V a, V b) { return _mm256_sub_epi32(a, b); }
  IHW_SHIM V srli(V v, int n) { return _mm256_srli_epi32(v, n); }
  IHW_SHIM V slli(V v, int n) { return _mm256_slli_epi32(v, n); }
  IHW_SHIM V srlv(V v, V n) { return _mm256_srlv_epi32(v, n); }
  IHW_SHIM V sllv(V v, V n) { return _mm256_sllv_epi32(v, n); }
  IHW_SHIM V max(V a, V b) { return _mm256_max_epi32(a, b); }
  IHW_SHIM V min(V a, V b) { return _mm256_min_epi32(a, b); }

  IHW_SHIM M eq(V a, V b) { return _mm256_cmpeq_epi32(a, b); }
  IHW_SHIM M gt(V a, V b) { return _mm256_cmpgt_epi32(a, b); }
  IHW_SHIM M mand(M a, M b) { return and_(a, b); }
  IHW_SHIM M mor(M a, M b) { return or_(a, b); }
  /// ~a & b.
  IHW_SHIM M mandnot(M a, M b) { return _mm256_andnot_si256(a, b); }
  IHW_SHIM bool none(M m) { return _mm256_testz_si256(m, m); }
  /// m ? yes : no per lane. The body never passes an inverted compare: GCC 12
  /// at -O2 miscompiles blendv on ~cmpeq once AVX-512VL is also enabled.
  IHW_SHIM V sel(V no, V yes, M m) { return _mm256_blendv_epi8(no, yes, m); }
  /// v with the lanes of m cleared.
  IHW_SHIM V zero_if(M m, V v) { return _mm256_andnot_si256(m, v); }
  /// v + 1 in the lanes of m (a true lane is -1).
  IHW_SHIM V add_carry(V v, M m) { return sub(v, m); }

  /// Bits of the int -> float conversion, whose exponent field the Mitchell
  /// cross term reads a leading one from.
  IHW_SHIM V ps_bits(V v) {
    return _mm256_castps_si256(_mm256_cvtepi32_ps(v));
  }

  /// The adder's cut operands at th >= 23 added exactly in double, cut to
  /// 24 significant bits (the low 29 cleared) and narrowed back to float,
  /// by 4-lane halves.
  IHW_SHIM V add_cut(V a, V b) {
    const auto half = [](__m128i x, __m128i y) {
      const __m256d s = _mm256_add_pd(_mm256_cvtps_pd(_mm_castsi128_ps(x)),
                                      _mm256_cvtps_pd(_mm_castsi128_ps(y)));
      return _mm256_cvtpd_ps(_mm256_castsi256_pd(_mm256_and_si256(
          _mm256_castpd_si256(s), _mm256_set1_epi64x(-(1ll << 29)))));
    };
    return _mm256_castps_si256(_mm256_set_m128(
        half(_mm256_extracti128_si256(a, 1), _mm256_extracti128_si256(b, 1)),
        half(_mm256_castsi256_si128(a), _mm256_castsi256_si128(b))));
  }

  /// Bits of the product of the positive floats x and y, rounded toward
  /// zero. AVX2 has no embedded rounding: r = x*y - p is exact, and the bits
  /// of p drop by one (r >> 31) in the lanes where p rounded above x*y. A
  /// product just below a power of two that rounded up to it comes back
  /// down across the binade.
  IHW_SHIM V mul_rz(V x, V y) {
    const __m256 a = _mm256_castsi256_ps(x), b = _mm256_castsi256_ps(y);
    const __m256 p = _mm256_mul_ps(a, b);
    const __m256i r = _mm256_castps_si256(_mm256_fmsub_ps(a, b, p));
    return add(_mm256_castps_si256(p), _mm256_srai_epi32(r, 31));
  }

  /// The lane bit patterns as floats, and back.
  IHW_SHIM __m256 ps(V v) { return _mm256_castsi256_ps(v); }
  IHW_SHIM V bits(__m256 x) { return _mm256_castps_si256(x); }

  /// Precise float add of the lane bit patterns; *nan, if asked for, flags
  /// NaN sums.
  IHW_SHIM V add_ps(V a, V b, M* nan = nullptr) {
    const __m256 s = _mm256_add_ps(ps(a), ps(b));
    if (nan != nullptr) *nan = bits(_mm256_cmp_ps(s, s, _CMP_UNORD_Q));
    return bits(s);
  }

  // Bits of the precise float difference, product, quotient and square
  // root of the lane bit patterns.
  IHW_SHIM V sub_ps(V a, V b) { return bits(_mm256_sub_ps(ps(a), ps(b))); }
  IHW_SHIM V mul_ps(V a, V b) { return bits(_mm256_mul_ps(ps(a), ps(b))); }
  IHW_SHIM V div_ps(V a, V b) { return bits(_mm256_div_ps(ps(a), ps(b))); }
  IHW_SHIM V sqrt_ps(V a) { return bits(_mm256_sqrt_ps(ps(a))); }

  /// The SFUs' double segment (Kernels<T>::ircp, rsqrt_seg) as two 4-lane
  /// halves: the bits of (float)(approx * 2^yexp), where xr = (1 +
  /// frac/2^23) * 2^xexp and approx = a - b * xr, times xr once more when
  /// `times_xr`.
  IHW_SHIM V seg_dp(V frac, V xexp, V yexp, double a, double b,
                    bool times_xr) {
    const __m128 lo = seg_half(
        _mm256_castsi256_si128(frac), _mm256_castsi256_si128(xexp),
        _mm256_castsi256_si128(yexp), a, b, times_xr);
    const __m128 hi = seg_half(
        _mm256_extracti128_si256(frac, 1), _mm256_extracti128_si256(xexp, 1),
        _mm256_extracti128_si256(yexp, 1), a, b, times_xr);
    return _mm256_castps_si256(_mm256_set_m128(hi, lo));
  }

  /// The scalar units' mul/add/sub sequence per 64-bit lane, in their order:
  /// every step is exact except the rounded multiplies and the subtract the
  /// scalar also performs, which -ffp-contract=off keeps unfused. Scaling by
  /// an exactly constructed power of two stands in for ldexp and for the
  /// scalar's * 0.25 / * 0.5: the scales and products stay normal doubles
  /// for every float exponent field (|exponent| <= 129).
  IHW_SHIM __m128 seg_half(__m128i frac4, __m128i xexp4, __m128i yexp4,
                           double a, double b, bool times_xr) {
    const auto pow2 = [](__m128i e4) {
      const __m256i e = _mm256_add_epi64(_mm256_cvtepi32_epi64(e4),
                                         _mm256_set1_epi64x(1023));
      return _mm256_castsi256_pd(_mm256_slli_epi64(e, 52));
    };
    const __m256d m =
        _mm256_add_pd(_mm256_set1_pd(1.0),
                      _mm256_mul_pd(_mm256_cvtepi32_pd(frac4),
                                    _mm256_set1_pd(0x1p-23)));
    const __m256d xr = _mm256_mul_pd(m, pow2(xexp4));
    __m256d approx = _mm256_sub_pd(_mm256_set1_pd(a),
                                   _mm256_mul_pd(_mm256_set1_pd(b), xr));
    if (times_xr) approx = _mm256_mul_pd(xr, approx);
    return _mm256_cvtpd_ps(_mm256_mul_pd(approx, pow2(yexp4)));
  }

  // --- double lanes (Kernels<T>::relax_row_f64) -----------------------------

  using D = __m256d;
  static constexpr std::size_t kDLanes = 4;

  IHW_SHIM D loadd(const double* p) { return _mm256_loadu_pd(p); }
  IHW_SHIM void stored(double* p, D v) { _mm256_storeu_pd(p, v); }
  IHW_SHIM D set1d(double x) { return _mm256_set1_pd(x); }
  IHW_SHIM D addd(D a, D b) { return _mm256_add_pd(a, b); }
  IHW_SHIM D subd(D a, D b) { return _mm256_sub_pd(a, b); }
  IHW_SHIM D muld(D a, D b) { return _mm256_mul_pd(a, b); }
  IHW_SHIM D divd(D a, D b) { return _mm256_div_pd(a, b); }
  /// a * b + c, rounded once.
  IHW_SHIM D fmad(D a, D b, D c) { return _mm256_fmadd_pd(a, b, c); }
  /// c - a * b, rounded once.
  IHW_SHIM D fnmad(D a, D b, D c) { return _mm256_fnmadd_pd(a, b, c); }
  /// kDLanes floats widened to doubles (one cvtps2pd).
  IHW_SHIM D widen(const float* p) { return _mm256_cvtps_pd(_mm_loadu_ps(p)); }
  /// The float lanes of v widened to doubles: lanes 0-3 in *lo, 4-7 in *hi.
  IHW_SHIM void widen2(V v, D* lo, D* hi) {
    *lo = _mm256_cvtps_pd(_mm_castsi128_ps(_mm256_castsi256_si128(v)));
    *hi = _mm256_cvtps_pd(_mm_castsi128_ps(_mm256_extracti128_si256(v, 1)));
  }
  /// widen2 inverted: both halves rounded to float (round to nearest).
  IHW_SHIM V narrow2(D lo, D hi) {
    return _mm256_castps_si256(
        _mm256_set_m128(_mm256_cvtpd_ps(hi), _mm256_cvtpd_ps(lo)));
  }
  using DM = __m256d;  // compare result: all ones in each true lane
  /// Lanes whose |x| bit pattern lies in [lo, hi) (NaN never does): one
  /// unsigned 64-bit range compare, as a signed compare of the bits offset
  /// by 2^63 - lo.
  IHW_SHIM DM in_window(D x, std::uint64_t lo, std::uint64_t hi) {
    constexpr std::uint64_t kTop = std::uint64_t{1} << 63;
    const __m256i t = _mm256_add_epi64(
        _mm256_and_si256(_mm256_castpd_si256(x),
                         _mm256_set1_epi64x(static_cast<long long>(kTop - 1))),
        _mm256_set1_epi64x(static_cast<long long>(kTop - lo)));
    return _mm256_castsi256_pd(_mm256_cmpgt_epi64(
        _mm256_set1_epi64x(static_cast<long long>((hi - lo) ^ kTop)), t));
  }
  IHW_SHIM DM dmand(DM a, DM b) { return _mm256_and_pd(a, b); }
  IHW_SHIM bool all(DM m) { return _mm256_movemask_pd(m) == 0xF; }
  /// m ? yes : no per lane.
  IHW_SHIM D seld(D no, D yes, DM m) { return _mm256_blendv_pd(no, yes, m); }
};

}  // namespace

namespace detail {
constinit const KernelTable kAvx2Table = Kernels<Avx2>::table("avx2");
}  // namespace detail

}  // namespace ihw::simd
