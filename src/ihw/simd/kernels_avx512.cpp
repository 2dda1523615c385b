// AVX-512 shim of the span kernels (DESIGN.md §15): 16 float lanes or 8
// double lanes, compare results in __mmask16 registers, one mask_blend for
// every select. The kernels themselves are Kernels<T> in kernel_body.h.
//
// Requires F+BW+DQ+VL (the fixed Skylake-X-and-later server set; isa.cpp
// only installs this table when cpuid reports all four). Compiled with the
// matching -m flags plus -ffp-contract=off (the SFU datapath's double
// multiply/subtract must round separately, as the scalar reference does;
// the relaxation row's fmas are explicit AVX-512F intrinsics).
#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "ihw/simd/kernel_body.h"

namespace ihw::simd {
namespace {

struct Avx512 {
  using V = __m512i;
  using M = __mmask16;
  static constexpr std::size_t kLanes = 16;

  IHW_SHIM V load(const float* p) { return _mm512_loadu_si512(p); }
  IHW_SHIM void store(float* p, V v) { _mm512_storeu_si512(p, v); }
  IHW_SHIM V set1(std::uint32_t x) {
    return _mm512_set1_epi32(static_cast<int>(x));
  }
  IHW_SHIM V and_(V a, V b) { return _mm512_and_si512(a, b); }
  IHW_SHIM V or_(V a, V b) { return _mm512_or_si512(a, b); }
  IHW_SHIM V xor_(V a, V b) { return _mm512_xor_si512(a, b); }
  IHW_SHIM V add(V a, V b) { return _mm512_add_epi32(a, b); }
  IHW_SHIM V sub(V a, V b) { return _mm512_sub_epi32(a, b); }
  IHW_SHIM V srli(V v, int n) { return _mm512_srli_epi32(v, n); }
  IHW_SHIM V slli(V v, int n) { return _mm512_slli_epi32(v, n); }
  IHW_SHIM V srlv(V v, V n) { return _mm512_srlv_epi32(v, n); }
  IHW_SHIM V sllv(V v, V n) { return _mm512_sllv_epi32(v, n); }
  IHW_SHIM V max(V a, V b) { return _mm512_max_epi32(a, b); }
  IHW_SHIM V min(V a, V b) { return _mm512_min_epi32(a, b); }

  IHW_SHIM M eq(V a, V b) { return _mm512_cmpeq_epi32_mask(a, b); }
  IHW_SHIM M gt(V a, V b) { return _mm512_cmpgt_epi32_mask(a, b); }
  IHW_SHIM M mand(M a, M b) { return static_cast<M>(a & b); }
  IHW_SHIM M mor(M a, M b) { return static_cast<M>(a | b); }
  /// ~a & b.
  IHW_SHIM M mandnot(M a, M b) { return static_cast<M>(~a & b); }
  IHW_SHIM bool none(M m) { return m == 0; }
  /// m ? yes : no per lane.
  IHW_SHIM V sel(V no, V yes, M m) {
    return _mm512_mask_blend_epi32(m, no, yes);
  }
  /// v with the lanes of m cleared.
  IHW_SHIM V zero_if(M m, V v) {
    return _mm512_maskz_mov_epi32(static_cast<M>(~m), v);
  }
  /// v + 1 in the lanes of m.
  IHW_SHIM V add_carry(V v, M m) {
    return _mm512_mask_add_epi32(v, m, v, _mm512_set1_epi32(1));
  }

  /// Bits of the int -> float conversion, whose exponent field the Mitchell
  /// cross term reads a leading one from.
  IHW_SHIM V ps_bits(V v) {
    return _mm512_castps_si512(_mm512_cvtepi32_ps(v));
  }

  /// The adder's cut operands at th >= 23 added exactly in double, cut to
  /// 24 significant bits (the low 29 cleared) and narrowed back to float,
  /// by 8-lane halves.
  IHW_SHIM V add_cut(V a, V b) {
    const auto half = [](__m256i x, __m256i y) {
      const __m512d s = _mm512_add_pd(_mm512_cvtps_pd(_mm256_castsi256_ps(x)),
                                      _mm512_cvtps_pd(_mm256_castsi256_ps(y)));
      return _mm512_cvtpd_ps(_mm512_castsi512_pd(_mm512_and_si512(
          _mm512_castpd_si512(s), _mm512_set1_epi64(-(1ll << 29)))));
    };
    return _mm512_castps_si512(_mm512_insertf32x8(
        _mm512_castps256_ps512(
            half(_mm512_castsi512_si256(a), _mm512_castsi512_si256(b))),
        half(_mm512_extracti64x4_epi64(a, 1), _mm512_extracti64x4_epi64(b, 1)),
        1));
  }

  /// Bits of the product of the floats x and y, rounded toward zero
  /// (embedded rounding, MXCSR untouched).
  IHW_SHIM V mul_rz(V x, V y) {
    return _mm512_castps_si512(
        _mm512_mul_round_ps(_mm512_castsi512_ps(x), _mm512_castsi512_ps(y),
                            _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC));
  }

  /// The lane bit patterns as floats, and back.
  IHW_SHIM __m512 ps(V v) { return _mm512_castsi512_ps(v); }
  IHW_SHIM V bits(__m512 x) { return _mm512_castps_si512(x); }

  /// Precise float add of the lane bit patterns; *nan, if asked for, flags
  /// NaN sums.
  IHW_SHIM V add_ps(V a, V b, M* nan = nullptr) {
    const __m512 s = _mm512_add_ps(ps(a), ps(b));
    if (nan != nullptr) *nan = _mm512_cmp_ps_mask(s, s, _CMP_UNORD_Q);
    return bits(s);
  }

  // Bits of the precise float difference, product, quotient and square
  // root of the lane bit patterns.
  IHW_SHIM V sub_ps(V a, V b) { return bits(_mm512_sub_ps(ps(a), ps(b))); }
  IHW_SHIM V mul_ps(V a, V b) { return bits(_mm512_mul_ps(ps(a), ps(b))); }
  IHW_SHIM V div_ps(V a, V b) { return bits(_mm512_div_ps(ps(a), ps(b))); }
  IHW_SHIM V sqrt_ps(V a) { return bits(_mm512_sqrt_ps(ps(a))); }

  /// The SFUs' double segment (Kernels<T>::ircp, rsqrt_seg) as two 8-lane
  /// halves: the bits of (float)(approx * 2^yexp), where xr = (1 +
  /// frac/2^23) * 2^xexp and approx = a - b * xr, times xr once more when
  /// `times_xr`.
  IHW_SHIM V seg_dp(V frac, V xexp, V yexp, double a, double b,
                    bool times_xr) {
    const __m256 lo = seg_half(
        _mm512_castsi512_si256(frac), _mm512_castsi512_si256(xexp),
        _mm512_castsi512_si256(yexp), a, b, times_xr);
    const __m256 hi = seg_half(_mm512_extracti64x4_epi64(frac, 1),
                               _mm512_extracti64x4_epi64(xexp, 1),
                               _mm512_extracti64x4_epi64(yexp, 1), a, b,
                               times_xr);
    return _mm512_castps_si512(
        _mm512_insertf32x8(_mm512_castps256_ps512(lo), hi, 1));
  }

  /// The scalar units' mul/add/sub sequence per 64-bit lane, in their order
  /// (the rounded multiplies and subtract stay separate ops under
  /// -ffp-contract=off). Scaling by an exactly constructed power of two
  /// stands in for ldexp and for the scalar's * 0.25 / * 0.5: the scales and
  /// products stay normal doubles for every float exponent field
  /// (|exponent| <= 129).
  IHW_SHIM __m256 seg_half(__m256i frac8, __m256i xexp8, __m256i yexp8,
                           double a, double b, bool times_xr) {
    const auto pow2 = [](__m256i e8) {
      const __m512i e = _mm512_add_epi64(_mm512_cvtepi32_epi64(e8),
                                         _mm512_set1_epi64(1023));
      return _mm512_castsi512_pd(_mm512_slli_epi64(e, 52));
    };
    const __m512d m =
        _mm512_add_pd(_mm512_set1_pd(1.0),
                      _mm512_mul_pd(_mm512_cvtepi32_pd(frac8),
                                    _mm512_set1_pd(0x1p-23)));
    const __m512d xr = _mm512_mul_pd(m, pow2(xexp8));
    __m512d approx = _mm512_sub_pd(_mm512_set1_pd(a),
                                   _mm512_mul_pd(_mm512_set1_pd(b), xr));
    if (times_xr) approx = _mm512_mul_pd(xr, approx);
    return _mm512_cvtpd_ps(_mm512_mul_pd(approx, pow2(yexp8)));
  }

  // --- double lanes (Kernels<T>::relax_row_f64) -----------------------------

  using D = __m512d;
  static constexpr std::size_t kDLanes = 8;

  IHW_SHIM D loadd(const double* p) { return _mm512_loadu_pd(p); }
  IHW_SHIM void stored(double* p, D v) { _mm512_storeu_pd(p, v); }
  IHW_SHIM D set1d(double x) { return _mm512_set1_pd(x); }
  IHW_SHIM D addd(D a, D b) { return _mm512_add_pd(a, b); }
  IHW_SHIM D subd(D a, D b) { return _mm512_sub_pd(a, b); }
  IHW_SHIM D muld(D a, D b) { return _mm512_mul_pd(a, b); }
  IHW_SHIM D divd(D a, D b) { return _mm512_div_pd(a, b); }
  /// a * b + c, rounded once.
  IHW_SHIM D fmad(D a, D b, D c) { return _mm512_fmadd_pd(a, b, c); }
  /// c - a * b, rounded once.
  IHW_SHIM D fnmad(D a, D b, D c) { return _mm512_fnmadd_pd(a, b, c); }
  /// kDLanes floats widened to doubles (one vcvtps2pd).
  IHW_SHIM D widen(const float* p) {
    return _mm512_cvtps_pd(_mm256_loadu_ps(p));
  }
  /// The float lanes of v widened to doubles: lanes 0-7 in *lo, 8-15 in *hi.
  IHW_SHIM void widen2(V v, D* lo, D* hi) {
    *lo = _mm512_cvtps_pd(_mm512_castps512_ps256(_mm512_castsi512_ps(v)));
    *hi = _mm512_cvtps_pd(
        _mm256_castsi256_ps(_mm512_extracti64x4_epi64(v, 1)));
  }
  /// widen2 inverted: both halves rounded to float (round to nearest).
  IHW_SHIM V narrow2(D lo, D hi) {
    return _mm512_castps_si512(_mm512_insertf32x8(
        _mm512_castps256_ps512(_mm512_cvtpd_ps(lo)), _mm512_cvtpd_ps(hi), 1));
  }
  using DM = __mmask8;
  /// Lanes whose |x| bit pattern lies in [lo, hi) (NaN never does): one
  /// unsigned 64-bit range compare.
  IHW_SHIM DM in_window(D x, std::uint64_t lo, std::uint64_t hi) {
    const __m512i ax = _mm512_and_si512(
        _mm512_castpd_si512(x), _mm512_set1_epi64(0x7FFFFFFFFFFFFFFFll));
    return _mm512_cmplt_epu64_mask(
        _mm512_sub_epi64(ax, _mm512_set1_epi64(static_cast<long long>(lo))),
        _mm512_set1_epi64(static_cast<long long>(hi - lo)));
  }
  IHW_SHIM DM dmand(DM a, DM b) { return static_cast<DM>(a & b); }
  IHW_SHIM bool all(DM m) { return m == 0xFF; }
  /// m ? yes : no per lane.
  IHW_SHIM D seld(D no, D yes, DM m) {
    return _mm512_mask_blend_pd(m, no, yes);
  }
};

}  // namespace

namespace detail {
constinit const KernelTable kAvx512Table = Kernels<Avx512>::table("avx512");
}  // namespace detail

}  // namespace ihw::simd
