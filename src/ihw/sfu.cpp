#include "ihw/sfu.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

namespace ihw {
namespace {

// Table 1 linear-approximation coefficients (curve-fitted to minimize mean
// absolute error over the reduced range).
constexpr double kRcpA = 2.823, kRcpB = 1.882;
constexpr double kRsqA = 2.08, kRsqB = 1.1911;
constexpr double kLogA = 0.9846, kLogB = 0.9196;

/// 2^k as a double, exact for k in [-1074, 1023] (a subnormal below
/// -1022), built in the exponent field. x * pow2(k) is the one correctly
/// rounded value of x * 2^k, which is what std::ldexp(x, k) returns.
double pow2(int k) {
  return k >= -1022
             ? std::bit_cast<double>(static_cast<std::uint64_t>(k + 1023) << 52)
             : std::bit_cast<double>(std::uint64_t{1} << (k + 1074));
}

/// The reduced significand 1 + frac / 2^FB of a finite T, exact in double.
template <typename T>
double significand(const fp::Fields<T>& f) {
  return 1.0 + static_cast<double>(f.frac) *
                   pow2(-fp::FloatTraits<T>::frac_bits);
}

/// The unit's output for y >= 0: (T)y with `sign` ORed in -- round to
/// nearest is symmetric, so this is (T)(sign ? -y : y) without a branch on
/// the sign -- and a subnormal result flushed to the signed zero.
template <typename T>
T finish(double y, bool sign) {
  using Tr = fp::FloatTraits<T>;
  auto r = fp::to_bits(static_cast<T>(y)) | (sign ? Tr::sign_mask : 0);
  if ((r & (Tr::exp_mask << Tr::frac_bits)) == 0) r &= Tr::sign_mask;
  return fp::from_bits<T>(r);
}

/// The shared rsqrt segment on a normal x > 0: x = 4^k * xr with xr = m/4
/// in [0.25, 0.5) for an even unbiased exponent e, k = e/2 + 1, and xr =
/// m/2 in [0.5, 1) for an odd one, k = (e+1)/2; both k are (e+2) >> 1.
/// Returns 2.08 - 1.1911 xr, times xr once more for isqrt, and sets k.
template <typename T>
double rsqrt_segment(const fp::Fields<T>& f, bool times_xr, int* k) {
  const int e = f.unbiased_exp();
  *k = (e + 2) >> 1;
  const double xr = significand(f) * pow2((e & 1) - 2);
  const double approx = kRsqA - kRsqB * xr;  // ~ 1/sqrt(xr)
  return times_xr ? xr * approx : approx;
}

}  // namespace

// Each unit runs its segment on normal operands; every other operand class
// (zero, subnormal -- flushed to zero --, infinity, NaN, a negative root
// operand) takes the special-value block first.

template <typename T>
T ircp(T x) {
  const auto f = fp::decompose(x);
  if (!f.is_finite_nonzero()) [[unlikely]] {
    if (f.is_nan()) return std::numeric_limits<T>::quiet_NaN();
    if (f.is_inf()) return f.sign ? -T(0) : T(0);
    return f.sign ? -std::numeric_limits<T>::infinity()
                  : std::numeric_limits<T>::infinity();
  }
  // Range reduction: x = 2^(e+1) * x', x' = (1+M)/2 in [0.5, 1).
  const double xr = significand(f) * 0.5;
  const double approx = kRcpA - kRcpB * xr;  // ~ 1/x'
  return finish<T>(approx * pow2(-(f.unbiased_exp() + 1)), f.sign);
}

template <typename T>
T irsqrt(T x) {
  const auto f = fp::decompose(x);
  if (!f.is_finite_nonzero() || f.sign) [[unlikely]] {
    // x < 0 (a negative subnormal included, -0 not) or NaN -> qNaN.
    if (f.is_nan() || (f.sign && !f.is_zero()))
      return std::numeric_limits<T>::quiet_NaN();
    if (f.is_inf()) return T(0);
    return std::numeric_limits<T>::infinity();
  }
  int k;
  const double approx = rsqrt_segment(f, /*times_xr=*/false, &k);
  return finish<T>(approx * pow2(-k), false);
}

template <typename T>
T isqrt(T x) {
  const auto f = fp::decompose(x);
  if (!f.is_finite_nonzero() || f.sign) [[unlikely]] {
    if (f.is_nan() || (f.sign && !f.is_zero()))
      return std::numeric_limits<T>::quiet_NaN();
    if (f.is_inf()) return std::numeric_limits<T>::infinity();
    return T(0);
  }
  // sqrt(x') ~ x' * (1/sqrt(x')) with the same linear rsqrt segment.
  int k;
  const double approx = rsqrt_segment(f, /*times_xr=*/true, &k);
  return finish<T>(approx * pow2(k), false);
}

template <typename T>
T ilog2(T x) {
  if (std::isnan(x) || x < T(0)) return std::numeric_limits<T>::quiet_NaN();
  x = fp::flush_subnormal(x);
  if (x == T(0)) return -std::numeric_limits<T>::infinity();
  if (std::isinf(x)) return std::numeric_limits<T>::infinity();

  const auto f = fp::decompose(x);
  const double m = significand(f);
  // log2(x) = e + log2(m) ~ e + 0.9846 m - 0.9196 on m in [1,2).
  const double y = static_cast<double>(f.unbiased_exp()) + kLogA * m - kLogB;
  return fp::flush_subnormal(static_cast<T>(y));
}

template <typename T>
T iexp2(T x) {
  if (std::isnan(x)) return std::numeric_limits<T>::quiet_NaN();
  if (std::isinf(x))
    return std::signbit(x) ? T(0) : std::numeric_limits<T>::infinity();
  // Split x = i + f with f in [0,1): 2^x = 2^i * 2^f ~ 2^i * (1 + f).
  // The integer part lands in the exponent field; only the fraction is
  // approximated -- the exact mirror of ilog2's datapath.
  const double xd = static_cast<double>(x);
  const double i = std::floor(xd);
  const double f = xd - i;
  if (i > 16000.0) return std::numeric_limits<T>::infinity();
  if (i < -16000.0) return T(0);
  const T r = static_cast<T>(std::ldexp(1.0 + f, static_cast<int>(i)));
  return fp::flush_subnormal(r);
}

template <typename T>
T ifp_div(T a, T b) {
  const auto fa = fp::decompose(a), fb = fp::decompose(b);
  const bool sign = fa.sign != fb.sign;
  if (!fa.is_finite_nonzero() || !fb.is_finite_nonzero()) [[unlikely]] {
    constexpr T kInf = std::numeric_limits<T>::infinity();
    if (fa.is_nan() || fb.is_nan()) return std::numeric_limits<T>::quiet_NaN();
    // Subnormals flush to zero, so "zero" here is a zero exponent field.
    const bool a_zero = fa.biased_exp == 0, b_zero = fb.biased_exp == 0;
    if (b_zero) return a_zero ? std::numeric_limits<T>::quiet_NaN()
                              : (sign ? -kInf : kInf);
    if (fb.is_inf()) {
      return fa.is_inf() ? std::numeric_limits<T>::quiet_NaN()
                         : (sign ? -T(0) : T(0));
    }
    return a_zero ? (sign ? -T(0) : T(0)) : (sign ? -kInf : kInf);
  }
  const double br = significand(fb) * 0.5;
  const double rcp = kRcpA - kRcpB * br;  // ~ 1/b'
  // The division SFU owns a multiplier for a * rcp(b); modelled in double and
  // truncated to T (its quantization is below the 5.88% approximation floor).
  return finish<T>(static_cast<double>(std::fabs(a)) *
                       (rcp * pow2(-(fb.unbiased_exp() + 1))),
                   sign);
}

template <typename T>
T ifp_fma(T a, T b, T c, int th) {
  return ifp_add(ifp_mul(a, b), c, th);
}

template float ircp<float>(float);
template double ircp<double>(double);
template float irsqrt<float>(float);
template double irsqrt<double>(double);
template float isqrt<float>(float);
template double isqrt<double>(double);
template float ilog2<float>(float);
template double ilog2<double>(double);
template float iexp2<float>(float);
template double iexp2<double>(double);
template float ifp_div<float>(float, float);
template double ifp_div<double>(double, double);
template float ifp_fma<float>(float, float, float, int);
template double ifp_fma<double>(double, double, double, int);

}  // namespace ihw
