#pragma once
// Reference model of the imprecise SFUs and the divider (Table 1), written
// the plain way: libm classification, subnormal flush, std::ldexp for every
// power-of-two scale. The units in ihw/sfu.cpp scale in the exponent field
// and test operand classes once; test_batch and test_sfu check them and
// their spans against this model bit for bit.
#include <cmath>
#include <limits>

#include "fpcore/float_bits.h"

namespace ihw::sfu_reference {

inline constexpr double kRcpA = 2.823, kRcpB = 1.882;
inline constexpr double kRsqA = 2.08, kRsqB = 1.1911;
inline constexpr double kLogA = 0.9846, kLogB = 0.9196;

/// 1 + frac / 2^FB of a decomposed finite value.
template <typename T>
double significand(const fp::Fields<T>& f) {
  return 1.0 + std::ldexp(static_cast<double>(f.frac),
                          -fp::FloatTraits<T>::frac_bits);
}

template <typename T>
T ircp(T x) {
  if (std::isnan(x)) return std::numeric_limits<T>::quiet_NaN();
  x = fp::flush_subnormal(x);
  if (x == T(0))
    return std::signbit(x) ? -std::numeric_limits<T>::infinity()
                           : std::numeric_limits<T>::infinity();
  if (std::isinf(x)) return std::signbit(x) ? -T(0) : T(0);
  const auto f = fp::decompose(x);
  const double xr = significand(f) * 0.5;
  const double approx = kRcpA - kRcpB * xr;
  const double y = std::ldexp(approx, -(f.unbiased_exp() + 1));
  return fp::flush_subnormal(static_cast<T>(std::signbit(x) ? -y : y));
}

/// irsqrt (sqrt false) and isqrt (sqrt true) on the shared segment.
template <typename T>
T rsqrt_or_sqrt(T x, bool sqrt) {
  if (std::isnan(x) || x < T(0)) return std::numeric_limits<T>::quiet_NaN();
  x = fp::flush_subnormal(x);
  if (x == T(0)) return sqrt ? T(0) : std::numeric_limits<T>::infinity();
  if (std::isinf(x)) return sqrt ? std::numeric_limits<T>::infinity() : T(0);
  const auto f = fp::decompose(x);
  const int e = f.unbiased_exp();
  const double m = significand(f);
  int k;
  double xr;
  if ((e & 1) == 0) {
    k = e / 2 + 1;
    xr = m * 0.25;
  } else {
    k = (e + 1) / 2;
    xr = m * 0.5;
  }
  const double approx =
      sqrt ? xr * (kRsqA - kRsqB * xr) : kRsqA - kRsqB * xr;
  return fp::flush_subnormal(
      static_cast<T>(std::ldexp(approx, sqrt ? k : -k)));
}

template <typename T>
T irsqrt(T x) { return rsqrt_or_sqrt(x, false); }

template <typename T>
T isqrt(T x) { return rsqrt_or_sqrt(x, true); }

template <typename T>
T ilog2(T x) {
  if (std::isnan(x) || x < T(0)) return std::numeric_limits<T>::quiet_NaN();
  x = fp::flush_subnormal(x);
  if (x == T(0)) return -std::numeric_limits<T>::infinity();
  if (std::isinf(x)) return std::numeric_limits<T>::infinity();
  const auto f = fp::decompose(x);
  const double y =
      static_cast<double>(f.unbiased_exp()) + kLogA * significand(f) - kLogB;
  return fp::flush_subnormal(static_cast<T>(y));
}

template <typename T>
T iexp2(T x) {
  if (std::isnan(x)) return std::numeric_limits<T>::quiet_NaN();
  if (std::isinf(x))
    return std::signbit(x) ? T(0) : std::numeric_limits<T>::infinity();
  const double xd = static_cast<double>(x);
  const double i = std::floor(xd);
  const double f = xd - i;
  if (i > 16000.0) return std::numeric_limits<T>::infinity();
  if (i < -16000.0) return T(0);
  return fp::flush_subnormal(
      static_cast<T>(std::ldexp(1.0 + f, static_cast<int>(i))));
}

template <typename T>
T ifp_div(T a, T b) {
  constexpr T kInf = std::numeric_limits<T>::infinity();
  if (std::isnan(a) || std::isnan(b)) return std::numeric_limits<T>::quiet_NaN();
  const bool sign = std::signbit(a) != std::signbit(b);
  a = fp::flush_subnormal(a);
  b = fp::flush_subnormal(b);
  if (b == T(0)) {
    if (a == T(0)) return std::numeric_limits<T>::quiet_NaN();
    return sign ? -kInf : kInf;
  }
  if (std::isinf(b)) {
    if (std::isinf(a)) return std::numeric_limits<T>::quiet_NaN();
    return sign ? -T(0) : T(0);
  }
  if (a == T(0)) return sign ? -T(0) : T(0);
  if (std::isinf(a)) return sign ? -kInf : kInf;
  const auto fb = fp::decompose(b);
  const double rcp = kRcpA - kRcpB * (significand(fb) * 0.5);
  const double y = static_cast<double>(std::fabs(a)) *
                   std::ldexp(rcp, -(fb.unbiased_exp() + 1));
  return fp::flush_subnormal(static_cast<T>(sign ? -y : y));
}

}  // namespace ihw::sfu_reference
