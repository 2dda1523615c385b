#pragma once
// SimReal<T>: an instrumented real scalar. Arithmetic routes through the
// active FpContext's *guarded* dispatcher (precise or imprecise per the
// IhwConfig knob, with fault injection and online guarding per its
// fault/guard descriptors) and bumps the matching performance counter --
// the software analogue of running the kernel on GPGPU-Sim with the
// modified functional units. Without an active context, operations are
// precise and uncounted.
#include <cmath>
#include <compare>
#include <concepts>

#include "gpu/context.h"
#include "ihw/op.h"

namespace ihw::gpu {

template <typename T>
class SimReal {
 public:
  SimReal() = default;
  SimReal(T v) : v_(v) {}                                  // NOLINT(runtime/explicit)
  template <typename U>
    requires(!std::is_same_v<U, T> && std::is_arithmetic_v<U>)
  SimReal(U v) : v_(static_cast<T>(v)) {}                  // NOLINT(runtime/explicit)

  T value() const { return v_; }
  template <typename U>
    requires std::is_arithmetic_v<U>
  explicit operator U() const { return static_cast<U>(v_); }

  friend SimReal operator+(SimReal a, SimReal b) { return op<Op::Add>(a, b); }
  friend SimReal operator-(SimReal a, SimReal b) { return op<Op::Sub>(a, b); }
  friend SimReal operator*(SimReal a, SimReal b) { return op<Op::Mul>(a, b); }
  friend SimReal operator/(SimReal a, SimReal b) { return op<Op::Div>(a, b); }
  SimReal operator-() const { return SimReal(-v_); }
  SimReal& operator+=(SimReal o) { return *this = *this + o; }
  SimReal& operator-=(SimReal o) { return *this = *this - o; }
  SimReal& operator*=(SimReal o) { return *this = *this * o; }
  SimReal& operator/=(SimReal o) { return *this = *this / o; }

  friend auto operator<=>(SimReal, SimReal) = default;  // compares values

  friend SimReal sqrt(SimReal x) { return op<Op::Sqrt>(x); }
  friend SimReal rsqrt(SimReal x) { return op<Op::Rsqrt>(x); }
  friend SimReal rcp(SimReal x) { return op<Op::Rcp>(x); }
  friend SimReal log2(SimReal x) { return op<Op::Log2>(x); }
  friend SimReal exp2(SimReal x) { return op<Op::Exp2>(x); }
  friend SimReal fma_op(SimReal a, SimReal b, SimReal c) {
    return op<Op::Fma>(a, b, c);
  }
  friend SimReal fabs(SimReal x) { return SimReal(std::fabs(x.v_)); }
  friend SimReal fmin(SimReal a, SimReal b) { return a.v_ < b.v_ ? a : b; }
  friend SimReal fmax(SimReal a, SimReal b) { return a.v_ > b.v_ ? a : b; }

 private:
  /// The one operator body: bump the op-table row's counter class(es) and
  /// route through the active context's guarded dispatcher.
  template <Op O, typename... S>
  static SimReal op(S... x) {
    if (auto* c = FpContext::current()) {
      for (OpClass k : OpRow<O>::counters) c->bump(k);
      return SimReal(c->guarded().template op<O>(x.v_...));
    }
    return SimReal(OpRow<O>::precise(x.v_...));
  }

  T v_{};
};

using SimFloat = SimReal<float>;
using SimDouble = SimReal<double>;

// --- precise fallbacks so templated kernels instantiate with plain T ------
template <std::floating_point T> T rsqrt(T x) { return OpRow<Op::Rsqrt>::precise(x); }
template <std::floating_point T> T rcp(T x) { return OpRow<Op::Rcp>::precise(x); }
template <std::floating_point T>
T fma_op(T a, T b, T c) { return OpRow<Op::Fma>::precise(a, b, c); }

// --- global-memory access tracking ----------------------------------------
// Models one 4-byte global access per call (plus its address computation as
// one integer op, as GPGPU-Sim's instruction mix would show).
inline void count_access(OpClass k) {
  if (auto* c = FpContext::current()) {
    c->bump(k);
    c->bump(OpClass::IAdd);
  }
}
template <typename T>
inline T gload(const T& ref) { count_access(OpClass::Load); return ref; }
template <typename T>
inline void gstore(T& ref, const T& v) { count_access(OpClass::Store); ref = v; }

/// Explicit integer-work annotation (index arithmetic in kernels).
inline void count_int_ops(std::uint64_t n) {
  if (auto* c = FpContext::current()) c->counters().bump(OpClass::IAdd, n);
}

/// Explicit memory-traffic annotation for accesses that do not flow through
/// gload/gstore (e.g. packed stores of 8-bit pixels).
inline void count_mem(std::uint64_t loads, std::uint64_t stores) {
  if (auto* c = FpContext::current()) {
    c->counters().bump(OpClass::Load, loads);
    c->counters().bump(OpClass::Store, stores);
  }
}

}  // namespace ihw::gpu
