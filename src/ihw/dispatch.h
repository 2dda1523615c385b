#pragma once
// Routes each floating-point operation class to its precise (host IEEE-754)
// or imprecise implementation according to an IhwConfig: the op table
// (op.h) bound to one configuration.
#include <algorithm>
#include <cstddef>

#include "ihw/config.h"
#include "ihw/op.h"

namespace ihw {

class FpDispatch {
 public:
  FpDispatch() = default;
  explicit FpDispatch(IhwConfig cfg) : cfg_(cfg) {}

  const IhwConfig& config() const { return cfg_; }
  void set_config(IhwConfig cfg) { cfg_ = cfg; }

  /// One operation of class O on OpRow<O>::arity operands.
  template <Op O, typename T, typename... Ts>
  T op(T x, Ts... xs) const {
    using R = OpRow<O>;
    if (R::enabled(cfg_)) return imprecise<O>(x, xs...);
    if constexpr (R::unfused) return unfused(x, xs...);
    else return R::precise(x, xs...);
  }

  /// The span form: out[i] = op<O>(in[i]...), with the configuration
  /// resolved once for the whole span and the loop handed to the row's
  /// imprecise span (batch.h) or to precise_n (op.h). Every element is
  /// bit-identical to op<O> at the same index. `out` may alias any input.
  template <Op O, typename T, typename... In>
  void op_n(T* out, std::size_t n, const In*... in) const {
    using R = OpRow<O>;
    if (R::enabled(cfg_)) return R::imprecise_n(cfg_, out, n, in...);
    if constexpr (R::unfused) unfused_n(out, n, in...);
    else precise_n<O>(out, n, in...);
  }

  // Named entry points: one-line spellings of op<O> / op_n<O>.
  template <typename T> T add(T a, T b) const { return op<Op::Add>(a, b); }
  template <typename T> T mul(T a, T b) const { return op<Op::Mul>(a, b); }
  template <typename T>
  void add_n(const T* a, const T* b, T* o, std::size_t n) const { op_n<Op::Add>(o, n, a, b); }
  template <typename T>
  void mul_n(const T* a, const T* b, T* o, std::size_t n) const { op_n<Op::Mul>(o, n, a, b); }
  template <typename T>
  void rcp_n(const T* x, T* o, std::size_t n) const { op_n<Op::Rcp>(o, n, x); }
  /// out[i] = add(mul(a[i], b[i]), c[i]) through the configured units.
  template <typename T>
  void mac_n(const T* a, const T* b, const T* c, T* o, std::size_t n) const {
    op_n<Op::Mac>(o, n, a, b, c);
  }

 private:
  /// The imprecise unit of row O, out of line: one call that runs the unit's
  /// inlined fast path, so the precise path at every SimReal call site stays
  /// as small as the host operation.
  template <Op O, typename T, typename... Ts>
  [[gnu::noinline]] T imprecise(T x, Ts... xs) const {
    return OpRow<O>::imprecise(cfg_, x, xs...);
  }

  /// A composite row with its fused unit off: the configured mul unit, then
  /// the configured add unit (how GPGPU-Sim decomposes MAD without one).
  template <typename T>
  T unfused(T a, T b, T c) const { return op<Op::Add>(op<Op::Mul>(a, b), c); }

  /// Span form of unfused(): the fused mac kernel when both stages are
  /// imprecise, the precise Mac row's span when both are precise, else two
  /// passes through a stack tile so each stage runs its own configured span
  /// (ISO C++ forbids contracting the precise mul/add pair, so the
  /// composition is bit-exact).
  template <typename T>
  void unfused_n(T* out, std::size_t n, const T* a, const T* b,
                 const T* c) const {
    using Mac = OpRow<Op::Mac>;
    if (Mac::enabled(cfg_)) return Mac::imprecise_n(cfg_, out, n, a, b, c);
    if (!OpRow<Op::Mul>::enabled(cfg_) && !OpRow<Op::Add>::enabled(cfg_))
      return precise_n<Op::Mac>(out, n, a, b, c);
    constexpr std::size_t kTile = 256;
    T tmp[kTile];
    for (std::size_t i = 0; i < n; i += kTile) {
      const std::size_t m = std::min(kTile, n - i);
      op_n<Op::Mul>(tmp, m, a + i, b + i);
      op_n<Op::Add>(out + i, m, tmp, c + i);
    }
  }

  IhwConfig cfg_{};
};

}  // namespace ihw
