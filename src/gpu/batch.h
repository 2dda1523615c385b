#pragma once
// Batched SoA arithmetic on the instrumented datapath: the span-level
// counterpart of SimReal. batch<O> looks up the active FpContext once, bumps
// the op-table row's PerfCounters class(es) once for the whole span, and
// hands the loop to GuardedDispatch::op_n<O> -- in the common unscreened
// case the bit-parallel kernel of ihw/batch.h. Element i of every span is
// bit-identical to the SimReal operator on the same operands under the same
// context state (tests/test_batch.cpp). Without an active context the ops
// are precise and uncounted, like SimReal's.
#include <algorithm>
#include <cstddef>

#include "common/aligned.h"
#include "gpu/context.h"
#include "ihw/op.h"

namespace ihw::gpu {

/// out[i] = op<O>(in[i]...) through the active context. `out` may alias any
/// input.
template <Op O, typename T, typename... In>
void batch(T* out, std::size_t n, const In*... in) {
  using R = OpRow<O>;
  if (auto* c = FpContext::current()) {
    for (OpClass k : R::counters) c->counters().bump(k, n);
    c->guarded().template op_n<O>(out, n, in...);
  } else {
    precise_n<O>(out, n, in...);
  }
}

namespace detail {

/// Thread-local scratch filled with `v`, for broadcast operands: a uniform
/// scalar fed to a span op still costs one counted op per element and flows
/// through the same unit datapath, exactly like the scalar kernel that
/// recomputes it per element. One buffer per thread and type, so at most one
/// broadcast may be live at a time.
template <typename T>
T* broadcast(T v, std::size_t n) {
  thread_local common::AlignedVector<T> buf;
  if (buf.size() < n) buf.resize(n);
  std::fill_n(buf.data(), n, v);
  return buf.data();
}

}  // namespace detail

// --- named spellings of batch<O> -------------------------------------------

template <typename T>
void batch_add(const T* a, const T* b, T* o, std::size_t n) { batch<Op::Add>(o, n, a, b); }
template <typename T>
void batch_sub(const T* a, const T* b, T* o, std::size_t n) { batch<Op::Sub>(o, n, a, b); }
template <typename T>
void batch_mul(const T* a, const T* b, T* o, std::size_t n) { batch<Op::Mul>(o, n, a, b); }
template <typename T>
void batch_rcp(const T* x, T* o, std::size_t n) { batch<Op::Rcp>(o, n, x); }
template <typename T>
void batch_rsqrt(const T* x, T* o, std::size_t n) { batch<Op::Rsqrt>(o, n, x); }
/// out[i] = add(mul(a[i], b[i]), c[i]): counters, results and fault draws
/// of batch_mul then batch_add, without materializing the product span.
template <typename T>
void batch_mac(const T* a, const T* b, const T* c, T* o, std::size_t n) {
  batch<Op::Mac>(o, n, a, b, c);
}

// --- broadcast (uniform-scalar operand) variants ---------------------------

template <typename T>
void batch_add_scalar(const T* a, T b, T* out, std::size_t n) {
  batch_add(a, detail::broadcast<T>(b, n), out, n);
}

template <typename T>
void batch_sub_scalar(const T* a, T b, T* out, std::size_t n) {
  batch_sub(a, detail::broadcast<T>(b, n), out, n);
}

/// out[i] = a - b[i] (scalar minuend).
template <typename T>
void batch_scalar_sub(T a, const T* b, T* out, std::size_t n) {
  batch_sub(detail::broadcast<T>(a, n), b, out, n);
}

template <typename T>
void batch_mul_scalar(const T* a, T b, T* out, std::size_t n) {
  batch_mul(a, detail::broadcast<T>(b, n), out, n);
}

/// out[i] = add(mul(a[i], b), c3[i]) for a uniform multiplicand b.
template <typename T>
void batch_mac_scalar(const T* a, T b, const T* c3, T* out, std::size_t n) {
  batch_mac(a, detail::broadcast<T>(b, n), c3, out, n);
}

/// out[i] = rcp(x) for a uniform x, evaluated and counted per element as the
/// scalar kernels recompute it.
template <typename T>
void batch_rcp_scalar(T x, T* out, std::size_t n) {
  batch_rcp(detail::broadcast<T>(x, n), out, n);
}

}  // namespace ihw::gpu
