#pragma once
// Execution context binding an IHW configuration (the simulator's
// precise/imprecise knob) to performance counters. SimReal arithmetic
// consults the active thread-local context; when none is installed,
// operations fall back to precise host arithmetic and are not counted.
//
// Since the fault/guard subsystem (src/fault/), the context routes every
// operation through a fault::GuardedDispatch: injection, online screening,
// and the per-unit circuit breaker all live there. With faults and guard
// disabled (the default), the guarded wrapper is a single-branch
// pass-through to the plain FpDispatch.
#include "fault/counters.h"
#include "fault/guarded_dispatch.h"
#include "gpu/counters.h"
#include "ihw/dispatch.h"

namespace ihw::gpu {

class FpContext {
 public:
  FpContext() = default;
  explicit FpContext(const IhwConfig& cfg) : guarded_(cfg) {}

  /// Tag for cloning a caller context into a worker shard: configuration and
  /// open circuit breakers carry over; perf/fault counters start at zero so
  /// the shard-order merge adds them back exactly once.
  struct ShardClone {};
  FpContext(const FpContext& parent, ShardClone)
      : guarded_(parent.guarded_.shard_clone()) {}

  fault::GuardedDispatch& guarded() { return guarded_; }
  const fault::GuardedDispatch& guarded() const { return guarded_; }

  void set_config(const IhwConfig& cfg) { guarded_.set_config(cfg); }
  const IhwConfig& config() const { return guarded_.config(); }

  PerfCounters& counters() { return counters_; }
  const PerfCounters& counters() const { return counters_; }
  void bump(OpClass c) { counters_.bump(c); }

  fault::FaultCounters& fault_counters() { return guarded_.counters(); }
  const fault::FaultCounters& fault_counters() const {
    return guarded_.counters();
  }

  /// Epoch labelling + launch-boundary breaker hooks; called by the
  /// execution runtime (gpu/simt.h serial paths, runtime/parallel.h).
  void begin_epoch(std::uint64_t e) { guarded_.begin_epoch(e); }
  void end_launch() { guarded_.end_launch(); }

  /// The context active on this thread, or nullptr. Fully inline (the slot
  /// is an `inline static thread_local` member) so a hot-loop lookup is one
  /// TLS load the compiler can hoist and cache, not an out-of-line call.
  static FpContext* current() { return tls_current_; }

 private:
  friend class ScopedContext;
  friend class ScopedNoContext;
  inline static thread_local FpContext* tls_current_ = nullptr;
  fault::GuardedDispatch guarded_;
  PerfCounters counters_;
};

/// RAII installer for the thread-local active context.
class ScopedContext {
 public:
  explicit ScopedContext(FpContext& ctx) : prev_(FpContext::tls_current_) {
    FpContext::tls_current_ = &ctx;
  }
  ~ScopedContext() { FpContext::tls_current_ = prev_; }
  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  FpContext* prev_;
};

/// Temporarily uninstalls the active context: operations inside run on
/// precise host arithmetic, uncounted, unfaulted, and -- crucially -- the
/// execution runtime's epoch hooks (gpu::run_epoch / finish_launch) become
/// no-ops, so the caller's GuardedDispatch epoch labelling and breaker state
/// are untouched. Used by side computations that must not perturb the run
/// they observe, e.g. the ABFT layer deriving its detection threshold from
/// error::characterize32 while a gemm::run is mid-flight (DESIGN.md §17).
class ScopedNoContext {
 public:
  ScopedNoContext() : prev_(FpContext::tls_current_) {
    FpContext::tls_current_ = nullptr;
  }
  ~ScopedNoContext() { FpContext::tls_current_ = prev_; }
  ScopedNoContext(const ScopedNoContext&) = delete;
  ScopedNoContext& operator=(const ScopedNoContext&) = delete;

 private:
  FpContext* prev_;
};

/// Temporarily forces the active context to precise arithmetic (used by
/// kernels that keep a subset of operations exact, e.g. CP's atom-coordinate
/// computation in Ch. 5.3.2, and by the guard's retry-in-precise mode).
/// Operations are still counted. Breaker state and fault counters survive
/// the swap (GuardedDispatch::set_config keeps them).
class ScopedPrecise {
 public:
  ScopedPrecise() : ctx_(FpContext::current()) {
    if (ctx_ != nullptr) {
      saved_ = ctx_->config();
      ctx_->set_config(IhwConfig::precise());
    }
  }
  ~ScopedPrecise() {
    if (ctx_ != nullptr) ctx_->set_config(saved_);
  }
  ScopedPrecise(const ScopedPrecise&) = delete;
  ScopedPrecise& operator=(const ScopedPrecise&) = delete;

 private:
  FpContext* ctx_;
  IhwConfig saved_;
};

using ihw::FpDispatch;
using ihw::IhwConfig;

}  // namespace ihw::gpu
