#pragma once
// GuardedDispatch: the fault-injecting, self-checking wrapper around
// ihw::FpDispatch. Every imprecise result flows through three stages
// (DESIGN.md §9): injection of a deterministic counter-based fault
// (injector.h) into the unit's output word; an optional guard that screens
// the result against the precise datapath and may recover to it; and a
// two-level circuit breaker (per epoch, and per run at launch boundaries)
// that degrades a class to precise. Precise units never fault: a disabled
// class models a unit at nominal voltage.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "fault/counters.h"
#include "fault/injector.h"
#include "fault/spec.h"
#include "ihw/dispatch.h"
#include "ihw/op.h"

namespace ihw::fault {

class GuardedDispatch {
 public:
  GuardedDispatch() { refresh(); }
  explicit GuardedDispatch(const IhwConfig& cfg) : base_(cfg) { refresh(); }

  const IhwConfig& config() const { return base_.config(); }
  /// Swaps the configuration; counters, epoch labelling, and breaker state
  /// survive (ScopedPrecise toggles configs mid-run and must not erase them).
  void set_config(const IhwConfig& cfg) {
    base_.set_config(cfg);
    refresh();
  }

  FaultCounters& counters() { return counters_; }
  const FaultCounters& counters() const { return counters_; }

  /// Schedule-invariant stream label for the current unit of work (linear
  /// block index / work-item index); resets the intra-epoch op counters and
  /// the epoch-local breaker state.
  void begin_epoch(std::uint64_t e);
  /// True once any guard violation occurred in the current epoch.
  bool epoch_tripped() const { return epoch_tripped_; }
  /// True when the guard's retry mode wants this epoch re-run precise.
  bool retry_epoch_needed() const { return epoch_tripped_ && config().guard.retry_epoch; }
  void note_retry() { ++counters_.retried_epochs; }
  /// Launch-boundary breaker evaluation: classes whose accumulated trips
  /// reached run_trip_limit degrade to precise for the rest of the run.
  /// Idempotent; called by every launch/parallel-for epilogue.
  void end_launch();

  bool run_degraded(UnitClass c) const { return run_degraded_[static_cast<int>(c)]; }

  /// A copy for a worker shard: same config and open breakers, zeroed
  /// counters and epoch state (merged back via merge_counters, shard order).
  GuardedDispatch shard_clone() const;
  void merge_counters(const GuardedDispatch& shard) { counters_ += shard.counters_; }

  /// One operation of class O through the three stages above. Unscreened
  /// (no faults, no guard) it is FpDispatch::op<O>. An unfused Fma screens
  /// its mul and add stages as their own units.
  template <Op O, typename T, typename... Ts>
  T op(T x, Ts... xs) {
    if (!screened_) [[likely]] return base_.template op<O>(x, xs...);
    return screened_op<O>(x, xs...);
  }

  /// The span form. With no faults and no guard (the common case) a span
  /// drops straight into the batched FpDispatch path. A screened span walks
  /// op<O> element by element instead: every op then consumes the same
  /// per-class (epoch, op index) label it would under scalar execution, so
  /// fault draws and guard/breaker decisions are bit-identical by
  /// construction -- batching only reorders *across* unit classes, and
  /// op_idx_ is per class.
  template <Op O, typename T, typename... In>
  void op_n(T* out, std::size_t n, const In*... in) {
    if (!screened_) return base_.template op_n<O>(out, n, in...);
    for (std::size_t i = 0; i < n; ++i) out[i] = op<O>(in[i]...);
  }

  // Named span entry points: one-line spellings of op_n<O>.
  template <typename T>
  void add_n(const T* a, const T* b, T* o, std::size_t n) { op_n<Op::Add>(o, n, a, b); }
  template <typename T>
  void mul_n(const T* a, const T* b, T* o, std::size_t n) { op_n<Op::Mul>(o, n, a, b); }
  template <typename T>
  void rcp_n(const T* x, T* o, std::size_t n) { op_n<Op::Rcp>(o, n, x); }
  template <typename T>
  void mac_n(const T* a, const T* b, const T* c, T* o, std::size_t n) {
    op_n<Op::Mac>(o, n, a, b, c);
  }

 private:
  void refresh() { screened_ = config().screened(); }

  /// op<O> with faults or the guard active, out of line so that every
  /// inlined op site keeps only the unscreened branch.
  template <Op O, typename T, typename... Ts>
  [[gnu::noinline]] T screened_op(T x, Ts... xs) {
    if constexpr (O == Op::Mac) return mac(x, xs...);
    else {
      if constexpr (O == Op::Fma)
        if (!config().fma_enabled) return unfused(x, xs...);
      return screen<O>(x, xs...);
    }
  }

  template <typename T>
  T unfused(T a, T b, T c) { return op<Op::Add>(op<Op::Mul>(a, b), c); }

  /// Mac: one Mul and one Add (epoch, op index) label per element, in that
  /// order -- the labels mul_n then add_n would consume. A non-finite mul
  /// fault poisons the add screen's precise reference (precise NaN + c is
  /// NaN, and screen() abstains when the precise side is non-finite), so this
  /// backstop re-derives the precise chain from the ORIGINAL operands: a
  /// non-finite result whose true chain is finite is an immediate detection
  /// (and repair under recover).
  template <typename T>
  T mac(T a, T b, T c) {
    const T r = unfused(a, b, c);
    const GuardPolicy& g = config().guard;
    if (!g.enabled || std::isfinite(static_cast<double>(r))) return r;
    const T p = OpRow<Op::Mac>::precise(a, b, c);
    if (!std::isfinite(static_cast<double>(p))) return r;
    ++counters_.nonfinite_flags;
    epoch_tripped_ = true;
    return g.recover ? p : r;
  }

  /// The three-stage pipeline described in the header comment, for the
  /// single unit of row O.
  template <Op O, typename T, typename... Ts>
  T screen(T x, Ts... xs) {
    using R = OpRow<O>;
    const int c = static_cast<int>(R::unit);
    // A precise-path class sits at nominal voltage: no faults, no guard.
    if (!R::enabled(config()) || run_degraded_[c] || epoch_degraded_[c])
      return R::precise(x, xs...);
    T r = R::imprecise(config(), x, xs...);
    const std::uint32_t idx = op_idx_[c]++;  // this op's fault label
    if (const FaultSpec& fs = config().faults.units[c]; fs.active()) {
      const std::uint64_t h = fault_hash(config().faults.seed, R::unit, epoch_, idx);
      if (fault_fires(h, fs.rate)) {
        ++counters_.injected[c];
        r = apply_fault(r, fs, splitmix64(h ^ 0xa5a5a5a5a5a5a5a5ull));
      }
    }
    if (!config().guard.enabled) return r;
    double max_in = std::fabs(static_cast<double>(x));  // guard scale floor
    ((max_in = std::max(std::fabs(static_cast<double>(xs)), max_in)), ...);
    return guard(R::unit, R::precise(x, xs...), r, max_in);
  }

  /// Screens the delivered `r` against the precise `p`: a violation is
  /// recorded, runs the epoch breaker, and returns `p` under recover.
  template <typename T>
  T guard(UnitClass uc, T p, T r, double max_in) {
    const GuardPolicy& g = config().guard;
    const double pd = static_cast<double>(p), rd = static_cast<double>(r);
    if (!std::isfinite(pd)) return r;
    const double scale = std::fabs(pd) + g.scale_floor * max_in;
    const bool violation =  // NaN/Inf where the precise unit stays finite
        !std::isfinite(rd) || (std::fabs(rd - pd) > g.tolerance * scale && scale > 0.0);
    if (!violation) return r;
    const int c = static_cast<int>(uc);
    ++counters_.guard_trips[c];
    epoch_tripped_ = true;
    if (++epoch_trips_[c] >= g.epoch_trip_limit) {
      epoch_degraded_[c] = true;
      ++counters_.degraded_epochs[c];
    }
    return g.recover ? p : r;
  }

  FpDispatch base_;
  FaultCounters counters_;
  bool screened_ = false;

  // Epoch-local state (reset by begin_epoch).
  std::uint64_t epoch_ = 0;
  bool epoch_tripped_ = false;
  std::array<std::uint32_t, kNumUnitClasses> op_idx_{};
  std::array<int, kNumUnitClasses> epoch_trips_{};
  std::array<bool, kNumUnitClasses> epoch_degraded_{};

  // Run-level breaker state (sticky; updated only in end_launch).
  std::array<bool, kNumUnitClasses> run_degraded_{};
};

}  // namespace ihw::fault
