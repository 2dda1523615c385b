#pragma once
// Sobol' low-discrepancy sequence (up to 8 dimensions) with the direction
// numbers of Joe & Kuo. Ch. 4.2 of the paper uses quasi-Monte-Carlo with a
// low-discrepancy sequence to characterize imprecise-unit error PMFs; this
// is that sequence generator.
#include <array>
#include <cstdint>

namespace ihw::qmc {

/// Gray-code Sobol' generator. Each call to next() advances one point of the
/// d-dimensional sequence; coordinates are doubles in [0,1).
class Sobol {
 public:
  static constexpr int kMaxDims = 8;
  static constexpr int kBits = 32;

  explicit Sobol(int dims);

  int dims() const { return dims_; }

  /// Writes the next point's coordinates into out[0..dims).
  void next(double* out);

  /// Convenience for dims<=2 usage.
  std::array<double, 2> next2() {
    std::array<double, 2> p{};
    next(p.data());
    return p;
  }

  /// Repositions the generator so the next() call emits point `index` of the
  /// sequence, in O(log index) via the Gray-code closed form (the state after
  /// n steps is the XOR of the direction numbers selected by gray(n)). This
  /// is what lets the parallel error sweeps start a chunk mid-stream at the
  /// cost of a few XORs instead of replaying the prefix.
  void seek(std::uint64_t index);

 private:
  int dims_;
  std::uint64_t index_ = 0;
  std::array<std::array<std::uint32_t, kBits>, kMaxDims> dir_{};  // direction numbers
  std::array<std::uint32_t, kMaxDims> x_{};                       // current state
};

}  // namespace ihw::qmc
