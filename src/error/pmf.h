#pragma once
// Probability mass function of error magnitudes on the log2 scale of
// Figs. 8-9: bucket index x = ceil(log2(|err%|)), i.e. a bar at x=-2 is the
// probability that the relative error percentage lies in (2^-3, 2^-2].
#include <cstdint>
#include <string>
#include <vector>

namespace ihw::error {

class ErrorPmf {
 public:
  /// Buckets span [min_bucket, max_bucket]; errors below/above clamp to the
  /// end buckets. The default covers 2^-24 % .. 2^8 % which brackets every
  /// unit in the paper; it is not explicit, so an aggregate holding a PMF
  /// (sweep::EvalRecord) can be value-initialized with `{}`.
  explicit ErrorPmf(int min_bucket, int max_bucket);
  ErrorPmf() : ErrorPmf(-24, 8) {}

  /// Full accumulator state (see ErrorStats::State): lets the sweep
  /// evaluation cache persist and restore a PMF bit-exactly.
  struct State {
    int min_bucket = -24;
    int max_bucket = 8;
    std::uint64_t samples = 0;
    std::uint64_t zero_error = 0;
    std::vector<std::uint64_t> counts;
  };

  State state() const { return {min_bucket_, max_bucket_, samples_, zero_error_, counts_}; }
  static ErrorPmf from_state(const State& s);

  /// Record one sample's relative error (as a fraction, not percent).
  void observe_rel_error(double rel);

  std::uint64_t samples() const { return samples_; }
  /// Total probability mass of non-zero errors (the sum of all bars).
  double error_rate() const;
  /// Probability of bucket x (err% in (2^(x-1), 2^x]).
  double probability(int bucket) const;
  int min_bucket() const { return min_bucket_; }
  int max_bucket() const { return max_bucket_; }
  /// Highest non-empty bucket, or min_bucket-1 when error-free.
  int max_nonzero_bucket() const;

  /// Renders "bucket probability" rows, skipping empty buckets.
  std::string to_string(const std::string& label) const;

 private:
  int min_bucket_, max_bucket_;
  std::uint64_t samples_ = 0;
  std::uint64_t zero_error_ = 0;
  std::vector<std::uint64_t> counts_;
};

}  // namespace ihw::error
