#pragma once
// The benchmark's workloads. Each is a fixed list of design points (one unit
// configuration x one application, or one characterized unit) generated from
// the seed; a pass evaluates every point once, in order.
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "oracle.h"
#include "trace.h"

namespace perfbench {

/// The default seed. golden.txt holds the expected tables of seeds 1 and 2.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// Exact per-pass counts a speed-only change must leave untouched.
struct PassCounts {
  bool has_perf = false;  ///< the pass runs on the instrumented simulator
  ihw::gpu::PerfCounters perf;
  bool has_abft = false;  ///< the pass runs ABFT-checked GEMMs
  std::uint64_t abft_checksums = 0;
  std::uint64_t abft_detections = 0;
};

class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  std::size_t size() const { return points_.size(); }
  const std::string& point_name(std::size_t i) const { return points_[i]; }

  /// Generates the inputs from `seed` and computes the precise references:
  /// the set-up a user of the simulator pays.
  virtual void prepare(std::uint64_t seed, Tracer* tr) = 0;

  /// Replaces the warm-up expectation of every point that has an independent
  /// oracle (a second code path that must give the same bits). Not part of
  /// the set-up time; runs after warm_up().
  virtual void build_oracle() {}

  /// Evaluates point i: the timed unit of work.
  virtual PointOutput run(std::size_t i, Tracer* tr) = 0;

  /// Times layer entry points this workload exercises only inside library
  /// calls (traced run only).
  virtual void probe_layers(Tracer*) {}

  /// Warm-up pass: runs every point once, records its digest as the
  /// expectation (build_oracle() overrides it where it can), and sums the
  /// exact per-pass counts.
  void warm_up(Tracer* tr);

  /// Marks points whose expected digest differs from the one committed for
  /// `seed`. Returns the names of the mismatching points.
  std::vector<std::string> apply_golden(const Golden& g, std::uint64_t seed);

  /// The oracle: digest match plus the workload's invariants.
  bool check(std::size_t i, const PointOutput& out) const;

  /// "<seed> <point> <digest>" lines of the expected table.
  std::string expected_table(std::uint64_t seed) const;

  const PassCounts& pass_counts() const { return pass_; }

 protected:
  virtual bool invariants(std::size_t, const PointOutput&) const {
    return true;
  }
  void expect(std::size_t i, const PointOutput& out) {
    expected_[i] = digest(out);
  }
  void set_points(std::vector<std::string> names);

 private:
  std::vector<std::string> points_;
  std::vector<std::optional<std::uint64_t>> expected_;
  std::vector<bool> poisoned_;
  PassCounts pass_;
};

/// The workload names: those of BENCHMARK.json, in its order, then
/// characterize, which only the traced runs use.
const std::vector<std::string>& workload_names();

/// Returns nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name);

}  // namespace perfbench
