#pragma once
// Output oracle: every design point's result is reduced to one 64-bit digest
// of its raw output bits, simulated counters and derived figures, and checked
// against the expected table outside the point's own timing. A mismatch is a
// failed point. At the seeds golden.txt covers, the expected table itself is
// checked against the committed digests.
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/image.h"
#include "gpu/counters.h"

namespace perfbench {

/// Everything one design point produces. Workloads fill the fields they
/// have; empty fields hash as empty.
struct PointOutput {
  ihw::common::GridF grid;           ///< app output field (HotSpot, SRAD, CP)
  ihw::common::RgbImage image;       ///< ray tracer frame
  std::vector<float> floats;         ///< GEMM C, MLP logits
  std::vector<double> values;        ///< quality, savings, accuracy, stats
  std::vector<std::uint64_t> counts; ///< PMF buckets and other exact counts
  ihw::gpu::PerfCounters perf;       ///< simulated per-opcode counters
  std::uint64_t sim_ops = 0;         ///< simulated operations of the point
  std::uint64_t abft_checksums = 0;
  std::uint64_t abft_detections = 0;
};

std::uint64_t digest(const PointOutput& out);

/// Flips the lowest bit of the first output word (the oracle self-test).
void flip_one_bit(PointOutput& out);

/// Committed expected-table digests, keyed by seed and point name.
class Golden {
 public:
  /// Reads "<seed> <point> <hex digest>" lines; '#' starts a comment line.
  /// A missing file leaves the table empty and returns false.
  bool load(const std::string& path);
  const std::uint64_t* find(std::uint64_t seed,
                            const std::string& point) const;

 private:
  std::map<std::pair<std::uint64_t, std::string>, std::uint64_t> table_;
};

}  // namespace perfbench
