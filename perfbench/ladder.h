#pragma once
// The layer ladder: one fixed 16Ki-element op mix (mul, add, rcp, mac) in the
// ifp configuration, run through each rung of the arithmetic stack from the
// scalar unit functions up to the instrumented gpu::batch_* spans. Each rung
// records one span per repetition named "<rung>.<op>" with the element count
// as its items, so ns per element falls out of the span totals.
#include <cstdint>

#include "trace.h"

namespace perfbench {

inline constexpr int kLadderElements = 1 << 14;

/// Runs `reps` repetitions of every rung. Returns false if any rung's output
/// differs in one bit from the scalar-unit rung (the rungs are bit-identical
/// by contract).
bool run_ladder(std::uint64_t seed, int reps, Tracer* tr);

}  // namespace perfbench
