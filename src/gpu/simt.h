#pragma once
// Functional SIMT execution layer: CUDA-like grid/block/thread launches.
// Functionally equivalent to GPGPU-Sim's execution of a kernel (same thread
// IDs); timing is modeled separately in timing.h from the performance
// counters.
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "gpu/epoch.h"

namespace ihw::gpu {

struct Dim3 {
  unsigned x = 1, y = 1, z = 1;
  constexpr Dim3() = default;
  constexpr Dim3(unsigned x_, unsigned y_ = 1, unsigned z_ = 1)
      : x(x_), y(y_), z(z_) {}
  /// Total extent. Widened to 64 bits: x * y * z in `unsigned` overflows for
  /// production-scale grids (e.g. 65536 x 65536 blocks).
  constexpr std::uint64_t count() const {
    return static_cast<std::uint64_t>(x) * y * z;
  }
};

/// Per-thread coordinates, as a CUDA kernel sees them.
struct ThreadCtx {
  Dim3 grid_dim, block_dim, block_idx, thread_idx;

  unsigned global_x() const { return block_idx.x * block_dim.x + thread_idx.x; }
  unsigned global_y() const { return block_idx.y * block_dim.y + thread_idx.y; }
  unsigned linear_tid() const {
    return (thread_idx.z * block_dim.y + thread_idx.y) * block_dim.x +
           thread_idx.x;
  }
};

/// Launches `kernel(ThreadCtx)` over the whole grid. For kernels with no
/// intra-block data sharing (the common data-parallel map).
template <typename K>
void launch(Dim3 grid, Dim3 block, K&& kernel) {
  ThreadCtx t;
  t.grid_dim = grid;
  t.block_dim = block;
  for (unsigned bz = 0; bz < grid.z; ++bz)
    for (unsigned by = 0; by < grid.y; ++by)
      for (unsigned bx = 0; bx < grid.x; ++bx) {
        t.block_idx = {bx, by, bz};
        // Epoch = linear block index: the fault/guard label the parallel
        // runtime reproduces shard-independently (runtime/parallel.h).
        const std::uint64_t lb =
            (static_cast<std::uint64_t>(bz) * grid.y + by) * grid.x + bx;
        run_epoch(lb, [&] {
          for (unsigned tz = 0; tz < block.z; ++tz)
            for (unsigned ty = 0; ty < block.y; ++ty)
              for (unsigned tx = 0; tx < block.x; ++tx) {
                t.thread_idx = {tx, ty, tz};
                kernel(t);
              }
        });
      }
  finish_launch();
}

}  // namespace ihw::gpu
