// Thermal-simulation example (the paper's HotSpot study end-to-end):
// simulates a processor floorplan on the instrumented SIMT simulator under
// precise and fully-imprecise hardware, writes both heat maps as PGM images,
// and prints the quality + power report.
//
// Usage: thermal_sim [--size=N] [--iterations=K] [--th=TH]
#include <cstdio>

#include "apps/hotspot.h"
#include "apps/runner.h"
#include "common/args.h"
#include "common/table.h"
#include "quality/grid_metrics.h"

using namespace ihw;
using namespace ihw::apps;

int main(int argc, char** argv) {
  common::Args args(argc, argv);
  HotspotParams p;
  p.rows = p.cols = static_cast<std::size_t>(args.get_int("size", 256));
  p.iterations = static_cast<int>(args.get_int("iterations", 60));

  std::printf("generating a %zux%zu floorplan and relaxing it to steady "
              "state...\n", p.rows, p.cols);
  const auto input = make_hotspot_input(p, 7);

  common::GridF ref;
  gpu::PerfCounters counters;
  {
    gpu::FpContext ctx(IhwConfig::precise());
    gpu::ScopedContext scope(ctx);
    ref = run_hotspot_batched(p, input);
    counters = ctx.counters();
  }

  auto cfg = IhwConfig::all_imprecise();
  cfg.add_th = static_cast<int>(args.get_int("th", kDefaultAddTh));
  common::GridF imp;
  {
    gpu::FpContext ctx(cfg);
    gpu::ScopedContext scope(ctx);
    imp = run_hotspot_batched(p, input);
  }

  common::write_pgm("thermal_precise.pgm", ref);
  common::write_pgm("thermal_imprecise.pgm", imp);

  gpu::GpuPowerParams params;
  params.dram_fraction = 0.15;
  const auto rep = analyze_gpu_run(counters, cfg, params);

  std::printf("\nconfig: %s\n", cfg.describe().c_str());
  std::printf("quality: MAE %.4f K, WED %.4f K, PSNR %.1f dB\n",
              quality::mae(ref, imp), quality::wed(ref, imp),
              quality::psnr(ref, imp));
  std::printf("power:   FPU+SFU share %.1f%% of %.1f W -> system saving "
              "%.2f%% (arith %.2f%%)\n",
              rep.breakdown.arith_share() * 100.0, rep.breakdown.total_w,
              rep.savings.system_power_impr * 100.0,
              rep.savings.arith_power_impr * 100.0);
  std::printf("wrote thermal_precise.pgm / thermal_imprecise.pgm\n");
  return 0;
}
