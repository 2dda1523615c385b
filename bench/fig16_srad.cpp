// Fig. 16 / Table 5 (SRAD row): speckle-reducing anisotropic diffusion with
// all IHW components enabled; quality via Pratt's figure of merit on the
// binary edge maps, power via the Fig. 12 estimator.
#include <cstdio>

#include "apps/runner.h"
#include "apps/srad.h"
#include "common/args.h"
#include "common/table.h"
#include "quality/grid_metrics.h"
#include "runtime/parallel.h"

using namespace ihw;
using namespace ihw::apps;

int main(int argc, char** argv) {
  common::Args args(argc, argv);
  std::printf("[runtime] threads=%d\n",
              runtime::configure_threads_from_args(args));
  SradParams p;
  p.rows = p.cols = static_cast<std::size_t>(args.get_int("size", 256));
  p.iterations = static_cast<int>(args.get_int("iterations", 100));
  const bool dump = args.get_bool("dump", false);

  // --input=image.pgm despeckles a user-supplied image instead of the
  // synthetic phantom (no ideal edge map -> FOM rows are skipped).
  const bool user_image = args.has("input");
  SradInput input;
  if (user_image) {
    input.image = common::read_pgm(args.get("input", ""));
    if (input.image.size() == 0) {
      std::fprintf(stderr, "could not read %s\n", args.get("input", "").c_str());
      return 1;
    }
    for (float& v : input.image) v = srad_intensity(v);
    p.rows = input.image.rows();
    p.cols = input.image.cols();
  } else {
    input = make_srad_input(p, 11);
  }
  common::GridF ref, imp;
  gpu::PerfCounters counters;
  {
    gpu::FpContext ctx(IhwConfig::precise());
    gpu::ScopedContext scope(ctx);
    ref = run_srad_batched(p, input.image);
    counters = ctx.counters();
  }
  const auto cfg = IhwConfig::all_imprecise();
  {
    gpu::FpContext ctx(cfg);
    gpu::ScopedContext scope(ctx);
    imp = run_srad_batched(p, input.image);
  }

  gpu::GpuPowerParams params;
  params.dram_fraction = 0.30;  // streaming derivative grids, little reuse
  const auto rep = analyze_gpu_run(counters, cfg, params);

  common::Table t({"metric", "value", "paper"});
  if (!user_image) {
    t.row().add("Pratt FOM (raw speckled)")
        .add(srad_pratt_fom(input.image, input.ideal_edges), 3).add("-");
    t.row().add("Pratt FOM (precise SRAD)")
        .add(srad_pratt_fom(ref, input.ideal_edges), 3).add("0.20");
    t.row().add("Pratt FOM (imprecise SRAD)")
        .add(srad_pratt_fom(imp, input.ideal_edges), 3).add("0.23");
  } else {
    t.row().add("MAE precise vs imprecise").add(quality::mae(ref, imp), 3).add("-");
    t.row().add("PSNR precise vs imprecise").add(quality::psnr(ref, imp, 255.0), 1).add("-");
  }
  t.row().add("FPU+SFU power share").add(common::pct(rep.breakdown.arith_share())).add("~27%");
  t.row().add("arith power saving").add(common::pct(rep.savings.arith_power_impr)).add("90.68%");
  t.row().add("system power saving").add(common::pct(rep.savings.system_power_impr)).add("24.23%");
  std::printf("== Fig. 16 / Table 5: SRAD %zux%zu, %d iterations, config "
              "[%s] ==\n",
              p.rows, p.cols, p.iterations, cfg.describe().c_str());
  std::printf("%s", t.str().c_str());

  if (dump) {
    common::write_pgm("srad_input.pgm", input.image);
    common::write_pgm("srad_precise.pgm", ref);
    common::write_pgm("srad_imprecise.pgm", imp);
    std::printf("wrote srad_{input,precise,imprecise}.pgm\n");
  }
  std::printf("(the imprecise FOM tracks the precise one: processing noise "
              "is dwarfed by the real speckle, the paper's key point)\n");
  return 0;
}
