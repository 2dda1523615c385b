// Ablation: IHW is orthogonal to DVFS (the paper's introduction claims the
// two compose: "can be combined with these techniques to further reduce the
// power consumption"). A first-order DVFS model (dynamic power ~ V^2 f with
// f ~ V, so ~V^3; static ~ V) applied on top of the HotSpot breakdown, with
// and without the IHW units enabled.
//
// The single precise HotSpot reference run is a memoized sweep point
// (--cache-dir=DIR persists its counters); the DVFS rows are analytic.
#include <chrono>
#include <cstdio>

#include "apps/hotspot.h"
#include "apps/runner.h"
#include "common/args.h"
#include "common/sweep_flags.h"
#include "common/table.h"
#include "runtime/parallel.h"
#include "sweep/json.h"
#include "sweep/sweep.h"

using namespace ihw;
using namespace ihw::apps;

namespace {

struct Operating {
  double power_w;
  double perf;     // relative performance (frequency ratio)
  double quality;  // 1.0 = exact outputs
};

// First-order DVFS: dynamic scales ~v^3 (V^2 * f with f ~ V), static ~v.
// ihw_saving is a fraction of *total* power, all of it removed from the
// dynamic component (the arithmetic units are purely dynamic consumers).
Operating apply_dvfs(const gpu::PowerBreakdown& b, double ihw_saving,
                     double v) {
  const double dyn_w = (b.total_w - b.static_w) - ihw_saving * b.total_w;
  return {dyn_w * v * v * v + b.static_w * v, v, 1.0};
}

}  // namespace

int main(int argc, char** argv) try {
  common::Args args(argc, argv);
  sweep::install_drain_handler();
  std::printf("[runtime] threads=%d\n",
              runtime::configure_threads_from_args(args));
  const auto flags = common::SweepFlags::from_args(args);
  sweep::EvalCache cache(flags.cache_dir);
  cache.attach_journal("ablation_dvfs", flags.resume);
  const sweep::FailPolicy policy = sweep::make_fail_policy(flags);
  const std::string json_path = args.get("json", "");
  HotspotParams p;
  p.rows = p.cols = static_cast<std::size_t>(args.get_int("size", 192));
  p.iterations = 20;

  const auto t0 = std::chrono::steady_clock::now();
  const IhwConfig precise = IhwConfig::precise();
  const sweep::Workload workload{
      "hotspot",
      {{"rows", double(p.rows)}, {"cols", double(p.cols)},
       {"iterations", double(p.iterations)}},
      7};
  std::vector<sweep::GridPoint> points;
  points.push_back({workload.fingerprint(&precise), [&] {
                      sweep::EvalRecord rec;
                      const auto input = make_hotspot_input(p, 7);
                      rec.perf = run_with_config(precise, [&] {
                        run_hotspot_batched(p, input);
                      });
                      return rec;
                    }});
  const auto grid = sweep::run_grid(points, &cache, policy);
  if (sweep::drain_requested()) {
    std::fprintf(stderr, "[sweep] drained (rerun with --resume): %s\n",
                 grid.health.summary().c_str());
    return sweep::kDrainExitCode;
  }
  if (grid.status[0] == sweep::PointStatus::Failed) {
    std::fprintf(stderr, "[sweep] point 0 failed: %s\n",
                 grid.error_message(0).c_str());
    return sweep::kPointFailureExitCode;
  }

  gpu::GpuPowerParams params;
  params.dram_fraction = 0.15;
  const auto rep =
      analyze_gpu_run(grid.records[0].perf, IhwConfig::all_imprecise(), params);
  const double base_w = rep.breakdown.total_w;
  const double ihw_saving = rep.savings.system_power_impr;

  common::Table t({"technique", "power (W)", "saving", "relative perf",
                   "quality"});
  sweep::Json rows = sweep::Json::array();
  char hex[24];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(points[0].fp));
  auto row = [&](const char* name, Operating op, const char* quality) {
    t.row()
        .add(name)
        .add(op.power_w, 1)
        .add(common::pct(1.0 - op.power_w / base_w))
        .add(common::fmt(op.perf, 2) + "x")
        .add(quality);
    rows.push(sweep::Json::object()
                  .set("technique", name)
                  .set("fingerprint", hex)
                  .set("power_w", op.power_w)
                  .set("saving", 1.0 - op.power_w / base_w)
                  .set("relative_perf", op.perf)
                  .set("cache_hit", grid.cache_hit[0] != 0)
                  .set("status", sweep::to_string(grid.status[0])));
  };
  row("baseline (precise, nominal V)", {base_w, 1.0, 1.0}, "exact");
  row("DVFS to 0.9 V", apply_dvfs(rep.breakdown, 0.0, 0.9), "exact");
  row("DVFS to 0.8 V", apply_dvfs(rep.breakdown, 0.0, 0.8), "exact");
  row("IHW (all units)", apply_dvfs(rep.breakdown, ihw_saving, 1.0),
      "negligible loss");
  row("IHW + DVFS 0.9 V", apply_dvfs(rep.breakdown, ihw_saving, 0.9),
      "negligible loss");
  row("IHW + DVFS 0.8 V", apply_dvfs(rep.breakdown, ihw_saving, 0.8),
      "negligible loss");

  std::printf("== Ablation: IHW composed with DVFS (HotSpot op mix) ==\n");
  std::printf("%s", t.str().c_str());
  std::printf("(the paper's orthogonality claim: DVFS trades power against "
              "performance, IHW against quality -- combined they multiply, "
              "reaching ~%.0f%%+ saving where neither alone can)\n",
              (1.0 - apply_dvfs(rep.breakdown, ihw_saving, 0.8).power_w /
                         base_w) * 100.0);
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  std::fprintf(stderr,
               "[sweep] hits=%llu misses=%llu disk_hits=%llu stores=%llu "
               "elapsed_ms=%.1f | %s\n",
               static_cast<unsigned long long>(cache.hits()),
               static_cast<unsigned long long>(cache.misses()),
               static_cast<unsigned long long>(cache.disk_hits()),
               static_cast<unsigned long long>(cache.stores()), ms,
               grid.health.summary().c_str());
  if (!json_path.empty()) {
    sweep::Json doc = sweep::Json::object();
    doc.set("bench", "ablation_dvfs")
        .set("size", static_cast<std::uint64_t>(p.rows))
        .set("elapsed_ms", ms)
        .set("cache_hits", cache.hits())
        .set("cache_misses", cache.misses())
        .set("disk_hits", cache.disk_hits())
        .set("health", grid.health.to_json())
        .set("rows", std::move(rows));
    if (!doc.write_file(json_path))
      std::fprintf(stderr, "[sweep] failed to write %s\n", json_path.c_str());
  }
  return 0;
} catch (const ihw::common::ArgError& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
