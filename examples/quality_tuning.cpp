// Quality-tuning example: the Fig. 10 iterative loop, live. Starts from the
// most aggressive configuration for the SRAD despeckler and backs off
// components (in characterized-error order) until the Pratt-FOM fidelity
// constraint is met, printing every step.
//
// Usage: quality_tuning [--constraint=F] [--size=N]
#include <cstdio>

#include "apps/runner.h"
#include "apps/srad.h"
#include "common/args.h"
#include "common/table.h"
#include "quality/tuner.h"

using namespace ihw;
using namespace ihw::apps;

int main(int argc, char** argv) {
  common::Args args(argc, argv);
  SradParams p;
  p.rows = p.cols = static_cast<std::size_t>(args.get_int("size", 128));
  p.iterations = 60;
  p.roi_r1 = p.roi_c1 = 24;
  const auto input = make_srad_input(p, 11);

  const auto ref = run_srad<float>(p, input.image);
  const double ref_fom = srad_pratt_fom(ref, input.ideal_edges);
  const double constraint =
      args.get_double("constraint", ref_fom * 0.97);

  std::printf("precise SRAD Pratt FOM: %.4f; constraint: >= %.4f\n\n", ref_fom,
              constraint);

  // The evaluator the tuner drives: run SRAD under the candidate config and
  // score the segmentation.
  quality::QualityEval eval = [&](const IhwConfig& cfg) {
    gpu::FpContext ctx(cfg);
    gpu::ScopedContext scope(ctx);
    const auto out = run_srad_batched(p, input.image);
    return srad_pratt_fom(out, input.ideal_edges);
  };

  const auto result = quality::tune(eval, constraint, IhwConfig::all_imprecise());

  common::Table t({"step", "configuration", "Pratt FOM", "meets constraint"});
  int step = 1;
  for (const auto& s : result.history) {
    t.row()
        .add(step++)
        .add(s.config.describe())
        .add(s.quality, 4)
        .add(s.met_constraint ? "yes" : "no");
  }
  std::printf("%s\n", t.str().c_str());
  if (result.satisfied) {
    std::printf("accepted configuration: [%s] with FOM %.4f\n",
                result.config.describe().c_str(), result.quality);
  } else {
    std::printf("constraint unsatisfiable even at full precision\n");
  }
  return 0;
}
