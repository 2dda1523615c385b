#include "error/characterize.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/aligned.h"
#include "fpcore/float_bits.h"
#include "ihw/batch.h"
#include "qmc/sobol.h"
#include "runtime/parallel.h"

namespace ihw::error {
namespace {

// Scatter a [0,1) quasi-MC coordinate into a floating point operand: a
// significand uniform in [1,2) and a small exponent offset. The imprecise
// datapaths are exact in the exponent, so a modest spread exercises every
// alignment case (the adder cares about exponent *differences*).
template <typename T>
T scatter(double u, double v, int exp_spread) {
  const double mant = 1.0 + u;
  const int e = static_cast<int>(std::floor(v * (2 * exp_spread + 1))) - exp_spread;
  return static_cast<T>(std::ldexp(mant, e));
}

/// The exact-reference operation a unit kind is measured against. Distinct
/// unit kinds can share one reference: all four multiplier datapaths are
/// exact-Mul, which is what lets the shared-stream grid driver below compute
/// one reference span for a whole multiplier design space.
enum class ExactOp { Add, Sub, Mul, Div, Rcp, Rsqrt, Sqrt, Log2, Exp2, Fma };

ExactOp exact_op(UnitKind kind) {
  switch (kind) {
    case UnitKind::FpAdd: return ExactOp::Add;
    case UnitKind::FpSub: return ExactOp::Sub;
    case UnitKind::FpDiv: return ExactOp::Div;
    case UnitKind::Rcp: return ExactOp::Rcp;
    case UnitKind::Rsqrt: return ExactOp::Rsqrt;
    case UnitKind::Sqrt: return ExactOp::Sqrt;
    case UnitKind::Log2: return ExactOp::Log2;
    case UnitKind::Exp2: return ExactOp::Exp2;
    case UnitKind::Fma: return ExactOp::Fma;
    case UnitKind::FpMul:
    case UnitKind::AcfpLog:
    case UnitKind::AcfpFull:
    case UnitKind::BitTrunc: return ExactOp::Mul;
  }
  return ExactOp::Mul;
}

/// Exact-reference span: a plain vectorizable double loop over the operands
/// widened to double.
template <typename T>
void exact_unit_batch(ExactOp op, std::size_t m, const T* a, const T* b,
                      const T* c, double* exact) {
  switch (op) {
    case ExactOp::Add:
      for (std::size_t i = 0; i < m; ++i)
        exact[i] = static_cast<double>(a[i]) + static_cast<double>(b[i]);
      break;
    case ExactOp::Sub:
      for (std::size_t i = 0; i < m; ++i)
        exact[i] = static_cast<double>(a[i]) - static_cast<double>(b[i]);
      break;
    case ExactOp::Mul:
      for (std::size_t i = 0; i < m; ++i)
        exact[i] = static_cast<double>(a[i]) * static_cast<double>(b[i]);
      break;
    case ExactOp::Div:
      for (std::size_t i = 0; i < m; ++i)
        exact[i] = static_cast<double>(a[i]) / static_cast<double>(b[i]);
      break;
    case ExactOp::Rcp:
      for (std::size_t i = 0; i < m; ++i)
        exact[i] = 1.0 / static_cast<double>(a[i]);
      break;
    case ExactOp::Rsqrt:
      for (std::size_t i = 0; i < m; ++i)
        exact[i] = 1.0 / std::sqrt(static_cast<double>(a[i]));
      break;
    case ExactOp::Sqrt:
      for (std::size_t i = 0; i < m; ++i)
        exact[i] = std::sqrt(static_cast<double>(a[i]));
      break;
    case ExactOp::Log2:
      for (std::size_t i = 0; i < m; ++i)
        exact[i] = std::log2(static_cast<double>(a[i]));
      break;
    case ExactOp::Exp2:
      for (std::size_t i = 0; i < m; ++i)
        exact[i] = std::exp2(static_cast<double>(a[i]));
      break;
    case ExactOp::Fma:
      for (std::size_t i = 0; i < m; ++i)
        exact[i] = static_cast<double>(a[i]) * static_cast<double>(b[i]) +
                   static_cast<double>(c[i]);
      break;
  }
}

/// Approximate-unit span through the batched kernels of ihw/batch.h
/// (bit-identical per element to the scalar units; tests/test_batch.cpp
/// checks the two agree).
template <typename T>
void approx_unit_batch(UnitKind kind, int param, std::size_t m, const T* a,
                       const T* b, const T* c, T* approx) {
  switch (kind) {
    case UnitKind::FpAdd:
      batch::ifp_add_n(a, b, approx, m, param ? param : kDefaultAddTh);
      break;
    case UnitKind::FpSub:
      batch::ifp_sub_n(a, b, approx, m, param ? param : kDefaultAddTh);
      break;
    case UnitKind::FpMul:
      batch::ifp_mul_n(a, b, approx, m);
      break;
    case UnitKind::FpDiv:
      batch::ifp_div_n(a, b, approx, m);
      break;
    case UnitKind::Rcp:
      batch::ircp_n(a, approx, m);
      break;
    case UnitKind::Rsqrt:
      batch::irsqrt_n(a, approx, m);
      break;
    case UnitKind::Sqrt:
      batch::isqrt_n(a, approx, m);
      break;
    case UnitKind::Log2:
      batch::ilog2_n(a, approx, m);
      break;
    case UnitKind::Exp2:
      batch::iexp2_n(a, approx, m);
      break;
    case UnitKind::Fma:
      batch::ifp_fma_n(a, b, c, approx, m, kDefaultAddTh);
      break;
    case UnitKind::AcfpLog:
      batch::acfp_mul_n(a, b, approx, m, AcfpPath::Log, param);
      break;
    case UnitKind::AcfpFull:
      batch::acfp_mul_n(a, b, approx, m, AcfpPath::Full, param);
      break;
    case UnitKind::BitTrunc:
      batch::trunc_mul_n(a, b, approx, m, param);
      break;
  }
}

// Chunk granularity of the parallel sweep. Fixed (never derived from the
// thread count) so the accumulation stream fed to ErrorStats/ErrorPmf is
// identical for every --threads value, including the serial path.
constexpr std::uint64_t kCharChunk = 1 << 16;

std::string make_label(UnitKind kind, int param) {
  // Built piecewise: chained operator+ trips the GCC 12 -Wrestrict false
  // positive (see the matching note in common/args.cpp).
  std::string label = to_string(kind);
  if (param != 0) {
    label += '(';
    label += std::to_string(param);
    label += ')';
  }
  return label;
}

// Operand-generation recipe of a unit kind; requests with equal recipes can
// borrow one quasi-MC stream.
struct GenRecipe {
  int spread;
  int dims;
  bool exp2_segment;

  bool operator==(const GenRecipe&) const = default;
};

GenRecipe gen_recipe(UnitKind kind) {
  const int spread =
      (kind == UnitKind::FpAdd || kind == UnitKind::FpSub) ? 12 : 0;
  return {spread, kind == UnitKind::Fma ? 6 : 4, kind == UnitKind::Exp2};
}

/// Shared-stream grid characterization (DESIGN.md §11): one pass per
/// generation recipe, with the quasi-MC operand stream generated once per
/// chunk and the exact reference evaluated once per distinct ExactOp, then
/// borrowed by every request in the group. The adder needs exponent spread
/// to hit every d-vs-TH case; multipliers and SFUs are characterized over
/// [1,2)x[1,2) as in Ch. 4.2 (their error is exponent-invariant), and unary
/// kinds ignore operand b.
///
/// Sample evaluation is pure, so chunks fan out over the parallel runtime
/// (each worker seeks its own Sobol stream to the chunk offset in O(log n)).
/// Each request's accumulators consume its (exact, approx) stream on this
/// thread in ascending sample order: a deterministic ordered reduction,
/// bit-identical to the serial loop at any thread count, and independent of
/// which other requests share the pass.
template <typename T>
std::vector<CharResult> run_many(const std::vector<CharRequest>& reqs,
                                 std::uint64_t samples) {
  std::vector<CharResult> out;
  out.reserve(reqs.size());
  for (const auto& r : reqs)
    out.push_back(CharResult{make_label(r.kind, r.param), {}, ErrorPmf{}});

  // Group requests by generation recipe, preserving first-appearance order.
  struct Group {
    GenRecipe recipe;
    std::vector<std::size_t> members;  // indexes into reqs/out
  };
  std::vector<Group> groups;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const GenRecipe rec = gen_recipe(reqs[i].kind);
    auto it = std::find_if(groups.begin(), groups.end(),
                           [&](const Group& g) { return g.recipe == rec; });
    if (it == groups.end()) {
      groups.push_back({rec, {i}});
    } else {
      it->members.push_back(i);
    }
  }

  for (const auto& g : groups) {
    // Distinct exact-reference ops within the group, first-appearance order.
    std::vector<ExactOp> exact_ops;
    std::vector<std::size_t> op_of_member(g.members.size());
    for (std::size_t j = 0; j < g.members.size(); ++j) {
      const ExactOp op = exact_op(reqs[g.members[j]].kind);
      auto it = std::find(exact_ops.begin(), exact_ops.end(), op);
      if (it == exact_ops.end()) {
        op_of_member[j] = exact_ops.size();
        exact_ops.push_back(op);
      } else {
        op_of_member[j] = static_cast<std::size_t>(it - exact_ops.begin());
      }
    }

    const bool ternary = g.recipe.dims == 6;
    struct GridChunk {
      std::vector<std::vector<double>> exact;  // one span per distinct op
      std::vector<std::vector<T>> approx;      // one span per group member
    };
    runtime::ordered_chunks<GridChunk>(
        samples, kCharChunk,
        [&](std::uint64_t begin, std::uint64_t end) {
          const std::size_t m = static_cast<std::size_t>(end - begin);
          qmc::Sobol sobol(g.recipe.dims);
          sobol.seek(begin);
          // Operand generation runs once for the whole group. The scratch
          // is thread-local so each worker touches the same pages every
          // chunk instead of re-faulting fresh allocations.
          static thread_local common::AlignedVector<T> a, b, c;
          a.resize(m);
          b.resize(m);
          c.resize(ternary ? m : 0);
          double p[6];
          for (std::size_t i = 0; i < m; ++i) {
            sobol.next(p);
            if (g.recipe.exp2_segment) {
              a[i] = static_cast<T>(p[0] * 8.0 - 4.0);  // fraction segment
            } else {
              a[i] = scatter<T>(p[0], p[1], g.recipe.spread);
              b[i] = scatter<T>(p[2], p[3], g.recipe.spread);
              if (ternary) c[i] = scatter<T>(p[4], p[5], g.recipe.spread);
            }
          }
          GridChunk chunk;
          chunk.exact.reserve(exact_ops.size());
          for (const ExactOp op : exact_ops) {
            std::vector<double> exact(m);
            exact_unit_batch<T>(op, m, a.data(), b.data(), c.data(),
                                exact.data());
            chunk.exact.push_back(std::move(exact));
          }
          chunk.approx.reserve(g.members.size());
          for (const std::size_t idx : g.members) {
            std::vector<T> approx(m);
            approx_unit_batch<T>(reqs[idx].kind, reqs[idx].param, m, a.data(),
                                 b.data(), c.data(), approx.data());
            chunk.approx.push_back(std::move(approx));
          }
          return chunk;
        },
        [&](GridChunk&& chunk) {
          for (std::size_t j = 0; j < g.members.size(); ++j) {
            CharResult& res = out[g.members[j]];
            const std::vector<double>& exact = chunk.exact[op_of_member[j]];
            const std::vector<T>& approx = chunk.approx[j];
            for (std::size_t i = 0; i < exact.size(); ++i) {
              const double e = exact[i];
              const double ap = static_cast<double>(approx[i]);
              res.stats.observe(e, ap);
              if (e != 0.0 && std::isfinite(e))
                res.pmf.observe_rel_error(std::fabs(ap - e) / std::fabs(e));
            }
          }
        });
  }
  return out;
}

}  // namespace

std::string to_string(UnitKind k) {
  switch (k) {
    case UnitKind::FpAdd: return "ifpadd";
    case UnitKind::FpSub: return "ifpsub";
    case UnitKind::FpMul: return "ifpmul";
    case UnitKind::FpDiv: return "ifpdiv";
    case UnitKind::Rcp: return "ircp";
    case UnitKind::Rsqrt: return "irsqrt";
    case UnitKind::Sqrt: return "isqrt";
    case UnitKind::Log2: return "ilog2";
    case UnitKind::Exp2: return "iexp2";
    case UnitKind::Fma: return "ifma";
    case UnitKind::AcfpLog: return "log_path";
    case UnitKind::AcfpFull: return "full_path";
    case UnitKind::BitTrunc: return "bit_trunc";
  }
  return "?";
}

CharResult characterize32(UnitKind kind, int param, std::uint64_t samples) {
  return run_many<float>({{kind, param}}, samples)[0];
}

CharResult characterize64(UnitKind kind, int param, std::uint64_t samples) {
  return run_many<double>({{kind, param}}, samples)[0];
}

std::vector<CharResult> characterize32_many(const std::vector<CharRequest>& reqs,
                                            std::uint64_t samples) {
  return run_many<float>(reqs, samples);
}

std::vector<CharResult> characterize64_many(const std::vector<CharRequest>& reqs,
                                            std::uint64_t samples) {
  return run_many<double>(reqs, samples);
}

}  // namespace ihw::error
