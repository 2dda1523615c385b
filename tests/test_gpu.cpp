// Tests for the SIMT functional simulator: contexts, counters, the SimReal
// instrumented scalar, launches/barrier phases, timing, and the power
// breakdown model.
#include "common/image.h"
#include "gpu/context.h"
#include "gpu/counters.h"
#include "gpu/machine.h"
#include "gpu/simreal.h"
#include "gpu/simt.h"
#include "gpu/timing.h"
#include "gpu/wattch.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace ihw::gpu {
namespace {

TEST(PerfCounters, ClassTotalsAndConversion) {
  PerfCounters c;
  c.bump(OpClass::FAdd, 3);
  c.bump(OpClass::FMul, 2);
  c.bump(OpClass::FRcp, 5);
  c.bump(OpClass::IAdd, 7);
  c.bump(OpClass::Load, 4);
  c.bump(OpClass::Store, 1);
  EXPECT_EQ(c.fpu_ops(), 5u);
  EXPECT_EQ(c.sfu_ops(), 5u);
  EXPECT_EQ(c.int_ops(), 7u);
  EXPECT_EQ(c.mem_accesses(), 5u);
  EXPECT_EQ(c.mem_bytes(), 20u);
  EXPECT_EQ(c.instructions(), 22u);
  const auto ops = c.to_op_counts();
  EXPECT_EQ(ops[power::OpKind::FAdd], 3u);
  EXPECT_EQ(ops[power::OpKind::FRcp], 5u);
}

TEST(PerfCounters, AccumulateAndReset) {
  PerfCounters a, b;
  a.bump(OpClass::FMul, 10);
  b.bump(OpClass::FMul, 5);
  b.bump(OpClass::Load, 2);
  a += b;
  EXPECT_EQ(a[OpClass::FMul], 15u);
  EXPECT_EQ(a[OpClass::Load], 2u);
  a.reset();
  EXPECT_EQ(a.instructions(), 0u);
}

TEST(SimReal, NoContextMeansPreciseAndUncounted) {
  ASSERT_EQ(FpContext::current(), nullptr);
  const SimFloat a(1.75f), b(1.75f);
  EXPECT_EQ((a * b).value(), 1.75f * 1.75f);
  EXPECT_EQ((a + b).value(), 3.5f);
  EXPECT_EQ(sqrt(SimFloat(9.0f)).value(), 3.0f);
}

TEST(SimReal, ContextCountsEveryOperation) {
  FpContext ctx{IhwConfig::precise()};
  ScopedContext scope(ctx);
  SimFloat a(2.0f), b(3.0f);
  (void)(a + b);
  (void)(a - b);
  (void)(a * b);
  (void)(a / b);
  (void)sqrt(a);
  (void)rsqrt(a);
  (void)rcp(a);
  (void)log2(a);
  (void)fma_op(a, b, a);
  EXPECT_EQ(ctx.counters()[OpClass::FAdd], 2u);  // add + sub
  EXPECT_EQ(ctx.counters()[OpClass::FMul], 1u);
  EXPECT_EQ(ctx.counters()[OpClass::FDiv], 1u);
  EXPECT_EQ(ctx.counters()[OpClass::FSqrt], 1u);
  EXPECT_EQ(ctx.counters()[OpClass::FRsqrt], 1u);
  EXPECT_EQ(ctx.counters()[OpClass::FRcp], 1u);
  EXPECT_EQ(ctx.counters()[OpClass::FLog2], 1u);
  EXPECT_EQ(ctx.counters()[OpClass::FFma], 1u);
}

TEST(SimReal, RoutesThroughImpreciseConfig) {
  FpContext ctx{IhwConfig::all_imprecise()};
  ScopedContext scope(ctx);
  const SimFloat a(1.75f), b(1.75f);
  EXPECT_EQ((a * b).value(), ifp_mul(1.75f, 1.75f));
  EXPECT_EQ((SimFloat(1024.0f) + SimFloat(1.0f)).value(),
            ifp_add(1024.0f, 1.0f, 8));
  EXPECT_EQ(rcp(SimFloat(3.0f)).value(), ircp(3.0f));
}

TEST(SimReal, ComparisonAndUnaryOperators) {
  const SimFloat a(2.0f), b(3.0f);
  EXPECT_TRUE(a < b);
  EXPECT_TRUE(b > a);
  EXPECT_TRUE(a <= a);
  EXPECT_TRUE(a == SimFloat(2.0f));
  EXPECT_TRUE(a != b);
  EXPECT_EQ((-a).value(), -2.0f);
  EXPECT_EQ(fabs(SimFloat(-5.0f)).value(), 5.0f);
  EXPECT_EQ(fmin(a, b).value(), 2.0f);
  EXPECT_EQ(fmax(a, b).value(), 3.0f);
}

TEST(SimReal, CompoundAssignmentCounts) {
  FpContext ctx{IhwConfig::precise()};
  ScopedContext scope(ctx);
  SimFloat a(1.0f);
  a += SimFloat(2.0f);
  a *= SimFloat(3.0f);
  EXPECT_EQ(a.value(), 9.0f);
  EXPECT_EQ(ctx.counters()[OpClass::FAdd], 1u);
  EXPECT_EQ(ctx.counters()[OpClass::FMul], 1u);
}

TEST(SimReal, DoubleVariantRoutesSixtyFourBitUnits) {
  FpContext ctx{IhwConfig::mul_only(ihw::MulMode::MitchellFull, 44)};
  ScopedContext scope(ctx);
  const SimDouble a(1.9), b(1.7);
  EXPECT_EQ((a * b).value(), acfp_mul(1.9, 1.7, AcfpPath::Full, 44));
  EXPECT_EQ((a + b).value(), 1.9 + 1.7);  // adds stay precise
}

TEST(ScopedContext, NestsAndRestores) {
  FpContext outer{IhwConfig::precise()};
  FpContext inner{IhwConfig::all_imprecise()};
  EXPECT_EQ(FpContext::current(), nullptr);
  {
    ScopedContext s1(outer);
    EXPECT_EQ(FpContext::current(), &outer);
    {
      ScopedContext s2(inner);
      EXPECT_EQ(FpContext::current(), &inner);
    }
    EXPECT_EQ(FpContext::current(), &outer);
  }
  EXPECT_EQ(FpContext::current(), nullptr);
}

TEST(ScopedPrecise, TemporarilyDisablesImprecision) {
  FpContext ctx{IhwConfig::all_imprecise()};
  ScopedContext scope(ctx);
  const SimFloat a(1.75f), b(1.75f);
  {
    ScopedPrecise precise;
    EXPECT_EQ((a * b).value(), 1.75f * 1.75f);
  }
  EXPECT_EQ((a * b).value(), ifp_mul(1.75f, 1.75f));
  // Ops inside the precise scope are still counted.
  EXPECT_EQ(ctx.counters()[OpClass::FMul], 2u);
}

TEST(MemoryTracking, GloadGstoreCountAccessesAndAddressMath) {
  FpContext ctx{IhwConfig::precise()};
  ScopedContext scope(ctx);
  float x = 3.0f;
  EXPECT_EQ(gload(x), 3.0f);
  gstore(x, 5.0f);
  EXPECT_EQ(x, 5.0f);
  count_mem(4, 2);
  count_int_ops(3);
  EXPECT_EQ(ctx.counters()[OpClass::Load], 5u);
  EXPECT_EQ(ctx.counters()[OpClass::Store], 3u);
  EXPECT_EQ(ctx.counters()[OpClass::IAdd], 5u);  // 2 from gload/gstore + 3
}

TEST(Simt, LaunchVisitsEveryThreadExactlyOnce) {
  common::Grid<int> visits(8, 10, 0);
  launch(Dim3(5, 2), Dim3(2, 4), [&](const ThreadCtx& t) {
    visits(t.global_y(), t.global_x())++;
  });
  for (int v : visits) EXPECT_EQ(v, 1);
}

TEST(Simt, ThreadCoordinatesConsistent) {
  launch(Dim3(3, 2), Dim3(4, 4), [&](const ThreadCtx& t) {
    ASSERT_LT(t.thread_idx.x, t.block_dim.x);
    ASSERT_LT(t.block_idx.x, t.grid_dim.x);
    ASSERT_EQ(t.global_x(), t.block_idx.x * 4 + t.thread_idx.x);
    ASSERT_LT(t.linear_tid(), t.block_dim.count());
  });
}

TEST(Timing, RooflineSelectsBusiestResource) {
  GpuConfig gpu = GpuConfig::gtx480();
  PerfCounters c;
  c.bump(OpClass::FMul, 1u << 24);
  auto t = estimate_time(c, gpu, 1.0);
  EXPECT_STREQ(t.bound_by(), "fpu");
  c.bump(OpClass::FRcp, 1u << 24);  // SFUs are 8x scarcer
  t = estimate_time(c, gpu, 1.0);
  EXPECT_STREQ(t.bound_by(), "sfu");
  c.bump(OpClass::Load, 1u << 26);
  t = estimate_time(c, gpu, 1.0);
  EXPECT_STREQ(t.bound_by(), "memory");
  EXPECT_GE(t.total_ns, t.fpu_ns);
  EXPECT_GE(t.total_ns, t.sfu_ns);
}

TEST(Timing, DramFractionScalesMemoryTime) {
  GpuConfig gpu = GpuConfig::gtx480();
  PerfCounters c;
  c.bump(OpClass::Load, 1u << 26);
  const auto full = estimate_time(c, gpu, 1.0);
  const auto cached = estimate_time(c, gpu, 0.25);
  EXPECT_NEAR(cached.mem_ns, full.mem_ns * 0.25, 1e-6);
}

TEST(Wattch, BreakdownComponentsSumToTotal) {
  PerfCounters c;
  c.bump(OpClass::FAdd, 1u << 22);
  c.bump(OpClass::FMul, 1u << 22);
  c.bump(OpClass::FRcp, 1u << 20);
  c.bump(OpClass::IAdd, 1u << 21);
  c.bump(OpClass::Load, 1u << 21);
  const power::SynthesisDb db;
  const auto b = estimate_power(c, GpuConfig::gtx480(), db);
  EXPECT_NEAR(b.fpu_w + b.sfu_w + b.alu_w + b.frontend_w + b.mem_w + b.static_w,
              b.total_w, 1e-9);
  EXPECT_NEAR(b.fpu_share() + b.sfu_share() + b.alu_share() +
                  (b.frontend_w + b.mem_w + b.static_w) / b.total_w,
              1.0, 1e-9);
  EXPECT_GT(b.arith_share(), 0.0);
  EXPECT_LT(b.arith_share(), 1.0);
}

TEST(Wattch, ComputeIntensiveKernelLandsInPaperBand) {
  // An op mix like HotSpot's (9 add, 5 mul, 3 rcp, 7 int, 7 mem per cell)
  // must land in the paper's FPU+SFU 27-38% band with ALU < 10%.
  PerfCounters c;
  const std::uint64_t cells = 1u << 20;
  c.bump(OpClass::FAdd, 9 * cells);
  c.bump(OpClass::FMul, 5 * cells);
  c.bump(OpClass::FRcp, 3 * cells);
  c.bump(OpClass::IAdd, 7 * cells);
  c.bump(OpClass::Load, 6 * cells);
  c.bump(OpClass::Store, 1 * cells);
  const power::SynthesisDb db;
  const auto b = estimate_power(c, GpuConfig::gtx480(), db);
  EXPECT_GT(b.arith_share(), 0.25);
  EXPECT_LT(b.arith_share(), 0.40);
  EXPECT_LT(b.alu_share(), 0.10);
}

TEST(GpuConfig, Gtx480Throughputs) {
  const auto g = GpuConfig::gtx480();
  EXPECT_EQ(g.num_sm, 15);
  EXPECT_NEAR(g.fpu_ops_per_ns(), 15 * 32 * 1.4, 1e-9);
  EXPECT_NEAR(g.sfu_ops_per_ns(), 15 * 4 * 1.4, 1e-9);
  EXPECT_GT(g.fpu_ops_per_ns() / g.sfu_ops_per_ns(), 7.9);
}

}  // namespace
}  // namespace ihw::gpu
