// SIMD backend <-> scalar reference bit-identity (DESIGN.md §15): the
// dispatcher's detection/force/clamp semantics, exhaustive 16-bit-pattern
// cross-checks and randomized fuzz pinning every hand-vectorized kernel to
// the scalar reference loop (including NaN/Inf/signed-zero/subnormal
// operands and remainder-tail lanes), the irsqrt/isqrt kernels against the
// scalar units over every fraction of ten exponent fields, fault-injection
// op-index parity through GuardedDispatch::*_n per backend, and end-to-end
// app byte-identity across ISA levels and thread counts. Each non-scalar
// case skips cleanly on hosts that cannot execute its ISA, and the CTest
// suite re-runs this binary (and test_batch) under IHW_FORCE_ISA for every
// level.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "apps/hotspot.h"
#include "bit_patterns.h"
#include "fault/guarded_dispatch.h"
#include "gpu/context.h"
#include "ihw/batch.h"
#include "ihw/dispatch.h"
#include "ihw/ifp_add.h"
#include "ihw/simd/isa.h"
#include "runtime/parallel.h"

namespace ihw {
namespace {

using fault::FaultConfig;
using fault::GuardedDispatch;
using gpu::FpContext;
using gpu::ScopedContext;
using simd::IsaLevel;
using simd::ScopedIsa;

const IsaLevel kVectorLevels[] = {IsaLevel::kAvx2, IsaLevel::kAvx512};

bool same_bits(float a, float b) {
  std::uint32_t x, y;
  std::memcpy(&x, &a, sizeof(float));
  std::memcpy(&y, &b, sizeof(float));
  return x == y;
}

void expect_span_matches(const char* what, const char* isa,
                         const std::vector<float>& got,
                         const std::vector<float>& want,
                         const std::vector<float>& a,
                         const std::vector<float>& b) {
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_TRUE(same_bits(got[i], want[i]))
        << what << " [" << isa << "] diverges at " << i << ": a=" << a[i]
        << " b=" << (i < b.size() ? b[i] : 0.0f) << " got " << got[i]
        << " want " << want[i] << " (bits got=" << fp::to_bits(got[i])
        << " want=" << fp::to_bits(want[i]) << ")";
}

/// check(what, run): `run(out)` fills an output span once under the
/// forced-scalar table and once under `level`, and the two must match bit
/// for bit (a and b label a mismatch).
struct LevelCheck {
  IsaLevel level;
  const std::vector<float>& a;
  const std::vector<float>& b;
  std::vector<float> got = std::vector<float>(a.size());
  std::vector<float> want = std::vector<float>(a.size());

  template <class Run>
  void operator()(const char* what, Run&& run) {
    {
      ScopedIsa scalar(IsaLevel::kScalar);
      run(want.data());
    }
    {
      ScopedIsa forced(level);
      ASSERT_EQ(simd::isa_active(), level);
      run(got.data());
    }
    expect_span_matches(what, simd::isa_name(level), got, want, a, b);
  }
};

/// Runs every dispatched float unit once per (a, b) operand set under
/// `level`, with forced-scalar reference runs of the same span wrappers.
/// Exercises the whole wrapper (clamping, keep-mask computation, dispatch)
/// rather than the lane in isolation.
void cross_check_units(IsaLevel level, const std::vector<float>& a,
                       const std::vector<float>& b) {
  const std::size_t n = a.size();
  LevelCheck check{level, a, b};

  for (int th : {1, 8, 22, 23, 27}) {
    check("ifp_add_n", [&](float* out) {
      batch::ifp_add_n(a.data(), b.data(), out, n, th);
    });
    check("ifp_sub_n", [&](float* out) {
      batch::ifp_sub_n(a.data(), b.data(), out, n, th);
    });
  }
  check("ifp_mul_n",
        [&](float* out) { batch::ifp_mul_n(a.data(), b.data(), out, n); });
  for (int trunc : {0, 8, 16, 23}) {
    check("acfp_mul_n(log)", [&](float* out) {
      batch::acfp_mul_n(a.data(), b.data(), out, n, AcfpPath::Log, trunc);
    });
    check("acfp_mul_n(full)", [&](float* out) {
      batch::acfp_mul_n(a.data(), b.data(), out, n, AcfpPath::Full, trunc);
    });
    check("trunc_mul_n", [&](float* out) {
      batch::trunc_mul_n(a.data(), b.data(), out, n, trunc);
    });
  }
  check("ircp_n", [&](float* out) { batch::ircp_n(a.data(), out, n); });
  check("irsqrt_n", [&](float* out) { batch::irsqrt_n(a.data(), out, n); });
  check("isqrt_n", [&](float* out) { batch::isqrt_n(a.data(), out, n); });

  // Fused multiply-accumulate: the addend is b reversed, so every a*b class
  // meets a different c class. Each kernel runs once into a separate span
  // and once in place (out aliasing c, the GEMM tile accumulate).
  const std::vector<float> c(b.rbegin(), b.rend());
  const auto check_mac = [&](const char* what, auto&& mac) {
    check(what, [&](float* out) { mac(c.data(), out); });
    check(what, [&](float* out) {
      std::copy(c.begin(), c.end(), out);
      mac(out, out);
    });
  };
  for (int th : {0, 1, 8, 22, 27}) {
    for (int acc_trunc : {0, 13}) {
      check_mac("ifp_mac_n", [&](const float* cc, float* out) {
        batch::ifp_mac_n(a.data(), b.data(), cc, out, n, th, acc_trunc);
      });
      check_mac("acfp_mac_n(log)", [&](const float* cc, float* out) {
        batch::acfp_mac_n(a.data(), b.data(), cc, out, n, AcfpPath::Log, 8,
                          th, acc_trunc);
      });
      check_mac("acfp_mac_n(full)", [&](const float* cc, float* out) {
        batch::acfp_mac_n(a.data(), b.data(), cc, out, n, AcfpPath::Full, 8,
                          th, acc_trunc);
      });
      check_mac("trunc_mac_n", [&](const float* cc, float* out) {
        batch::trunc_mac_n(a.data(), b.data(), cc, out, n, 16, th, acc_trunc);
      });
    }
  }
}

// --- dispatcher semantics ----------------------------------------------------

TEST(SimdDispatch, NamesAndParsing) {
  EXPECT_STREQ(simd::isa_name(IsaLevel::kScalar), "scalar");
  EXPECT_STREQ(simd::isa_name(IsaLevel::kAvx2), "avx2");
  EXPECT_STREQ(simd::isa_name(IsaLevel::kAvx512), "avx512");
  IsaLevel l = IsaLevel::kScalar;
  EXPECT_TRUE(simd::isa_parse("avx2", &l));
  EXPECT_EQ(l, IsaLevel::kAvx2);
  EXPECT_FALSE(simd::isa_parse("AVX2", &l));
  EXPECT_FALSE(simd::isa_parse("", &l));
  EXPECT_FALSE(simd::isa_parse(nullptr, &l));
  EXPECT_EQ(l, IsaLevel::kAvx2);  // untouched on failure
}

TEST(SimdDispatch, ActiveTableMatchesLevelAndScalarIsAllNull) {
  EXPECT_STREQ(simd::kernels().name, simd::isa_name(simd::isa_active()));
  ScopedIsa scalar(IsaLevel::kScalar);
  const simd::KernelTable& t = simd::kernels();
  EXPECT_STREQ(t.name, "scalar");
  EXPECT_EQ(t.ifp_add_f32, nullptr);
  EXPECT_EQ(t.ifp_mul_f32, nullptr);
  EXPECT_EQ(t.acfp_log_f32, nullptr);
  EXPECT_EQ(t.trunc_mul_f32, nullptr);
  EXPECT_EQ(t.ircp_f32, nullptr);
  EXPECT_EQ(t.ifp_mac_f32, nullptr);
  EXPECT_EQ(t.acfp_log_mac_f32, nullptr);
  EXPECT_EQ(t.trunc_mac_f32, nullptr);
  EXPECT_EQ(t.acfp_full_f32, nullptr);
  EXPECT_EQ(t.acfp_full_mac_f32, nullptr);
  EXPECT_EQ(t.irsqrt_f32, nullptr);
  EXPECT_EQ(t.isqrt_f32, nullptr);
  EXPECT_EQ(t.relax_row_f64, nullptr);
}

TEST(SimdDispatch, ForceClampsToSupportedAndRestores) {
  const IsaLevel before = simd::isa_active();
  // AVX-512 lands on itself, AVX2, or scalar depending on the host, and the
  // installed level is always executable.
  const IsaLevel got = simd::isa_force(IsaLevel::kAvx512);
  EXPECT_TRUE(simd::isa_supported(got));
  EXPECT_EQ(got, simd::isa_active());
  simd::isa_force(before);
  EXPECT_EQ(simd::isa_active(), before);
}

TEST(SimdDispatch, EnvForceIsHonored) {
  // When the CTest env variants set IHW_FORCE_ISA, first-use initialization
  // must have installed the clamped parse of it (clamping, not the raw
  // request: an avx512 force on an avx2-only host runs avx2).
  const char* env = std::getenv("IHW_FORCE_ISA");
  if (env == nullptr) GTEST_SKIP() << "IHW_FORCE_ISA not set";
  IsaLevel want = IsaLevel::kScalar;
  ASSERT_TRUE(simd::isa_parse(env, &want)) << "bad IHW_FORCE_ISA: " << env;
  if (!simd::isa_supported(want))
    EXPECT_LT(static_cast<int>(simd::isa_active()), static_cast<int>(want));
  else
    EXPECT_EQ(simd::isa_active(), want);
}

TEST(SimdDispatch, BestSupportedIsExecutableAndActiveByDefault) {
  EXPECT_TRUE(simd::isa_supported(simd::isa_best_supported()));
}

// --- exhaustive 16-bit-pattern cross-checks ----------------------------------

/// Every 16-bit pattern pair of test_operands::for_each_exhaustive_pair.
void run_exhaustive(IsaLevel level) {
  if (!simd::isa_supported(level))
    GTEST_SKIP() << simd::isa_name(level) << " not supported on this host";
  test_operands::for_each_exhaustive_pair<float>(
      [&](const std::vector<float>& a, const std::vector<float>& b) {
        cross_check_units(level, a, b);
        return !::testing::Test::HasFatalFailure();
      });
}

TEST(SimdExhaustive, Avx2) { run_exhaustive(IsaLevel::kAvx2); }
TEST(SimdExhaustive, Avx512) { run_exhaustive(IsaLevel::kAvx512); }

// --- randomized fuzz (specials mixed in, every tail length) ------------------

void run_fuzz(IsaLevel level) {
  if (!simd::isa_supported(level))
    GTEST_SKIP() << simd::isa_name(level) << " not supported on this host";
  // Spans shorter than, equal to, and just off the vector width exercise the
  // remainder tails; the large spans exercise steady-state lanes.
  std::uint64_t seed = 1000 + 17 * static_cast<std::uint64_t>(level);
  for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{8},
                        std::size_t{9}, std::size_t{15}, std::size_t{16},
                        std::size_t{17}, std::size_t{31}, std::size_t{33},
                        std::size_t{4096}, std::size_t{20011}}) {
    cross_check_units(level, test_operands::fuzz_operands<float>(n, seed),
                      test_operands::fuzz_operands<float>(n, seed + 1));
    if (::testing::Test::HasFatalFailure()) return;
    seed += 2;
  }
}

TEST(SimdFuzz, Avx2) { run_fuzz(IsaLevel::kAvx2); }
TEST(SimdFuzz, Avx512) { run_fuzz(IsaLevel::kAvx512); }

// --- the adder kernel, one lane at a time -----------------------------------

/// Lanes in the widest vector (AVX-512); an AVX2 vector is half a block.
constexpr std::size_t kBlock = 16;

/// Random normal float: the exponent field drawn from [lo, hi], any sign and
/// fraction.
float random_normal(std::mt19937_64& rng, std::uint32_t lo, std::uint32_t hi) {
  const auto e = lo + static_cast<std::uint32_t>(rng() % (hi - lo + 1));
  return fp::from_bits<float>((static_cast<std::uint32_t>(rng()) &
                               0x807FFFFFu) | (e << 23));
}

/// Each (a, b) pair alone in a kBlock-lane block, once at every lane
/// position: the other lanes hold random normal pairs with exponent fields
/// of at least `lo`, so every vector of either width has at most that one
/// lane off the adder's normal path (for th < lo, off its fast path).
std::pair<std::vector<float>, std::vector<float>> one_pair_per_block(
    const std::vector<std::pair<float, float>>& pairs, std::uint64_t seed,
    std::uint32_t lo = 1) {
  std::mt19937_64 rng(seed);
  std::pair<std::vector<float>, std::vector<float>> spans;
  for (const auto& [x, y] : pairs) {
    for (std::size_t k = 0; k < kBlock; ++k) {
      for (std::size_t i = 0; i < kBlock; ++i) {
        spans.first.push_back(i == k ? x : random_normal(rng, lo, 254));
        spans.second.push_back(i == k ? y : random_normal(rng, lo, 254));
      }
    }
  }
  return spans;
}

/// ifp_add_n, ifp_sub_n and ifp_mac_n (a * 1 + b: the product is a with its
/// subnormals flushed) under every supported SIMD level, each against the
/// forced-scalar lane loop.
void cross_check_adder(const std::vector<float>& a,
                       const std::vector<float>& b,
                       std::initializer_list<int> ths) {
  const std::size_t n = a.size();
  const std::vector<float> ones(n, 1.0f);
  bool ran = false;
  for (IsaLevel level : kVectorLevels) {
    if (!simd::isa_supported(level)) continue;
    ran = true;
    LevelCheck check{level, a, b};
    for (int th : ths) {
      check("ifp_add_n", [&](float* out) {
        batch::ifp_add_n(a.data(), b.data(), out, n, th);
      });
      check("ifp_sub_n", [&](float* out) {
        batch::ifp_sub_n(a.data(), b.data(), out, n, th);
      });
      check("ifp_mac_n", [&](float* out) {
        batch::ifp_mac_n(a.data(), ones.data(), b.data(), out, n, th, 0);
      });
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  if (!ran) GTEST_SKIP() << "no SIMD level supported on this host";
}

/// Every class of a against every class of b -- +-0, +-subnormal, +-inf,
/// quiet and signalling NaN, and normals, the tiny ones (exponent fields
/// 1..30) among them, which the TH datapath would add to a zero or a
/// subnormal instead of passing through -- alone in a vector at every lane
/// position. Pins the whole-vector early-out of the special-value chain:
/// a vector that skipped it would return the datapath's bits in that lane.
TEST(SimdAdder, OneSpecialLanePerVector) {
  std::mt19937_64 rng(7);
  const auto bits = [](std::uint32_t u) { return fp::from_bits<float>(u); };
  std::vector<float> cls = {bits(0), bits(0x80000000u), bits(0x00000001u),
                            bits(0x80400000u), bits(0x007FFFFFu),
                            bits(0x7F800000u), bits(0xFF800000u),
                            bits(0x7FC00000u), bits(0xFFC00001u),
                            bits(0x7F800001u), bits(0xFFA00000u)};
  const std::size_t n_special = cls.size();
  for (int i = 0; i < 6; ++i) cls.push_back(random_normal(rng, 1, 30));
  for (int i = 0; i < 2; ++i) cls.push_back(random_normal(rng, 1, 254));
  std::vector<std::pair<float, float>> pairs;
  for (std::size_t i = 0; i < cls.size(); ++i)
    for (std::size_t j = 0; j < cls.size(); ++j)
      if (i < n_special || j < n_special) pairs.emplace_back(cls[i], cls[j]);
  const auto [a, b] = one_pair_per_block(pairs, 8);
  cross_check_adder(a, b, {1, 8, 23, 24, 27});
}

/// Operand pairs at the edges of the narrowing step, each alone among
/// normal lanes at every lane position, so they run on the early-out path:
/// a cut sum truncated to just below 2^128 and one that reaches 2^128,
/// exact cancellation, sums below 2^-126, and equal or near exponents at
/// th = 24..27, where the cut's shift count is clamped at zero. The scalar
/// unit's value is pinned too where the case has one.
TEST(SimdAdder, NarrowingBoundaries) {
  const auto bits = [](std::uint32_t u) { return fp::from_bits<float>(u); };
  const float max = bits(0x7F7FFFFFu), inf = bits(0x7F800000u);
  // (2^24 - 1) 2^104 + 2^103 cuts to max at th = 27; round-to-nearest
  // would give inf.
  EXPECT_TRUE(same_bits(ifp_add(max, 0x1p103f, 27), max));
  EXPECT_TRUE(same_bits(ifp_add(-max, -0x1p103f, 27), -max));
  EXPECT_TRUE(same_bits(ifp_add(max, 0x1p104f, 27), inf));
  EXPECT_TRUE(same_bits(ifp_add(-0x1.8p127f, -0x1.8p127f, 8), -inf));
  EXPECT_TRUE(same_bits(ifp_add(-1.75f, 1.75f, 8), 0.0f));
  EXPECT_TRUE(same_bits(ifp_add(0x1.8p-126f, -0x1.4p-126f, 23), 0.0f));
  EXPECT_TRUE(same_bits(ifp_add(-0x1.8p-126f, 0x1.4p-126f, 23), -0.0f));

  std::mt19937_64 rng(11);
  std::vector<std::pair<float, float>> pairs = {
      {max, 0x1p103f},      {-max, -0x1p103f},   {max, 0x1p104f},
      {-max, -0x1p104f},    {max, max},          {0x1.8p127f, 0x1.8p127f},
      {0x1p127f, 0x1.fffffep126f}, {0x1p-126f, -0x1p-126f},
      {0x1.8p-126f, -0x1.4p-126f}, {-0x1.8p-126f, 0x1.4p-126f},
      {0x1.000002p-126f, -0x1p-126f}, {-0x1p-125f, 0x1.fffffep-126f}};
  for (int i = 0; i < 64; ++i) {
    // Exact cancellation, every exponent field.
    const float x = random_normal(rng, 1, 254);
    pairs.emplace_back(x, -x);
    // Sums under 2^-126: two smallest-field normals of opposite signs.
    const float y = random_normal(rng, 1, 1);
    pairs.emplace_back(y, std::copysign(random_normal(rng, 1, 1), -y));
    // Equal exponent fields, then fields up to 3 apart.
    const auto e = static_cast<std::uint32_t>(1 + rng() % 250);
    pairs.emplace_back(random_normal(rng, e, e), random_normal(rng, e, e));
    pairs.emplace_back(random_normal(rng, e, e),
                       random_normal(rng, e + 1, e + 3));
  }
  const auto [a, b] = one_pair_per_block(pairs, 12);
  cross_check_adder(a, b, {1, 8, 23, 24, 25, 26, 27});
}

/// Operand pairs with both exponent fields in [1, th + 2] whose exact cut
/// sum -- each operand truncated to a multiple of 2^(E-th), E the larger
/// operand's exponent -- is subnormal, exactly 2^-126 or zero, each alone
/// among lanes with fields >= 30 at every lane position. Only the lanes
/// with min(ea, eb) <= th have such sums below 2^-126, so this pins the
/// bound th + 1 of the adder kernel's whole-vector fast test: a vector that
/// took the fast path with one of them would return the unflushed sum. The
/// scalar unit's value is pinned too: +-0 for a subnormal sum, the sum
/// itself at 2^-126, +0 for an exact cancellation.
TEST(SimdAdder, TinyExponentSums) {
  for (int th : {1, 8, 22}) {
    SCOPED_TRACE(th);
    std::mt19937_64 rng(31 + th);
    const auto cut_sum = [th](float x, float y) {
      const int e = std::max(std::ilogb(x), std::ilogb(y));
      const double u = std::ldexp(1.0, e - th);
      return std::trunc(x / u) * u + std::trunc(y / u) * u;
    };
    std::vector<std::pair<float, float>> pairs;
    int subnormal = 0, smallest = 0, zero = 0;
    while (subnormal < 24 || smallest < 4 || zero < 8) {
      // y is -x moved by a few units of the cut and by noise below it, its
      // exponent field at most one off x's.
      const auto ex = static_cast<std::uint32_t>(1 + rng() % (th + 2));
      const float x = random_normal(rng, ex, ex);
      const auto xb = fp::to_bits(x) & 0x7FFFFFFFu;
      const std::uint32_t unit = 1u << (23 - th);
      const std::uint32_t move = static_cast<std::uint32_t>(rng() % 4) * unit;
      const std::uint32_t noise = static_cast<std::uint32_t>(rng()) % unit;
      const std::uint32_t yb =
          rng() % 2 ? xb + move + noise : xb - move - noise;
      const auto ey = (yb >> 23) & 0xFFu;
      if (ey < 1 || ey > static_cast<std::uint32_t>(th) + 2) continue;
      const float y = -std::copysign(fp::from_bits<float>(yb), x);
      if (std::abs(std::ilogb(x) - std::ilogb(y)) >= th) continue;  // larger
      const double s = cut_sum(x, y);
      const float want = std::abs(s) < 0x1p-126 ? std::copysign(0.0f, s)
                                                : static_cast<float>(s);
      if (s == 0) {
        ++zero;
      } else if (std::abs(s) == 0x1p-126) {
        ++smallest;
      } else if (std::abs(s) < 0x1p-126) {
        ++subnormal;
      } else {
        continue;
      }
      EXPECT_TRUE(same_bits(ifp_add(x, y, th), want))
          << x << " + " << y << " -> " << ifp_add(x, y, th);
      pairs.emplace_back(x, y);
    }
    const auto [a, b] = one_pair_per_block(pairs, 40 + th, 30);
    cross_check_adder(a, b, {th});
  }
}

// --- the bit-truncated multiplier's carry edge ------------------------------

/// trunc_mul_n and trunc_mac_n on the multipliers' carry edge
/// (test_operands::carry_edge_operands) under every supported SIMD level,
/// each against the forced-scalar lane loop. The kernels take the product
/// from a float multiply of 1.fa x 1.fb rounded toward zero; where a
/// round-to-nearest product reaches exactly 2.0 below the carry, a kernel
/// that read the carry from that rounded product would double the result.
/// The generator's coverage of that edge is pinned too.
TEST(SimdTruncMul, CarryEdge) {
  constexpr std::size_t kMa = 4096;
  constexpr std::uint64_t kTwo = std::uint64_t{1} << 47;
  int rounds_to_two = 0, carries = 0, exact = 0;
  for (const auto& [ma, mb] :
       test_operands::carry_edge_significands(kMa, 41)) {
    const std::uint64_t p = std::uint64_t{ma} * mb;
    carries += p >= kTwo;
    exact += ma == (1u << 23) || mb == (1u << 23);
    rounds_to_two += p < kTwo && static_cast<float>(ma) * 0x1p-23f *
                                         (static_cast<float>(mb) * 0x1p-23f) ==
                                     2.0f;
  }
  EXPECT_GE(rounds_to_two, 1000);
  EXPECT_GE(carries, 4000);
  EXPECT_GE(exact, 4096);

  const auto [a, b] = test_operands::carry_edge_operands(kMa, 41);
  const std::size_t n = a.size();
  const std::vector<float> zeros(n, 0.0f), rev(b.rbegin(), b.rend());
  bool ran = false;
  for (IsaLevel level : kVectorLevels) {
    if (!simd::isa_supported(level)) continue;
    ran = true;
    LevelCheck check{level, a, b};
    for (int trunc : {0, 1, 12, 23}) {
      check("trunc_mul_n", [&](float* out) {
        batch::trunc_mul_n(a.data(), b.data(), out, n, trunc);
      });
      for (const auto* c : {&zeros, &rev})
        for (int th : {0, 1, 22, 27})
          check("trunc_mac_n", [&](float* out) {
            batch::trunc_mac_n(a.data(), b.data(), c->data(), out, n, trunc,
                               th, 0);
          });
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  if (!ran) GTEST_SKIP() << "no SIMD level supported on this host";
}

// --- the rsqrt segment over every fraction ----------------------------------

/// irsqrt_n and isqrt_n under every supported SIMD level against the scalar
/// units (not the reference loop) for every fraction of the exponent fields
/// at the ends and the middle of the range -- zero/subnormal, the smallest
/// normals, around 1.0, the largest normals, inf/NaN -- with both signs, in
/// 2^20-element spans. The scalar answers of a span are computed once and
/// every level is checked against them.
TEST(SimdRsqrtEveryFraction, EverySupportedLevel) {
  std::vector<IsaLevel> levels;
  for (IsaLevel level : kVectorLevels)
    if (simd::isa_supported(level)) levels.push_back(level);
  if (levels.empty()) GTEST_SKIP() << "no SIMD level supported on this host";
  constexpr std::uint32_t kSpan = 1u << 20;
  std::vector<float> x(kSpan), got(kSpan), want_rsqrt(kSpan), want_sqrt(kSpan);
  const auto expect_unit = [&](const char* what, IsaLevel level,
                               const std::vector<float>& want) {
    if (std::memcmp(got.data(), want.data(), kSpan * sizeof(float)) == 0)
      return true;
    for (std::uint32_t i = 0; i < kSpan; ++i) {
      if (!same_bits(got[i], want[i])) {
        ADD_FAILURE() << what << " [" << simd::isa_name(level)
                      << "] diverges at bits " << fp::to_bits(x[i])
                      << ": got " << fp::to_bits(got[i])
                      << " want " << fp::to_bits(want[i]);
        return false;
      }
    }
    return true;
  };
  for (std::uint32_t sign : {0u, 0x80000000u}) {
    for (std::uint32_t e : {0u, 1u, 2u, 125u, 126u, 127u, 128u, 253u, 254u,
                            255u}) {
      for (std::uint32_t base = 0; base < (1u << 23); base += kSpan) {
        for (std::uint32_t i = 0; i < kSpan; ++i) {
          x[i] = fp::from_bits<float>(sign | (e << 23) | (base + i));
          want_rsqrt[i] = irsqrt<float>(x[i]);
          want_sqrt[i] = isqrt<float>(x[i]);
        }
        for (IsaLevel level : levels) {
          ScopedIsa forced(level);
          batch::irsqrt_n(x.data(), got.data(), kSpan);
          if (!expect_unit("irsqrt_n", level, want_rsqrt)) return;
          batch::isqrt_n(x.data(), got.data(), kSpan);
          if (!expect_unit("isqrt_n", level, want_sqrt)) return;
        }
      }
    }
  }
}

// --- fault-injection op-index parity through GuardedDispatch -----------------

/// The screened guarded path runs the per-element scalar screen by design,
/// but the *unscreened* spans dispatch to the SIMD backends, and both paths
/// bump per-class op indices span-wise. Forcing different backends must
/// change neither the outputs nor a single fault counter.
void run_guarded_parity(IsaLevel level) {
  if (!simd::isa_supported(level))
    GTEST_SKIP() << simd::isa_name(level) << " not supported on this host";
  constexpr std::size_t kN = 20000;
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> mant(1.0, 2.0);
  std::uniform_int_distribution<int> expo(-6, 6);
  std::vector<float> a(kN), b(kN), c(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    a[i] = static_cast<float>(std::ldexp(mant(rng), expo(rng)));
    b[i] = static_cast<float>(std::ldexp(mant(rng), expo(rng)));
    c[i] = static_cast<float>(std::ldexp(mant(rng), expo(rng)));
  }

  IhwConfig cfg = IhwConfig::all_imprecise();
  cfg.faults = FaultConfig::uniform(0.05, 1234);
  cfg.guard.enabled = true;

  const auto run = [&](IsaLevel isa, std::vector<float>* m,
                       std::vector<float>* s, std::vector<float>* f,
                       std::vector<float>* r, fault::FaultCounters* counters) {
    ScopedIsa forced(isa);
    GuardedDispatch gd(cfg);
    gd.begin_epoch(3);
    gd.mul_n(a.data(), b.data(), m->data(), kN);
    gd.add_n(m->data(), c.data(), s->data(), kN);
    gd.op_n<Op::Fma>(f->data(), kN, a.data(), b.data(), c.data());
    gd.rcp_n(a.data(), r->data(), kN);
    gd.end_launch();
    *counters = gd.counters();
  };

  std::vector<float> m1(kN), s1(kN), f1(kN), r1(kN);
  std::vector<float> m2(kN), s2(kN), f2(kN), r2(kN);
  fault::FaultCounters c1, c2;
  run(IsaLevel::kScalar, &m1, &s1, &f1, &r1, &c1);
  run(level, &m2, &s2, &f2, &r2, &c2);

  const char* isa = simd::isa_name(level);
  expect_span_matches("guarded mul_n", isa, m2, m1, a, b);
  expect_span_matches("guarded add_n", isa, s2, s1, a, b);
  expect_span_matches("guarded fma_n", isa, f2, f1, a, b);
  expect_span_matches("guarded rcp_n", isa, r2, r1, a, b);
  EXPECT_GT(c1.total_injected(), 0u);
  EXPECT_EQ(c1.injected, c2.injected);
  EXPECT_EQ(c1.guard_trips, c2.guard_trips);
  EXPECT_EQ(c1.degraded_epochs, c2.degraded_epochs);
  EXPECT_EQ(c1.run_degradations, c2.run_degradations);
  EXPECT_EQ(c1.retried_epochs, c2.retried_epochs);
}

TEST(SimdGuarded, FaultParityAvx2) { run_guarded_parity(IsaLevel::kAvx2); }
TEST(SimdGuarded, FaultParityAvx512) { run_guarded_parity(IsaLevel::kAvx512); }

// --- the HotSpot relaxation row --------------------------------------------

/// The interior cells of apps::relax_row as a plain divide loop: out[i] from
/// row[i - 1 .. i + 1], north[i], south[i] and power[i].
void relax_row_reference(const double* row, const double* north,
                         const double* south, const float* power, double* out,
                         std::size_t n, const apps::RelaxModel& k) {
  for (std::size_t i = 0; i < n; ++i) {
    const double tc = row[i];
    out[i] = tc + k.sdc * (double{power[i]} +
                           (north[i] + south[i] - 2.0 * tc) / k.ry +
                           (row[i - 1] + row[i + 1] - 2.0 * tc) / k.rx +
                           (k.amb - tc) / k.rz);
  }
}

std::uint64_t bits_of(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Runs the active relax_row_f64 on the middle row of a 3 x (n + 2) field
/// and checks every interior cell against the divide loop, and that nothing
/// past the row is written.
void expect_relax_row_matches(const std::vector<double>& field,
                              const std::vector<float>& power, std::size_t n,
                              const apps::RelaxModel& k) {
  const std::size_t cols = n + 2;
  const double* row = field.data() + cols + 1;
  std::vector<double> got(n + 1, 12345.0), want(n);
  simd::kernels().relax_row_f64(row, row - cols, row + cols,
                                power.data() + cols + 1, got.data(), n, k.sdc,
                                k.amb, k.rx, k.ry, k.rz);
  relax_row_reference(row, row - cols, row + cols, power.data() + cols + 1,
                      want.data(), n, k);
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(bits_of(got[i]), bits_of(want[i]))
        << "n=" << n << " cell " << i << ": got " << got[i] << " want "
        << want[i];
  EXPECT_EQ(got[n], 12345.0) << "n=" << n << ": wrote past the row";
}

/// Every row length 1..40 (each split into whole vectors and a tail at 4
/// and 8 lanes), on a relaxed field near 316 K and on a zero-mean field
/// relaxing towards a zero ambient, where a last-bit change in any quotient
/// or a reordered sum reaches the output.
TEST(SimdRelaxRow, EveryLengthMatchesDivideLoop) {
  bool ran = false;
  for (IsaLevel level : kVectorLevels) {
    if (!simd::isa_supported(level)) continue;
    ran = true;
    ScopedIsa forced(level);
    SCOPED_TRACE(simd::isa_name(level));
    ASSERT_NE(simd::kernels().relax_row_f64, nullptr);
    for (std::size_t n = 1; n <= 40; ++n) {
      apps::HotspotParams p;
      p.rows = 3;
      p.cols = n + 2;
      p.steady_init = false;
      const auto in = apps::make_hotspot_input(p, n);
      const std::vector<float> power(in.power.begin(), in.power.end());
      expect_relax_row_matches(apps::relax_to_steady_state(p, in), power, n,
                               apps::relax_model(p));

      p.amb_temp = -236.0;
      std::mt19937_64 rng(n);
      std::uniform_real_distribution<double> temp(-50.0, 50.0);
      std::vector<double> rough(3 * p.cols);
      for (auto& v : rough) v = temp(rng);
      expect_relax_row_matches(rough, power, n, apps::relax_model(p));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  if (!ran) GTEST_SKIP() << "no SIMD level supported on this host";
}

/// The divide-free quotient against `/` on 10^7 numerators: exponents over
/// [-1000, 1000] with random significands and signs, plus signed zeros,
/// subnormals, both edges of the kernel's numerator window, the largest
/// doubles, infinities and NaNs. The divisors are rx, ry and rz of every
/// N x N, 1 x N and N x 1 grid up to 1024, and the powers of two and
/// all-ones significands from 2^-70 to 2^70 (past the divisor window at
/// both ends). With the centre row zero, south -0, power -0, ambient -0 and
/// sdc = 1, each cell's output is exactly its north / ry quotient (a zero
/// quotient reads as +0).
TEST(SimdRelaxRow, QuotientsAreExactlyRounded) {
  std::vector<double> divisors;
  for (std::size_t n = 1; n <= 1024; ++n)
    for (const auto& [rows, cols] :
         {std::pair{n, n}, std::pair{std::size_t{1}, n},
          std::pair{n, std::size_t{1}}}) {
      apps::HotspotParams p;
      p.rows = rows;
      p.cols = cols;
      const apps::RelaxModel k = apps::relax_model(p);
      divisors.insert(divisors.end(), {k.rx, k.ry, k.rz});
    }
  for (int e = -70; e <= 70; ++e)
    divisors.insert(divisors.end(), {std::ldexp(1.0, e),
                                     std::ldexp(2.0 - 0x1p-52, e)});
  std::sort(divisors.begin(), divisors.end());
  divisors.erase(std::unique(divisors.begin(), divisors.end()), divisors.end());

  const double specials[] = {
      0.0, -0.0, 0x1p-1074, -0x1p-1074, 0x1p-1022 - 0x1p-1074, 0x1p-1022,
      0x1p-960, std::nextafter(0x1p-960, 0.0), 0x1p960,
      std::nextafter(0x1p960, 0.0), -0x1p960, 0x1p1023, 0x1.fffffffffffffp1023,
      -0x1.fffffffffffffp1023, HUGE_VAL, -HUGE_VAL, std::nan(""),
      -std::nan("")};
  constexpr std::size_t kPerDivisor = 2560;
  ASSERT_GE(divisors.size() * kPerDivisor, std::size_t{10'000'000});

  bool ran = false;
  for (IsaLevel level : kVectorLevels) {
    if (!simd::isa_supported(level)) continue;
    ran = true;
    ScopedIsa forced(level);
    SCOPED_TRACE(simd::isa_name(level));
    const auto kernel = simd::kernels().relax_row_f64;
    ASSERT_NE(kernel, nullptr);
    std::mt19937_64 rng(99);
    std::vector<double> row(kPerDivisor + 2, 0.0), south(kPerDivisor, -0.0);
    std::vector<double> a(kPerDivisor), got(kPerDivisor), want(kPerDivisor);
    const std::vector<float> power(kPerDivisor, -0.0f);
    for (double d : divisors) {
      std::size_t i = 0;
      for (double x : specials) a[i++] = x;
      for (; i < kPerDivisor; ++i) {
        const std::uint64_t r = rng();
        // Exponent fields 23..2023: exponents -1000..1000.
        const auto biased = static_cast<std::uint64_t>(23 + r % 2001);
        // One draw in 32 is a subnormal (exponent field 0).
        const std::uint64_t field = (r >> 11) % 32 == 0 ? 0 : biased;
        a[i] = std::bit_cast<double>((rng() & 0x800FFFFFFFFFFFFFull) |
                                     (field << 52));
      }
      const apps::RelaxModel k{1.0, -0.0, 1.0, d, 1.0};
      kernel(row.data() + 1, a.data(), south.data(), power.data(), got.data(),
             kPerDivisor, k.sdc, k.amb, k.rx, k.ry, k.rz);
      relax_row_reference(row.data() + 1, a.data(), south.data(), power.data(),
                          want.data(), kPerDivisor, k);
      for (std::size_t j = 0; j < kPerDivisor; ++j) {
        const double q = a[j] / d;
        ASSERT_EQ(bits_of(got[j]), bits_of(want[j]))
            << a[j] << " / " << d << ": got " << got[j] << " want " << q;
        if (q != 0.0 && !std::isnan(q)) {
          ASSERT_EQ(bits_of(got[j]), bits_of(q)) << a[j] << " / " << d;
        }
      }
    }
  }
  if (!ran) GTEST_SKIP() << "no SIMD level supported on this host";
}

// --- end-to-end app byte-identity across ISA x threads -----------------------

TEST(SimdApps, HotspotIdenticalAcrossIsaAndThreads) {
  apps::HotspotParams p;
  p.rows = 48;
  p.cols = 40;
  p.iterations = 3;
  p.steady_init = false;
  const auto input = apps::make_hotspot_input(p, 7);
  const IhwConfig cfg = IhwConfig::all_imprecise();

  common::GridF ref;
  gpu::PerfCounters ref_counters;
  {
    ScopedIsa scalar(IsaLevel::kScalar);
    runtime::ScopedThreads one(1);
    FpContext ctx(cfg);
    ScopedContext active(ctx);
    ref = apps::run_hotspot_batched(p, input);
    ref_counters = ctx.counters();
  }

  for (IsaLevel level : kVectorLevels) {
    if (!simd::isa_supported(level)) continue;
    for (int threads : {1, 2, 4}) {
      ScopedIsa forced(level);
      runtime::ScopedThreads t(threads);
      FpContext ctx(cfg);
      common::GridF got;
      {
        ScopedContext active(ctx);
        got = apps::run_hotspot_batched(p, input);
      }
      ASSERT_EQ(got.size(), ref.size());
      for (std::size_t i = 0; i < ref.size(); ++i)
        ASSERT_TRUE(same_bits(ref.data()[i], got.data()[i]))
            << "hotspot grid diverges at " << i << " under "
            << simd::isa_name(level) << " threads=" << threads;
      EXPECT_EQ(ctx.counters().counts, ref_counters.counts)
          << simd::isa_name(level) << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace ihw
