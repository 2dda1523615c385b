// Tests for the structural datapath primitives, plus the bit-exact
// cross-verification of the functional models against the structural unit
// models, their oracle (the Fig. 11 "functional verification" step of the
// paper's flow), over every 16-bit operand pattern and the IEEE specials.
#include "arith/datapath.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "arith/mitchell.h"
#include "bit_patterns.h"
#include "common/rng.h"
#include "ihw/acfp_mul.h"
#include "ihw/ifp_add.h"
#include "ihw/ifp_mul.h"
#include "ihw/lanes.h"
#include "ihw/trunc_mul.h"

namespace ihw::arith {
namespace {

TEST(PriorityEncoder, FindsLeadingOneWithinWidth) {
  EXPECT_EQ(priority_encode(0, 16), -1);
  EXPECT_EQ(priority_encode(1, 16), 0);
  EXPECT_EQ(priority_encode(0b1010, 16), 3);
  EXPECT_EQ(priority_encode(0xFFFF, 16), 15);
  // Bits above the width are masked off, as in hardware.
  EXPECT_EQ(priority_encode(0x10000, 16), -1);
  EXPECT_EQ(priority_encode(0x1F000, 16), 15);  // 0xF000 remains
  EXPECT_EQ(priority_encode(0x11000, 16), 12);
}

TEST(BarrelShifter, RightShiftSaturatesAtWidth) {
  EXPECT_EQ(barrel_shift_right(0xFF, 4, 8), 0xFull);
  EXPECT_EQ(barrel_shift_right(0xFF, 8, 8), 0ull);
  EXPECT_EQ(barrel_shift_right(0xFF, 100, 8), 0ull);
  EXPECT_EQ(barrel_shift_right(0x1FF, 0, 8), 0xFFull);  // masked to width
}

TEST(BarrelShifter, LeftShiftTruncatesToWidth) {
  EXPECT_EQ(barrel_shift_left(0b1011, 2, 6), 0b101100ull & 0x3F);
  EXPECT_EQ(barrel_shift_left(0xFF, 4, 8), 0xF0ull);
  EXPECT_EQ(barrel_shift_left(1, 7, 8), 0x80ull);
  EXPECT_EQ(barrel_shift_left(1, 8, 8), 0ull);
}

TEST(BarrelShifter, NegativeShiftsReverseDirection) {
  EXPECT_EQ(barrel_shift_right(0x0F, -4, 8), 0xF0ull);
  EXPECT_EQ(barrel_shift_left(0xF0, -4, 8), 0x0Full);
}

TEST(AdderN, SumAndCarryOut) {
  auto r = add_n(0xFF, 0x01, false, 8);
  EXPECT_EQ(r.sum, 0ull);
  EXPECT_TRUE(r.carry_out);
  r = add_n(0x7F, 0x01, false, 8);
  EXPECT_EQ(r.sum, 0x80ull);
  EXPECT_FALSE(r.carry_out);
  r = add_n(0xFE, 0x01, true, 8);
  EXPECT_EQ(r.sum, 0ull);
  EXPECT_TRUE(r.carry_out);
}

TEST(AdderN, TwosComplementSubtraction) {
  // a - b via a + ~b + 1 within the width.
  const int w = 12;
  common::Xoshiro256 rng(7);
  for (int i = 0; i < 50000; ++i) {
    const std::uint64_t a = rng() & 0xFFF;
    const std::uint64_t b = rng() & 0xFFF;
    if (b > a) continue;
    const auto r = add_n(a, ~b & 0xFFF, true, w);
    EXPECT_EQ(r.sum, a - b);
  }
}

TEST(ArrayMultiplier, ExactWithoutTruncation) {
  common::Xoshiro256 rng(8);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t a = rng() >> 40;
    const std::uint64_t b = rng() >> 40;
    EXPECT_EQ(array_multiply(a, b, 24, 24, 0), exact_mul(a, b));
  }
}

TEST(ArrayMultiplier, ColumnTruncationUnderestimatesBoundedly) {
  common::Xoshiro256 rng(9);
  for (int drop : {4, 8, 16, 24}) {
    // Worst dropped mass: sum over columns s < drop of (s+1) cells at 2^s.
    unsigned __int128 worst = 0;
    for (int s = 0; s < drop; ++s)
      worst += static_cast<unsigned __int128>(std::min(s + 1, 24)) << s;
    for (int i = 0; i < 20000; ++i) {
      const std::uint64_t a = rng() >> 40;
      const std::uint64_t b = rng() >> 40;
      const auto exact = exact_mul(a, b);
      const auto approx = array_multiply(a, b, 24, 24, drop);
      ASSERT_LE(approx, exact);
      ASSERT_LE(exact - approx, worst);
    }
  }
}

TEST(ArrayMultiplier, FormsExactlyTheCellsAtOrAboveTheDropColumn) {
  // Every 6 x 5-bit operand pair against the cell-by-cell sum.
  for (int drop = 0; drop <= 10; ++drop) {
    for (std::uint64_t a = 0; a < 64; ++a) {
      for (std::uint64_t b = 0; b < 32; ++b) {
        unsigned __int128 cells = 0;
        for (int i = 0; i < 6; ++i)
          for (int j = 0; j < 5; ++j)
            if (((a >> i) & (b >> j) & 1ull) && i + j >= drop)
              cells += static_cast<unsigned __int128>(1) << (i + j);
        ASSERT_EQ(array_multiply(a, b, 6, 5, drop), cells)
            << "a=" << a << " b=" << b << " drop=" << drop;
      }
    }
  }
}

TEST(ArrayMultiplier, CellCountMatchesClosedForm) {
  EXPECT_EQ(array_cell_count(24, 24, 0), 576);
  EXPECT_EQ(array_cell_count(53, 53, 0), 2809);
  // Dropping below column c removes sum_{s<c} (cells in column s).
  EXPECT_EQ(array_cell_count(24, 24, 1), 575);
  EXPECT_EQ(array_cell_count(24, 24, 2), 573);
  EXPECT_EQ(array_cell_count(24, 24, 47), 0);
  long long manual = 0;
  for (int s = 21; s <= 46; ++s)
    manual += std::min({s + 1, 24, 47 - s});
  EXPECT_EQ(array_cell_count(24, 24, 21), manual);
}

// ---------------------------------------------------------------------------
// Structural vs functional cross-verification (the paper's VHDL-vs-C++ step).
// ---------------------------------------------------------------------------

/// False, with one failure recorded, at the first pair (a[i], b[i]) where
/// `unit` (the functional model) and `oracle` disagree.
template <typename T, typename Unit, typename Oracle>
bool matches_on(const char* what, Unit unit, Oracle oracle,
                const std::vector<T>& a, const std::vector<T>& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    const T f = unit(a[i], b[i]);
    const T s = oracle(a[i], b[i]);
    if (fp::to_bits(f) != fp::to_bits(s)) {
      ADD_FAILURE() << what << ": a=0x" << std::hex << fp::to_bits(a[i])
                    << " b=0x" << fp::to_bits(b[i]) << " unit=0x"
                    << fp::to_bits(f) << " oracle=0x" << fp::to_bits(s);
      return false;
    }
  }
  return true;
}

/// Every operand pair of the shared sets: the exhaustive 16-bit patterns
/// and the grid of IEEE special values. `unit` is the functional model
/// (the scalar unit), `oracle` the structural mirror.
template <typename T, typename Unit, typename Oracle>
void expect_unit_matches(const char* what, Unit unit, Oracle oracle) {
  test_operands::for_each_exhaustive_pair<T>(
      [&](const std::vector<T>& a, const std::vector<T>& b) {
        return matches_on<T>(what, unit, oracle, a, b);
      });
  const auto [sa, sb] = test_operands::special_grid<T>();
  matches_on<T>(what, unit, oracle, sa, sb);
}

template <typename T>
void adder_matches(int th) {
  SCOPED_TRACE(th);
  expect_unit_matches<T>(
      "ifp_add", [&](T a, T b) { return ihw::ifp_add(a, b, th); },
      [&](T a, T b) { return structural_ifp_add(a, b, th); });
  expect_unit_matches<T>(
      "ifp_sub", [&](T a, T b) { return ihw::ifp_sub(a, b, th); },
      [&](T a, T b) { return structural_ifp_add(a, b, th, /*subtract=*/true); });
}

TEST(StructuralAdderMatch, Float) {
  for (int th : {1, 2, 4, 8, 12, 16, 20, 22, 23, 27})
    adder_matches<float>(th);
}

TEST(StructuralAdderMatch, Double) {
  for (int th : {1, 4, 8, 16, 23, 33, 45, 50, 51, 52, 56})
    adder_matches<double>(th);
}

/// IEEE-754 sum-of-zeros sign, subnormals flushed first: -0 only when both
/// addends are -0.
template <typename T>
void adder_signed_zeros() {
  const T dn = std::numeric_limits<T>::denorm_min();
  const struct {
    T a, b;
    bool subtract;
    T want;
  } cases[] = {
      {T(-0.0), T(-0.0), false, T(-0.0)}, {T(-0.0), -dn, false, T(-0.0)},
      {-dn, -dn, false, T(-0.0)},         {T(-0.0), T(0.0), true, T(-0.0)},
      {T(-0.0), T(0.0), false, T(0.0)},   {T(0.0), T(-0.0), false, T(0.0)},
      {T(-0.0), dn, false, T(0.0)},       {T(0.0), T(0.0), true, T(0.0)},
  };
  for (const auto& c : cases) {
    for (int th : {1, 8, 27}) {
      const T s = structural_ifp_add(c.a, c.b, th, c.subtract);
      const T f = ihw::ifp_add(c.a, c.b, th, c.subtract);
      EXPECT_EQ(fp::to_bits(s), fp::to_bits(c.want))
          << c.a << (c.subtract ? " - " : " + ") << c.b << " th=" << th;
      EXPECT_EQ(fp::to_bits(f), fp::to_bits(c.want))
          << c.a << (c.subtract ? " - " : " + ") << c.b << " th=" << th;
    }
  }
}

TEST(StructuralAdderMatch, SignedZerosFloat) { adder_signed_zeros<float>(); }
TEST(StructuralAdderMatch, SignedZerosDouble) { adder_signed_zeros<double>(); }

template <typename T>
void ifp_mul_matches() {
  expect_unit_matches<T>(
      "ifp_mul", [](T a, T b) { return ihw::ifp_mul(a, b); },
      [](T a, T b) { return structural_ifp_mul(a, b); });
}

TEST(StructuralIfpMulMatch, Float) { ifp_mul_matches<float>(); }
TEST(StructuralIfpMulMatch, Double) { ifp_mul_matches<double>(); }

/// Truncations from none to the whole fraction.
template <typename T>
std::vector<int> truncations() {
  constexpr int FB = fp::FloatTraits<T>::frac_bits;
  return {0, 5, FB / 2, FB - 4, FB};
}

template <typename T>
void acfp_mul_matches() {
  for (int trunc : truncations<T>()) {
    SCOPED_TRACE(trunc);
    for (ihw::AcfpPath path : {ihw::AcfpPath::Log, ihw::AcfpPath::Full}) {
      expect_unit_matches<T>(
          path == ihw::AcfpPath::Log ? "acfp_mul(log)" : "acfp_mul(full)",
          [&](T a, T b) { return ihw::acfp_mul(a, b, path, trunc); },
          [&](T a, T b) { return structural_acfp_mul(a, b, path, trunc); });
    }
  }
}

TEST(StructuralAcfpMatch, Float) { acfp_mul_matches<float>(); }
TEST(StructuralAcfpMatch, Double) { acfp_mul_matches<double>(); }

template <typename T>
void trunc_mul_matches() {
  for (int trunc : truncations<T>()) {
    SCOPED_TRACE(trunc);
    expect_unit_matches<T>(
        "trunc_mul", [&](T a, T b) { return ihw::trunc_mul(a, b, trunc); },
        [&](T a, T b) { return structural_trunc_mul(a, b, trunc); });
  }
}

TEST(StructuralTruncMulMatch, Float) { trunc_mul_matches<float>(); }
TEST(StructuralTruncMulMatch, Double) { trunc_mul_matches<double>(); }

// ---------------------------------------------------------------------------
// Boundaries of the scalar units' fast path: operands built at chosen
// exponent fields (bit_patterns.h field_pairs), where the core must hand
// over to the range clamp and the special-value chain.
// ---------------------------------------------------------------------------

/// TH values at the edges of the adder's datapath, and the multipliers'
/// truncations, shared by the boundary and fast-path tests.
template <typename T>
std::vector<int> edge_ths() {
  constexpr int FB = fp::FloatTraits<T>::frac_bits;
  return {1, 8, FB - 1, FB, FB + 4};
}

template <typename T>
std::vector<int> edge_truncs() {
  return {0, fp::FloatTraits<T>::frac_bits / 2};
}

/// Every adder and multiplier unit against its structural mirror on the
/// pairs (a[i], b[i]).
template <typename T>
void expect_all_units_match(const char* what, const std::vector<T>& a,
                            const std::vector<T>& b) {
  SCOPED_TRACE(what);
  for (int th : edge_ths<T>()) {
    SCOPED_TRACE(th);
    matches_on<T>(
        "ifp_add", [&](T x, T y) { return ihw::ifp_add(x, y, th); },
        [&](T x, T y) { return structural_ifp_add(x, y, th); }, a, b);
    matches_on<T>(
        "ifp_sub", [&](T x, T y) { return ihw::ifp_sub(x, y, th); },
        [&](T x, T y) { return structural_ifp_add(x, y, th, true); }, a, b);
  }
  matches_on<T>(
      "ifp_mul", [](T x, T y) { return ihw::ifp_mul(x, y); },
      [](T x, T y) { return structural_ifp_mul(x, y); }, a, b);
  for (int tr : edge_truncs<T>()) {
    SCOPED_TRACE(tr);
    for (ihw::AcfpPath path : {ihw::AcfpPath::Log, ihw::AcfpPath::Full}) {
      matches_on<T>(
          "acfp_mul", [&](T x, T y) { return ihw::acfp_mul(x, y, path, tr); },
          [&](T x, T y) { return structural_acfp_mul(x, y, path, tr); }, a, b);
    }
    matches_on<T>(
        "trunc_mul", [&](T x, T y) { return ihw::trunc_mul(x, y, tr); },
        [&](T x, T y) { return structural_trunc_mul(x, y, tr); }, a, b);
  }
}

template <typename T>
void boundary_cases() {
  using Tr = fp::FloatTraits<T>;
  constexpr int FB = Tr::frac_bits;
  constexpr int kBias = Tr::bias;
  constexpr int kMax = static_cast<int>(Tr::exp_mask);
  const auto run = [](const char* what, const std::vector<int>& fa,
                      const std::vector<int>& fb) {
    const auto [a, b] = test_operands::field_pairs<T>(fa, fb);
    expect_all_units_match<T>(what, a, b);
  };
  // Sums at field emax-1 whose carry reaches 2^(emax+1-bias) give +-inf;
  // products land at fields emax-2 .. emax before or after their carry.
  run("overflow", {kMax - 1}, {kMax - 2, kMax - 1, kBias - 1, kBias, kBias + 1});
  // Differences of operands at fields 1 and 2 fall below 2^(1-bias) and
  // flush to the larger operand's signed zero; products land at fields
  // 0 .. 2 before or after their carry.
  run("underflow", {1, 2}, {1, 2, kBias - 2, kBias - 1, kBias});
  // Equal fields: equal fractions of opposite sign cancel exactly, and the
  // fraction pairs 0/1, half/half+1 and all-ones/all-ones-1 nearly.
  run("cancellation", {kBias}, {kBias});
  // Exponent gaps d in {TH-1, TH} for TH in {FB-1, FB, FB+4}: the smaller
  // operand's last surviving bit, then the whole operand, drops out.
  run("th x d", {kBias + 8},
      {kBias + 8 - (FB - 2), kBias + 8 - (FB - 1), kBias + 8 - FB,
       kBias + 8 - (FB + 3), kBias + 8 - (FB + 4)});
  // Fields 1 and emax-1 are inside the fast path, 0 and emax outside.
  run("guard", {0, 1, kMax - 1, kMax}, {0, 1, 2, kBias, kMax - 1, kMax});
}

TEST(StructuralBoundaries, Float) { boundary_cases<float>(); }
TEST(StructuralBoundaries, Double) { boundary_cases<double>(); }

/// Each scalar unit against its own lane (lanes.h), the full select chain,
/// over exponent fields {0, 1, 2, bias, emax-1, emax} on both operands: the
/// fast-path test admits exactly the pairs whose core is the lane's result.
template <typename T>
void scalar_units_are_their_lanes() {
  using Tr = fp::FloatTraits<T>;
  using B = fp::BitsOf<T>;
  constexpr int kMax = static_cast<int>(Tr::exp_mask);
  const std::vector<int> fields = {0, 1, 2, Tr::bias, kMax - 1, kMax};
  const auto [a, b] = test_operands::field_pairs<T>(fields, fields);
  const auto lane = [](auto f) {
    return [f](T x, T y) {
      return fp::from_bits<T>(f(fp::to_bits(x), fp::to_bits(y)));
    };
  };
  for (int th : edge_ths<T>()) {
    SCOPED_TRACE(th);
    const int t = ihw::lanes::add_th<T>(th);
    matches_on<T>(
        "ifp_add", [&](T x, T y) { return ihw::ifp_add(x, y, th); },
        lane([&](B x, B y) { return ihw::lanes::ifp_add_lane<T>(x, y, t); }),
        a, b);
    matches_on<T>(
        "ifp_sub", [&](T x, T y) { return ihw::ifp_sub(x, y, th); },
        lane([&](B x, B y) {
          return ihw::lanes::ifp_add_lane<T>(x, y ^ Tr::sign_mask, t);
        }),
        a, b);
  }
  matches_on<T>(
      "ifp_mul", [](T x, T y) { return ihw::ifp_mul(x, y); },
      lane([](B x, B y) { return ihw::lanes::ifp_mul_lane<T>(x, y); }), a, b);
  for (int tr : edge_truncs<T>()) {
    SCOPED_TRACE(tr);
    const B keep = ihw::lanes::frac_keep<T>(tr);
    matches_on<T>(
        "acfp_mul(log)",
        [&](T x, T y) { return ihw::acfp_mul(x, y, ihw::AcfpPath::Log, tr); },
        lane([&](B x, B y) { return ihw::lanes::acfp_log_lane<T>(x, y, keep); }),
        a, b);
    matches_on<T>(
        "acfp_mul(full)",
        [&](T x, T y) { return ihw::acfp_mul(x, y, ihw::AcfpPath::Full, tr); },
        lane([&](B x, B y) { return ihw::lanes::acfp_full_lane<T>(x, y, keep); }),
        a, b);
    matches_on<T>(
        "trunc_mul", [&](T x, T y) { return ihw::trunc_mul(x, y, tr); },
        lane([&](B x, B y) { return ihw::lanes::trunc_mul_lane<T>(x, y, keep); }),
        a, b);
  }
}

TEST(FastPath, ScalarUnitsAreTheirLanesFloat) {
  scalar_units_are_their_lanes<float>();
}
TEST(FastPath, ScalarUnitsAreTheirLanesDouble) {
  scalar_units_are_their_lanes<double>();
}

}  // namespace
}  // namespace ihw::arith
