#pragma once
// Structural (stage-by-stage) datapath models of the proposed units, built
// from explicit hardware primitives: priority encoder, barrel shifter,
// width-masked adders, and an array multiplier with column truncation.
// These mirror the VHDL models of Fig. 11 and are the oracle the test suite
// checks the functional models in src/ihw against, bit-exactly.
#include <cstdint>

#include "ihw/acfp_mul.h"

namespace ihw::arith {

/// Priority encoder: position of the most-significant set bit within
/// `width` bits, or -1 when the masked input is zero.
int priority_encode(std::uint64_t v, int width);

/// Barrel shifter: logical right shift within `width` bits; shifts >= width
/// return 0 (as the hardware shifter saturates).
std::uint64_t barrel_shift_right(std::uint64_t v, int shift, int width);

/// Barrel shifter: logical left shift within `width` bits (excess truncated).
std::uint64_t barrel_shift_left(std::uint64_t v, int shift, int width);

/// n-bit adder with carry-in; result masked to n bits, carry-out reported.
struct AdderResult {
  std::uint64_t sum;
  bool carry_out;
};
AdderResult add_n(std::uint64_t a, std::uint64_t b, bool cin, int width);

/// Unsigned array multiplier with column truncation: partial products
/// a_i * b_j with (i + j) < drop_columns are not formed. drop_columns = 0
/// gives the exact product. Models the truncated-multiplication-matrix
/// designs of Wires et al.
unsigned __int128 array_multiply(std::uint64_t a, std::uint64_t b, int n_bits,
                                 int m_bits, int drop_columns);

/// Number of partial-product cells an (n x m) array multiplier instantiates
/// when columns below `drop_columns` are removed -- the dominant dynamic
/// power term of the mantissa multiplier in the gate-level power model.
long long array_cell_count(int n_bits, int m_bits, int drop_columns);

// --- structural unit mirrors, the oracle of the functional units ----------
// Each mirrors one unit of src/ihw stage by stage, built from the primitives
// above and the IEEE field helpers of fpcore -- never from the lanes of
// ihw/lanes.h it checks. Instantiated for float and double. Subnormal
// operands flush to zero, NaN results are the canonical quiet NaN, and no
// stage rounds.

/// TH-threshold imprecise adder (ifp_add; ifp_sub with `subtract`): a
/// TH-bit alignment shifter, a (TH+2)-bit adder, a priority encoder and the
/// normalization shifter. TH is clamped to [1, frac_bits+4].
template <typename T>
T structural_ifp_add(T a, T b, int th, bool subtract = false);

/// Table 1 imprecise multiplier (ifp_mul): one frac_bits-wide fraction
/// adder whose carry-out bumps the exponent and selects the normalization
/// shift.
template <typename T>
T structural_ifp_mul(T a, T b);

/// Accuracy-configurable Mitchell multiplier (Fig. 7 datapath: priority
/// encoders + Add1/Add2/Add3 with multiplexed paths), `trunc` fraction LSBs
/// masked off the inputs, `trunc` clamped to [0, frac_bits].
template <typename T>
T structural_acfp_mul(T a, T b, ihw::AcfpPath path, int trunc);

/// Bit-truncation baseline multiplier (trunc_mul): the exact array
/// multiplier on the two significands, normalization, then a keep mask
/// over the result fraction, `trunc` clamped to [0, frac_bits].
template <typename T>
T structural_trunc_mul(T a, T b, int trunc);

}  // namespace ihw::arith
