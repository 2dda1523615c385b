#include "qmc/sobol.h"

#include <bit>
#include <stdexcept>

namespace ihw::qmc {
namespace {

// Primitive-polynomial parameters for dimensions 2..8 (dimension 1 is the
// van der Corput sequence). Values follow Joe & Kuo's "new-joe-kuo-6" table:
// s = degree, a = coefficient bits, m = initial direction integers.
struct DimParam {
  int s;
  std::uint32_t a;
  std::uint32_t m[8];
};

constexpr DimParam kParams[7] = {
    {1, 0, {1, 0, 0, 0, 0, 0, 0, 0}},
    {2, 1, {1, 3, 0, 0, 0, 0, 0, 0}},
    {3, 1, {1, 3, 1, 0, 0, 0, 0, 0}},
    {3, 2, {1, 1, 1, 0, 0, 0, 0, 0}},
    {4, 1, {1, 1, 3, 3, 0, 0, 0, 0}},
    {4, 4, {1, 3, 5, 13, 0, 0, 0, 0}},
    {5, 2, {1, 1, 5, 5, 17, 0, 0, 0}},
};

}  // namespace

Sobol::Sobol(int dims) : dims_(dims) {
  if (dims < 1 || dims > kMaxDims)
    throw std::invalid_argument("Sobol: dims must be in [1,8]");

  // Dimension 0: van der Corput, v_k = 2^(31-k).
  for (int k = 0; k < kBits; ++k) dir_[0][k] = 1u << (31 - k);

  for (int d = 1; d < dims_; ++d) {
    const DimParam& p = kParams[d - 1];
    const int s = p.s;
    for (int k = 0; k < s; ++k) dir_[d][k] = p.m[k] << (31 - k);
    for (int k = s; k < kBits; ++k) {
      std::uint32_t v = dir_[d][k - s] ^ (dir_[d][k - s] >> s);
      for (int j = 1; j < s; ++j)
        if ((p.a >> (s - 1 - j)) & 1u) v ^= dir_[d][k - j];
      dir_[d][k] = v;
    }
  }
}

void Sobol::next(double* out) {
  // Emit the current point (the sequence starts at the origin so the first
  // 2^k points form a proper (0,m,s)-net), then advance by the Gray-code
  // rule: flip the direction number of the lowest zero bit of the index.
  for (int d = 0; d < dims_; ++d)
    out[d] = static_cast<double>(x_[d]) * 0x1.0p-32;
  const int c = std::countr_one(index_);
  ++index_;
  for (int d = 0; d < dims_; ++d) x_[d] ^= dir_[d][c];
}

void Sobol::seek(std::uint64_t index) {
  // After n Gray-code steps the state is XOR_{k set in gray(n)} v_k, because
  // step i flips exactly the direction number of bit countr_one(i), and each
  // bit k has been flipped an odd number of times iff bit k of n^(n>>1) is
  // set. The sequence uses 32-bit direction numbers, so the state (though
  // not the index) wraps with period 2^32.
  const std::uint64_t gray = index ^ (index >> 1);
  for (int d = 0; d < dims_; ++d) {
    std::uint32_t x = 0;
    for (int k = 0; k < kBits; ++k)
      if ((gray >> k) & 1u) x ^= dir_[d][k];
    x_[d] = x;
  }
  index_ = index;
}

}  // namespace ihw::qmc
