#include "oracle.h"

#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {
namespace {

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ull;

  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ull;
    }
  }
  template <typename T>
  void vec(const std::vector<T>& v) {
    const std::uint64_t n = v.size();
    bytes(&n, sizeof n);
    bytes(v.data(), v.size() * sizeof(T));
  }
};

}  // namespace

std::uint64_t digest(const PointOutput& out) {
  Fnv1a f;
  const std::uint64_t dims[] = {out.grid.rows(), out.grid.cols(),
                                out.image.width, out.image.height};
  f.bytes(dims, sizeof dims);
  f.bytes(out.grid.data(), out.grid.size() * sizeof(float));
  f.vec(out.image.pixels);
  f.vec(out.floats);
  f.vec(out.values);
  f.vec(out.counts);
  f.bytes(out.perf.counts.data(), sizeof out.perf.counts);
  const std::uint64_t tail[] = {out.sim_ops, out.abft_checksums,
                                out.abft_detections};
  f.bytes(tail, sizeof tail);
  return f.h;
}

void flip_one_bit(PointOutput& out) {
  auto flip = [](void* word) {
    unsigned char b;
    std::memcpy(&b, word, 1);
    b ^= 1u;
    std::memcpy(word, &b, 1);
  };
  if (out.grid.size()) return flip(out.grid.data());
  if (!out.image.pixels.empty()) return flip(out.image.pixels.data());
  if (!out.floats.empty()) return flip(out.floats.data());
  if (!out.values.empty()) return flip(out.values.data());
  if (!out.counts.empty()) return flip(out.counts.data());
  out.sim_ops ^= 1u;
}

bool Golden::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    std::uint64_t seed;
    std::string name, hex;
    if (ss >> seed >> name >> hex)
      table_[{seed, name}] = std::stoull(hex, nullptr, 16);
  }
  return true;
}

const std::uint64_t* Golden::find(std::uint64_t seed,
                                  const std::string& point) const {
  const auto it = table_.find({seed, point});
  return it == table_.end() ? nullptr : &it->second;
}

}  // namespace perfbench
