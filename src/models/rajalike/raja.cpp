#include "models/rajalike/raja.hpp"

#include <stdexcept>

namespace rajalike {

namespace {
void check_geometry(int nx, int ny, int halo_depth, int pad) {
  if (nx <= 0 || ny <= 0 || halo_depth < 0 || pad < 0) {
    throw std::invalid_argument("interior index set: bad geometry");
  }
  if (2 * pad >= nx || 2 * pad >= ny) {
    throw std::invalid_argument("interior index set: pad swallows interior");
  }
}
}  // namespace

IndexSet make_interior_index_set(int nx, int ny, int halo_depth, int pad) {
  check_geometry(nx, ny, halo_depth, pad);
  const int h = halo_depth;
  const std::int64_t row_stride = nx + 2 * h;
  IndexSet iset;
  for (int y = h + pad; y < h + ny - pad; ++y) {
    ListSegment seg;
    seg.indices.reserve(static_cast<std::size_t>(nx - 2 * pad));
    for (int x = h + pad; x < h + nx - pad; ++x) {
      seg.indices.push_back(static_cast<std::int64_t>(y) * row_stride + x);
    }
    iset.push_back(std::move(seg));
  }
  return iset;
}

}  // namespace rajalike
