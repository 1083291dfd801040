#include "sem/mesh.hpp"

#include <cmath>

#include "common/check.hpp"

namespace semfpga::sem {
namespace {

constexpr double kPi = 3.14159265358979323846;

/// Normalised coordinate in [0,1] of a point inside the box.
double hat(double v, double lo, double hi) { return (v - lo) / (hi - lo); }

}  // namespace

Mesh::Mesh(BoxMeshSpec spec, const ReferenceElement& ref) : spec_(spec) {
  SEMFPGA_CHECK(spec.degree >= 1, "mesh degree must be at least 1");
  SEMFPGA_CHECK(ref.degree() == spec.degree, "reference element degree mismatch");
  SEMFPGA_CHECK(spec.nelx >= 1 && spec.nely >= 1 && spec.nelz >= 1,
                "element counts must be positive");
  SEMFPGA_CHECK(spec.x1 > spec.x0 && spec.y1 > spec.y0 && spec.z1 > spec.z0,
                "box extents must be non-degenerate");

  const int n1d = spec.degree + 1;
  n_elements_ = static_cast<std::size_t>(spec.nelx) * spec.nely * spec.nelz;
  ppe_ = ref.points_per_element();

  const std::size_t n_local = n_elements_ * ppe_;
  x_.resize(n_local);
  y_.resize(n_local);
  z_.resize(n_local);
  global_id_.resize(n_local);

  // Global GLL lattice: adjacent elements share the face plane of nodes.
  const std::int64_t gx = static_cast<std::int64_t>(spec.nelx) * spec.degree + 1;
  const std::int64_t gy = static_cast<std::int64_t>(spec.nely) * spec.degree + 1;
  const std::int64_t gz = static_cast<std::int64_t>(spec.nelz) * spec.degree + 1;
  n_global_ = static_cast<std::size_t>(gx) * gy * gz;
  boundary_.assign(n_global_, 0);

  const auto& nodes = ref.rule().nodes;
  const double hx = (spec.x1 - spec.x0) / spec.nelx;
  const double hy = (spec.y1 - spec.y0) / spec.nely;
  const double hz = (spec.z1 - spec.z0) / spec.nelz;

  std::size_t e = 0;
  for (int ez = 0; ez < spec.nelz; ++ez) {
    for (int ey = 0; ey < spec.nely; ++ey) {
      for (int ex = 0; ex < spec.nelx; ++ex, ++e) {
        const double ox = spec.x0 + ex * hx;
        const double oy = spec.y0 + ey * hy;
        const double oz = spec.z0 + ez * hz;
        for (int k = 0; k < n1d; ++k) {
          for (int j = 0; j < n1d; ++j) {
            for (int i = 0; i < n1d; ++i) {
              const std::size_t loc = e * ppe_ + ref.index(i, j, k);
              // Undeformed coordinates: affine image of the GLL lattice.
              double px = ox + 0.5 * (nodes[i] + 1.0) * hx;
              double py = oy + 0.5 * (nodes[j] + 1.0) * hy;
              double pz = oz + 0.5 * (nodes[k] + 1.0) * hz;

              // Deformations are functions of the *global* position only, so
              // shared nodes on element interfaces deform identically and
              // mesh continuity is preserved.
              const double xh = hat(px, spec.x0, spec.x1);
              const double yh = hat(py, spec.y0, spec.y1);
              const double zh = hat(pz, spec.z0, spec.z1);
              switch (spec.deformation) {
                case Deformation::kNone:
                  break;
                case Deformation::kSine: {
                  const double bump = spec.deformation_amplitude *
                                      std::sin(kPi * xh) * std::sin(kPi * yh) *
                                      std::sin(kPi * zh);
                  px += bump * (spec.x1 - spec.x0);
                  py += bump * (spec.y1 - spec.y0) * 0.8;
                  pz += bump * (spec.z1 - spec.z0) * 0.6;
                  break;
                }
                case Deformation::kTwist: {
                  // Rotate interior z-slices about the box axis; the angle
                  // vanishes at z-boundaries and radially at x/y boundaries.
                  const double cx = 0.5 * (spec.x0 + spec.x1);
                  const double cy = 0.5 * (spec.y0 + spec.y1);
                  const double envelope = std::sin(kPi * zh) * std::sin(kPi * xh) *
                                          std::sin(kPi * yh);
                  const double angle = spec.deformation_amplitude * kPi * envelope;
                  const double dx = px - cx;
                  const double dy = py - cy;
                  px = cx + std::cos(angle) * dx - std::sin(angle) * dy;
                  py = cy + std::sin(angle) * dx + std::cos(angle) * dy;
                  break;
                }
              }
              x_[loc] = px;
              y_[loc] = py;
              z_[loc] = pz;

              // Global lattice id of this node.
              const std::int64_t gi = static_cast<std::int64_t>(ex) * spec.degree + i;
              const std::int64_t gj = static_cast<std::int64_t>(ey) * spec.degree + j;
              const std::int64_t gk = static_cast<std::int64_t>(ez) * spec.degree + k;
              const std::int64_t gid = gi + gx * (gj + gy * gk);
              global_id_[loc] = gid;
              if (gi == 0 || gi == gx - 1 || gj == 0 || gj == gy - 1 || gk == 0 ||
                  gk == gz - 1) {
                boundary_[static_cast<std::size_t>(gid)] = 1;
              }
            }
          }
        }
      }
    }
  }
}

Mesh Mesh::extract_block(const Mesh& parent, int x_begin, int x_end, int y_begin,
                         int y_end, int z_begin, int z_end) {
  const BoxMeshSpec& spec = parent.spec_;
  SEMFPGA_CHECK(0 <= x_begin && x_begin < x_end && x_end <= spec.nelx,
                "block x element range must lie inside the parent mesh");
  SEMFPGA_CHECK(0 <= y_begin && y_begin < y_end && y_end <= spec.nely,
                "block y element range must lie inside the parent mesh");
  SEMFPGA_CHECK(0 <= z_begin && z_begin < z_end && z_end <= spec.nelz,
                "block z element range must lie inside the parent mesh");

  const int deg = spec.degree;
  Mesh m;
  m.spec_ = spec;
  m.spec_.nelx = x_end - x_begin;
  m.spec_.nely = y_end - y_begin;
  m.spec_.nelz = z_end - z_begin;
  // Nominal extents only (coordinates are copied, never re-derived).
  const double hx = (spec.x1 - spec.x0) / spec.nelx;
  const double hy = (spec.y1 - spec.y0) / spec.nely;
  const double hz = (spec.z1 - spec.z0) / spec.nelz;
  m.spec_.x0 = spec.x0 + x_begin * hx;
  m.spec_.x1 = spec.x0 + x_end * hx;
  m.spec_.y0 = spec.y0 + y_begin * hy;
  m.spec_.y1 = spec.y0 + y_end * hy;
  m.spec_.z0 = spec.z0 + z_begin * hz;
  m.spec_.z1 = spec.z0 + z_end * hz;

  m.ppe_ = parent.ppe_;
  m.n_elements_ = static_cast<std::size_t>(m.spec_.nelx) * m.spec_.nely *
                  m.spec_.nelz;
  const std::size_t n_local = m.n_elements_ * m.ppe_;
  m.x_.resize(n_local);
  m.y_.resize(n_local);
  m.z_.resize(n_local);
  m.global_id_.resize(n_local);

  // Parent and block lattice extents.
  const std::int64_t gx = static_cast<std::int64_t>(spec.nelx) * deg + 1;
  const std::int64_t gy = static_cast<std::int64_t>(spec.nely) * deg + 1;
  const std::int64_t lgx = static_cast<std::int64_t>(m.spec_.nelx) * deg + 1;
  const std::int64_t lgy = static_cast<std::int64_t>(m.spec_.nely) * deg + 1;
  const std::int64_t lgz = static_cast<std::int64_t>(m.spec_.nelz) * deg + 1;
  const std::int64_t ox = static_cast<std::int64_t>(x_begin) * deg;
  const std::int64_t oy = static_cast<std::int64_t>(y_begin) * deg;
  const std::int64_t oz = static_cast<std::int64_t>(z_begin) * deg;
  m.n_global_ = static_cast<std::size_t>(lgx) * lgy * lgz;

  // Per-element bitwise copy; block elements are strided in the parent.
  std::size_t le = 0;
  for (int ez = z_begin; ez < z_end; ++ez) {
    for (int ey = y_begin; ey < y_end; ++ey) {
      for (int ex = x_begin; ex < x_end; ++ex, ++le) {
        const std::size_t pe = (static_cast<std::size_t>(ez) * spec.nely + ey) *
                                   spec.nelx +
                               static_cast<std::size_t>(ex);
        const std::size_t src = pe * m.ppe_;
        const std::size_t dst = le * m.ppe_;
        for (std::size_t p = 0; p < m.ppe_; ++p) {
          m.x_[dst + p] = parent.x_[src + p];
          m.y_[dst + p] = parent.y_[src + p];
          m.z_[dst + p] = parent.z_[src + p];
          // Translate the parent lattice id into the block lattice.
          const std::int64_t pgid = parent.global_id_[src + p];
          const std::int64_t gi = pgid % gx;
          const std::int64_t gj = (pgid / gx) % gy;
          const std::int64_t gk = pgid / (gx * gy);
          m.global_id_[dst + p] =
              (gi - ox) + lgx * ((gj - oy) + lgy * (gk - oz));
        }
      }
    }
  }

  // Boundary flags restricted to the block's lattice window.
  m.boundary_.assign(m.n_global_, 0);
  std::size_t lid = 0;
  for (std::int64_t lk = 0; lk < lgz; ++lk) {
    for (std::int64_t lj = 0; lj < lgy; ++lj) {
      for (std::int64_t li = 0; li < lgx; ++li, ++lid) {
        const std::int64_t pgid = (ox + li) + gx * ((oy + lj) + gy * (oz + lk));
        m.boundary_[lid] = parent.boundary_[static_cast<std::size_t>(pgid)];
      }
    }
  }
  return m;
}

Mesh box_mesh(const BoxMeshSpec& spec) {
  const ReferenceElement ref(spec.degree);
  return Mesh(spec, ref);
}

}  // namespace semfpga::sem
