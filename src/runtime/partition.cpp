#include "runtime/partition.hpp"

#include <algorithm>
#include <array>
#include <tuple>

#include "common/check.hpp"

namespace semfpga::runtime {

namespace {

/// Remainder-first even split of `extent` into `parts`: part i covers
/// [begin_of(i), begin_of(i+1)).
int split_begin(int extent, int parts, int index) {
  const int base = extent / parts;
  const int extra = extent % parts;
  return index * base + std::min(index, extra);
}

struct Candidate {
  int px = 0, py = 0, pz = 0;
};

/// Worst-rank element count for a factorisation: the first block on every
/// axis is the largest under the remainder-first rule.
std::int64_t worst_elements(const sem::BoxMeshSpec& spec, Candidate c) {
  const std::int64_t mx = split_begin(spec.nelx, c.px, 1);
  const std::int64_t my = split_begin(spec.nely, c.py, 1);
  const std::int64_t mz = split_begin(spec.nelz, c.pz, 1);
  return mx * my * mz;
}

/// Face-surface proxy for the worst rank: doubles crossing each partitioned
/// axis's two faces at that rank's block extents.
std::int64_t worst_surface(const sem::BoxMeshSpec& spec, Candidate c) {
  const std::int64_t n1d = spec.degree + 1;
  const std::int64_t sx = split_begin(spec.nelx, c.px, 1) * n1d;
  const std::int64_t sy = split_begin(spec.nely, c.py, 1) * n1d;
  const std::int64_t sz = split_begin(spec.nelz, c.pz, 1) * n1d;
  std::int64_t s = 0;
  if (c.px > 1) s += 2 * sy * sz;
  if (c.py > 1) s += 2 * sx * sz;
  if (c.pz > 1) s += 2 * sx * sy;
  return s;
}

std::int64_t extent_spread(const sem::BoxMeshSpec& spec, Candidate c) {
  const std::int64_t mx = split_begin(spec.nelx, c.px, 1);
  const std::int64_t my = split_begin(spec.nely, c.py, 1);
  const std::int64_t mz = split_begin(spec.nelz, c.pz, 1);
  return std::max({mx, my, mz}) - std::min({mx, my, mz});
}

/// All factorisations px*py*pz == n_ranks allowed by the kind (no box
/// feasibility applied here).
std::vector<Candidate> factorisations(int n_ranks, PartitionKind kind) {
  std::vector<Candidate> out;
  switch (kind) {
    case PartitionKind::kSlab:
      out.push_back({1, 1, n_ranks});
      break;
    case PartitionKind::kPencil:
      for (int px = 1; px <= n_ranks; ++px) {
        if (n_ranks % px == 0) out.push_back({px, n_ranks / px, 1});
      }
      break;
    case PartitionKind::kBlock3d:
      for (int px = 1; px <= n_ranks; ++px) {
        if (n_ranks % px != 0) continue;
        const int rest = n_ranks / px;
        for (int py = 1; py <= rest; ++py) {
          if (rest % py == 0) out.push_back({px, py, rest / py});
        }
      }
      break;
  }
  return out;
}

}  // namespace

const char* partition_kind_name(PartitionKind kind) noexcept {
  switch (kind) {
    case PartitionKind::kSlab:
      return "slab";
    case PartitionKind::kPencil:
      return "pencil";
    case PartitionKind::kBlock3d:
      return "3d";
  }
  return "slab";
}

PartitionKind parse_partition_kind(const std::string& name) {
  if (name == "slab") return PartitionKind::kSlab;
  if (name == "pencil") return PartitionKind::kPencil;
  if (name == "3d") return PartitionKind::kBlock3d;
  throw std::invalid_argument("unknown partition kind '" + name +
                              "' (known: slab, pencil, 3d)");
}

std::int64_t BlockPartition::max_elements() const noexcept {
  std::int64_t worst = 0;
  for (const RankBlock& r : ranks) worst = std::max(worst, r.n_elements);
  return worst;
}

std::int64_t BlockPartition::max_halo_doubles() const noexcept {
  std::int64_t worst = 0;
  for (const RankBlock& r : ranks) worst = std::max(worst, r.halo_doubles);
  return worst;
}

std::int64_t BlockPartition::max_halo_bytes() const noexcept {
  return max_halo_doubles() * 8;
}

GridShape ideal_grid(int n_ranks, PartitionKind kind) {
  SEMFPGA_CHECK(n_ranks >= 1, "need at least one rank");
  GridShape best{1, 1, n_ranks};
  if (kind == PartitionKind::kSlab) return best;
  // A huge cubic box constrains nothing: the selection below degenerates to
  // the most balanced factorisation of the pure rank count.
  sem::BoxMeshSpec unconstrained;
  unconstrained.degree = 1;
  unconstrained.nelx = unconstrained.nely = unconstrained.nelz = n_ranks;
  const BlockPartition part = partition_blocks(unconstrained, n_ranks, kind);
  return GridShape{part.px, part.py, part.pz};
}

BlockPartition partition_blocks(const sem::BoxMeshSpec& spec, int n_ranks,
                                PartitionKind kind) {
  SEMFPGA_CHECK(n_ranks >= 1, "need at least one rank");
  SEMFPGA_CHECK(spec.nelx >= 1 && spec.nely >= 1 && spec.nelz >= 1,
                "element box must be non-empty");

  // Pick the best factorisation that fits the box.
  bool found = false;
  Candidate best{};
  std::tuple<std::int64_t, std::int64_t, std::int64_t, int, int, int> best_score{};
  for (const Candidate& c : factorisations(n_ranks, kind)) {
    if (c.px > spec.nelx || c.py > spec.nely || c.pz > spec.nelz) continue;
    const auto score = std::make_tuple(worst_elements(spec, c),
                                       worst_surface(spec, c),
                                       extent_spread(spec, c), c.px, c.py, c.pz);
    if (!found || score < best_score) {
      found = true;
      best = c;
      best_score = score;
    }
  }
  SEMFPGA_CHECK(found,
                std::string("cannot split more ranks than z element layers: no ") +
                    partition_kind_name(kind) + " factorisation of " +
                    std::to_string(n_ranks) + " ranks fits a " +
                    std::to_string(spec.nelx) + "x" + std::to_string(spec.nely) +
                    "x" + std::to_string(spec.nelz) + " element box");

  BlockPartition part;
  part.spec = spec;
  part.kind = kind;
  part.n_ranks = n_ranks;
  part.px = best.px;
  part.py = best.py;
  part.pz = best.pz;
  part.ranks.reserve(static_cast<std::size_t>(n_ranks));

  const std::int64_t n1d = spec.degree + 1;
  const std::array<int, 3> parts{best.px, best.py, best.pz};

  for (int bz = 0; bz < best.pz; ++bz) {
    for (int by = 0; by < best.py; ++by) {
      for (int bx = 0; bx < best.px; ++bx) {
        RankBlock b;
        b.rank = (bz * best.py + by) * best.px + bx;
        b.x_begin = split_begin(spec.nelx, best.px, bx);
        b.x_end = split_begin(spec.nelx, best.px, bx + 1);
        b.y_begin = split_begin(spec.nely, best.py, by);
        b.y_end = split_begin(spec.nely, best.py, by + 1);
        b.z_begin = split_begin(spec.nelz, best.pz, bz);
        b.z_end = split_begin(spec.nelz, best.pz, bz + 1);
        const std::array<std::int64_t, 3> m{b.x_end - b.x_begin,
                                            b.y_end - b.y_begin,
                                            b.z_end - b.z_begin};
        b.n_elements = m[0] * m[1] * m[2];

        // Interior = elements with no face on an inter-rank boundary.
        const std::array<int, 3> coord{bx, by, bz};
        std::int64_t interior = 1;
        for (int a = 0; a < 3; ++a) {
          std::int64_t ext = m[static_cast<std::size_t>(a)];
          if (coord[static_cast<std::size_t>(a)] > 0) --ext;
          if (coord[static_cast<std::size_t>(a)] <
              parts[static_cast<std::size_t>(a)] - 1) {
            --ext;
          }
          interior *= std::max<std::int64_t>(ext, 0);
        }
        b.n_interior_elements = interior;

        // Raw-copy halo accounting over the <= 26 grid neighbours.
        for (int dz = -1; dz <= 1; ++dz) {
          for (int dy = -1; dy <= 1; ++dy) {
            for (int dx = -1; dx <= 1; ++dx) {
              if (dx == 0 && dy == 0 && dz == 0) continue;
              const std::array<int, 3> d{dx, dy, dz};
              bool valid = true;
              std::int64_t msg = 1;
              for (int a = 0; a < 3; ++a) {
                const int nc = coord[static_cast<std::size_t>(a)] +
                               d[static_cast<std::size_t>(a)];
                if (nc < 0 || nc >= parts[static_cast<std::size_t>(a)]) {
                  valid = false;
                  break;
                }
                // Same grid coordinate on this axis -> identical element
                // range -> one copy per (element, node) pair; abutting
                // ranges share exactly the single boundary lattice plane.
                msg *= d[static_cast<std::size_t>(a)] == 0
                           ? m[static_cast<std::size_t>(a)] * n1d
                           : 1;
              }
              if (!valid) continue;
              ++b.n_neighbors;
              b.halo_doubles += msg;
            }
          }
        }
        part.ranks.push_back(b);
      }
    }
  }
  return part;
}

}  // namespace semfpga::runtime
