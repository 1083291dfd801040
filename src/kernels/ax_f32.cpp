#include "kernels/ax_f32.hpp"

#include "common/check.hpp"
#include "kernels/ax_body.hpp"

namespace semfpga::kernels {

void AxArgsF32::validate() const {
  SEMFPGA_CHECK(n1d >= 2, "n1d must be at least 2 (degree >= 1)");
  const std::size_t ppe = static_cast<std::size_t>(n1d) * n1d * n1d;
  const std::size_t n = n_elements * ppe;
  SEMFPGA_CHECK(u.size() == n, "u has the wrong size");
  SEMFPGA_CHECK(w.size() == n, "w has the wrong size");
  SEMFPGA_CHECK(g.size() == n * sem::kGeomComponents, "g has the wrong size");
  SEMFPGA_CHECK(dx.size() == static_cast<std::size_t>(n1d) * n1d, "dx has the wrong size");
  SEMFPGA_CHECK(dxt.size() == static_cast<std::size_t>(n1d) * n1d,
                "dxt has the wrong size");
}

void ax_reference_f32(const AxArgsF32& args) {
  args.validate();
  const std::size_t ppe = static_cast<std::size_t>(args.n1d) * args.n1d * args.n1d;
  std::vector<float> shur(ppe);
  std::vector<float> shus(ppe);
  std::vector<float> shut(ppe);
  for (std::size_t e = 0; e < args.n_elements; ++e) {
    ax_element_body_t<float>(args.u.data() + e * ppe, args.w.data() + e * ppe,
                             args.g.data() + sem::geom_index(ppe, e, 0, 0),
                             args.dx.data(), args.dxt.data(), args.n1d, shur.data(),
                             shus.data(), shut.data());
  }
}

std::vector<float> demote(std::span<const double> v) {
  std::vector<float> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    out[i] = static_cast<float>(v[i]);
  }
  return out;
}

std::vector<double> promote(std::span<const float> v) {
  std::vector<double> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    out[i] = static_cast<double>(v[i]);
  }
  return out;
}

}  // namespace semfpga::kernels
