#include "kernels/ax.hpp"

#include <vector>

#include "common/check.hpp"
#include "kernels/ax_body.hpp"
#include "kernels/ax_dispatch.hpp"
#include "kernels/ax_internal.hpp"

namespace semfpga::kernels {
namespace detail {

void ax_reference_range(const AxArgs& args, std::size_t e_begin, std::size_t e_end) {
  const std::size_t ppe = static_cast<std::size_t>(args.n1d) * args.n1d * args.n1d;
  // Per-thread scratch survives across calls, so short ranges (the fused
  // sweep's cache-sized chunks) pay no allocation.
  static thread_local std::vector<double> shur, shus, shut;
  shur.resize(ppe);
  shus.resize(ppe);
  shut.resize(ppe);
  for (std::size_t e = e_begin; e < e_end; ++e) {
    ax_element_body_t<double>(args.u.data() + e * ppe, args.w.data() + e * ppe,
                              args.g.data() + sem::geom_index(ppe, e, 0, 0),
                              args.dx.data(), args.dxt.data(), args.n1d, shur.data(),
                              shus.data(), shut.data());
  }
}

}  // namespace detail

void AxArgs::validate() const {
  SEMFPGA_CHECK(n1d >= 2, "n1d must be at least 2 (degree >= 1)");
  const std::size_t ppe = static_cast<std::size_t>(n1d) * n1d * n1d;
  const std::size_t n = n_elements * ppe;
  SEMFPGA_CHECK(u.size() == n, "u has the wrong size");
  SEMFPGA_CHECK(w.size() == n, "w has the wrong size");
  SEMFPGA_CHECK(g.size() == n * sem::kGeomComponents, "g has the wrong size");
  SEMFPGA_CHECK(dx.size() == static_cast<std::size_t>(n1d) * n1d, "dx has the wrong size");
  SEMFPGA_CHECK(dxt.size() == static_cast<std::size_t>(n1d) * n1d, "dxt has the wrong size");
}

void ax_reference(const AxArgs& args) {
  args.validate();
  detail::ax_reference_range(args, 0, args.n_elements);
}

void ax_omp(const AxArgs& args) {
  ax_run(AxVariant::kReference, args, AxExecPolicy{/*threads=*/0});
}

void ax_single_element(const sem::ReferenceElement& ref, const sem::GeomFactors& gf,
                       std::size_t element, std::span<const double> u,
                       std::span<double> w) {
  SEMFPGA_CHECK(element < gf.n_elements, "element index out of range");
  const std::size_t ppe = ref.points_per_element();
  SEMFPGA_CHECK(u.size() == ppe && w.size() == ppe, "field views must cover one element");
  std::vector<double> shur(ppe);
  std::vector<double> shus(ppe);
  std::vector<double> shut(ppe);
  ax_element_body_t<double>(u.data(), w.data(),
                            gf.g.data() + sem::geom_index(ppe, element, 0, 0),
                            ref.deriv().d.data(), ref.deriv().dt.data(), ref.n1d(),
                            shur.data(), shus.data(), shut.data());
}

}  // namespace semfpga::kernels
