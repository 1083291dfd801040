#include "kernels/ax_dispatch.hpp"

#include "common/check.hpp"
#include "common/fixed_order.hpp"
#include "common/parallel.hpp"
#include "kernels/ax_internal.hpp"
#include "kernels/fused_sweep.hpp"

namespace semfpga::kernels {

const char* ax_variant_name(AxVariant variant) noexcept {
  switch (variant) {
    case AxVariant::kReference: return "reference";
    case AxVariant::kMxm: return "mxm";
    case AxVariant::kMxmBlocked: return "mxm_blocked";
    case AxVariant::kFixed: return "fixed";
  }
  return "?";
}

AxVariant parse_ax_variant(const std::string& name) {
  for (const AxVariant v : kAllAxVariants) {
    if (name == ax_variant_name(v)) {
      return v;
    }
  }
  SEMFPGA_CHECK(false, "unknown Ax variant '" + name +
                           "' (expected reference|mxm|mxm_blocked|fixed)");
  return AxVariant::kReference;  // unreachable
}

void ax_run_range(AxVariant variant, const AxArgs& args, std::size_t e_begin,
                  std::size_t e_end) {
  switch (variant) {
    case AxVariant::kReference:
      detail::ax_reference_range(args, e_begin, e_end);
      return;
    case AxVariant::kMxm:
      detail::ax_mxm_range(args, e_begin, e_end, /*blocked=*/false);
      return;
    case AxVariant::kMxmBlocked:
      detail::ax_mxm_range(args, e_begin, e_end, /*blocked=*/true);
      return;
    case AxVariant::kFixed:
      // Orders outside the instantiated range take the runtime-order body.
      dispatch_n1d(
          args.n1d,
          [&](auto nx) { ax_fixed_n1d<decltype(nx)::value>(args, e_begin, e_end); },
          [&] { detail::ax_reference_range(args, e_begin, e_end); });
      return;
  }
}

void ax_run(AxVariant variant, const AxArgs& args, const AxExecPolicy& policy) {
  args.validate();
  // Each worker runs one contiguous block of elements with private scratch;
  // elements are independent, so any partitioning is bitwise equivalent.
  parallel_blocks(args.n_elements, policy.threads,
                  [&](std::size_t /*part*/, std::size_t begin, std::size_t end) {
                    ax_run_range(variant, args, begin, end);
                  });
}

void ax_run_fused(AxVariant variant, const AxArgs& args, const AxFusedScatter& fused,
                  const AxExecPolicy& policy) {
  args.validate();
  // The generic driver with a no-op chunk epilogue — the pure Poisson
  // operator has no per-DOF tail.  See fused_sweep.hpp for the two-pass
  // structure and the bitwise fused == split argument.
  detail::fused_sweep(variant, args, fused, policy,
                      [](std::size_t /*e_begin*/, std::size_t /*e_end*/) {});
}

}  // namespace semfpga::kernels
