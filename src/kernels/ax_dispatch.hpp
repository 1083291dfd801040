#pragma once
/// \file ax_dispatch.hpp
/// Batched execution engine for the Ax kernel variants.
///
/// The paper evaluates one schedule at a time (Section III's optimization
/// ladder); the host needs the same thing as a runtime choice: pick a
/// variant, pick a thread count, run it over the whole element batch.  This
/// header is that seam — `ax_run` drives any variant either serially or
/// element-parallel with per-worker scratch, and is what the solver, the
/// benchmarks and the parity tests all call.
///
/// Variant ladder (slow to fast on CPU):
///   kReference  — Listing 1 port, scalar loops (the correctness oracle)
///   kMxm        — Nekbone's local_grad3 structure over naive mxm
///   kMxmBlocked — same structure over the register-blocked mxm
///   kFixed      — compile-time order dispatch, i-vectorised contractions
///
/// Element batches are embarrassingly parallel, so every variant produces
/// bitwise identical results at any thread count.

#include <array>
#include <string>

#include "common/fixed_order.hpp"
#include "kernels/ax.hpp"

namespace semfpga::kernels {

/// Which element body the execution engine runs.
enum class AxVariant {
  kReference,
  kMxm,
  kMxmBlocked,
  kFixed,
};

inline constexpr std::array<AxVariant, 4> kAllAxVariants = {
    AxVariant::kReference,
    AxVariant::kMxm,
    AxVariant::kMxmBlocked,
    AxVariant::kFixed,
};

/// Stable lowercase name ("reference", "mxm", "mxm_blocked", "fixed").
[[nodiscard]] const char* ax_variant_name(AxVariant variant) noexcept;

/// Inverse of ax_variant_name; throws std::invalid_argument on unknown names.
[[nodiscard]] AxVariant parse_ax_variant(const std::string& name);

/// How ax_run executes the batch: 1 = serial, k > 1 = k OpenMP threads,
/// 0 = all hardware threads.  Serial execution when built without OpenMP.
struct AxExecPolicy {
  int threads = 1;
};

/// Applies `variant` to the whole batch under `policy`.  All variants agree
/// with ax_reference to ~1e-15 relative error (identical math, summation
/// order differs per variant) and are individually deterministic for any
/// thread count.
void ax_run(AxVariant variant, const AxArgs& args, const AxExecPolicy& policy = {});

/// Applies `variant` to the contiguous element range [e_begin, e_end) on
/// the calling thread — the building block ax_run parallelises over.
void ax_run_range(AxVariant variant, const AxArgs& args, std::size_t e_begin,
                  std::size_t e_end);

/// Incidence schedule for the fused qqt-in-operator sweep: borrowed views
/// into solver::GatherScatter's shared-DOF CSR (the rows of the gather
/// schedule with more than one copy — the element→shared-DOF incidence)
/// plus the system's Dirichlet-mask schedule.  See gather_scatter.hpp for
/// the CSR layout contract and the canonical layer-split summation order
/// (`shared_splits`): each row folds its first-layer entries, folds its
/// second-layer entries, and adds the two partials — the order the SPMD
/// runtime's halo exchange reproduces across rank boundaries.
///
/// `shared_positions32` is the optional 32-bit copy of `shared_positions`
/// (GatherScatter builds it when n_local < 2^31).  When non-empty the
/// surface pass reads it instead of the 64-bit schedule, halving the index
/// traffic of the fused sweep's second pass; both paths visit identical
/// positions, so results are bitwise equal.
///
/// The mask arrives pre-compiled into the two places a 0/1 mask can act
/// (multiplying by 1.0 is a bitwise no-op, so everything else is skipped):
///  * `zero_offsets` / `zero_positions` — per-element CSR of the
///    multiplicity-1 DOFs whose mask is 0; the element epilogue multiplies
///    exactly these by 0.0 while the element is cache-hot.
///  * `shared_mask` — one mask value per shared row (every copy of a
///    global DOF shares it), applied to the owner-computes sums.
/// All three are supplied together (masked apply) or all empty (unmasked).
struct AxFusedScatter {
  std::span<const std::int64_t> shared_offsets;    ///< n_shared_dofs + 1
  std::span<const std::int64_t> shared_positions;  ///< shared copies, CSR order
  std::span<const std::int64_t> shared_splits;     ///< layer split per shared row
  std::span<const std::int32_t> shared_positions32;  ///< 32-bit copies (optional)
  std::span<const double> shared_mask;           ///< per shared row (optional)
  std::span<const std::int64_t> zero_offsets;    ///< n_elements + 1 (optional)
  std::span<const std::int64_t> zero_positions;  ///< masked interior DOFs
};

/// Fused operator + direct-stiffness sweep: w = [mask] QQ^T (A_local u) as
/// one pass over the elements plus a surface-only owner-computes reduction,
/// instead of the split ax_run → qqt → mask round trips over all n_local
/// DOFs.  A per-element epilogue masks the element's Dirichlet interior
/// DOFs while it is cache-hot (all other DOFs stream through untouched);
/// the second sweep walks only the shared CSR rows, summing each row of w
/// in qqt's fixed order and writing the row-masked sum back to every copy.
/// The sweep does a strict subset of the split path's memory traffic — no
/// full-length mask pass, no offsets walk over the interior global DOFs.
/// Honours the full variant ladder (including the ax_fixed_n1d<N1D>
/// compile-time dispatch) and is bitwise identical to the split path at
/// any thread count: element outputs are unchanged, shared-row sums run in
/// exactly qqt's order, and the masking performs the identical 0.0/1.0
/// multiplications the split mask sweep does.
void ax_run_fused(AxVariant variant, const AxArgs& args, const AxFusedScatter& fused,
                  const AxExecPolicy& policy = {});

/// Compile-time-order element batch: fully unrolled inner contractions,
/// i-vectorised loads, for elements [e_begin, e_end).  Explicitly
/// instantiated for N1D in [kFixedMinN1d, kFixedMaxN1d] (fixed_order.hpp);
/// the engine runs other orders through the runtime-order fallback.
/// \pre args.n1d == N1D.
template <int N1D>
void ax_fixed_n1d(const AxArgs& args, std::size_t e_begin, std::size_t e_end);

}  // namespace semfpga::kernels
